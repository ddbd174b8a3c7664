"""Front 2: the byte-determinism checker (rules ``DT001`` .. ``DT005``).

The repository's core contract since PR 1 is that every artifact --
trace files, stats JSON, BENCH reports, canonical wire forms -- is
byte-identical across runs and machines.  That contract dies in small,
reviewable ways: a ``json.dumps`` without ``sort_keys``, a loop over a
``set`` feeding a serializer, a module-level ``random.random()``, a wall
clock.  This module walks the Python AST of ``src/repro`` and flags
exactly those, as a CI gate::

    PYTHONPATH=src python -m repro.analysis.determinism src/repro

Rules (catalog in ``docs/ANALYSIS.md``):

``DT001`` (error)
    ``json.dump``/``json.dumps`` without ``sort_keys=True``.
``DT002`` (error)
    Iteration over a bare set expression (a set display, ``set()`` /
    ``frozenset()`` call, set comprehension, or a union/intersection of
    them) in an order-sensitive position: a ``for`` loop, a list/dict
    comprehension, or a ``list()``/``tuple()`` conversion.  Feeding the
    result to an order-insensitive consumer (``sorted``, ``sum``,
    ``min``/``max``, ``len``, ``any``/``all``, ``set``/``frozenset``)
    is fine and not flagged.
``DT003`` (error)
    A call into the module-level (unseeded, process-shared)
    ``random`` generator; ``random.Random(seed)`` instances are the
    sanctioned source of randomness.
``DT004`` (error)
    Wall-clock reads: ``time.time()`` and friends,
    ``datetime.now()``/``utcnow()``/``today()``.  Virtual time comes
    from :func:`repro.spark.deadline.cost_units`.
``DT005`` (warning)
    Mutable default argument values (lists, dicts, sets): shared
    mutable state across calls is load-order-dependent behavior.

Suppression: append ``# repro: allow(DT002)`` (codes comma-separated)
to the flagged line, or place it as a comment on the line directly
above.  The CI gate ships with zero unsuppressed findings.
"""

from __future__ import annotations

import ast
import sys
from typing import Dict, Optional, Tuple

from repro.analysis.core import (
    Findings,
    RuleSet,
    SourceAnalyzer,
    SourceContext,
)

DETERMINISM_RULES = RuleSet("determinism")

#: Functions of the ``random`` module that touch the shared global state.
_RANDOM_STATEFUL = frozenset(
    (
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    )
)

#: Wall-clock readers of the ``time`` module.
_TIME_FUNCS = frozenset(
    (
        "clock_gettime",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "time",
        "time_ns",
    )
)

#: Wall-clock constructors on datetime/date classes.
_DATETIME_FUNCS = frozenset(("now", "today", "utcnow"))

#: Builtins whose output does not depend on input iteration order, so a
#: set-fed comprehension inside them is deterministic.
_ORDER_INSENSITIVE = frozenset(
    ("all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum")
)

_MUTABLE_CALLS = frozenset(("bytearray", "dict", "list", "set"))


#: Set-preserving augmented assignments: ``s |= other`` keeps *s* a set.
_SET_AUG_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)


def _is_set_expr(node: ast.AST) -> bool:
    """Structurally set-valued: a literal/comprehension/constructor/
    algebra of sets (no name resolution -- see :func:`_set_bound_names`)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_AUG_OPS):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _target_names(target: ast.AST):
    """Every plain name a (possibly destructuring) target binds."""
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _set_bound_names(tree: ast.Module) -> frozenset:
    """Names that are *only ever* bound to set values in this file.

    A name qualifies when every binding of it anywhere in the module is
    a plain assignment of a structurally set-valued expression (or a
    set-preserving augmented assignment); any other binding -- a
    parameter, import, loop target, non-set assignment, ``global``
    declaration -- disqualifies it, because this scan is deliberately
    scope-flat and must never flag a name that merely shadows a set.
    """
    set_assigned: set = set()
    otherwise: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bucket = (
                        set_assigned
                        if _is_set_expr(node.value)
                        else otherwise
                    )
                    bucket.add(target.id)
                else:
                    otherwise.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                if node.value is not None and _is_set_expr(node.value):
                    set_assigned.add(node.target.id)
                else:
                    otherwise.add(node.target.id)
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                bucket = (
                    set_assigned
                    if _is_set_expr(node.value)
                    else otherwise
                )
                bucket.add(node.target.id)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) and not isinstance(
                node.op, _SET_AUG_OPS
            ):
                otherwise.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            otherwise.add(node.name)
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + [args.vararg, args.kwarg]
            ):
                if arg is not None:
                    otherwise.add(arg.arg)
        elif isinstance(node, ast.Lambda):
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + [args.vararg, args.kwarg]
            ):
                if arg is not None:
                    otherwise.add(arg.arg)
        elif isinstance(node, ast.ClassDef):
            otherwise.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                otherwise.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            otherwise.update(_target_names(node.target))
        elif isinstance(node, ast.comprehension):
            otherwise.update(_target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    otherwise.update(_target_names(item.optional_vars))
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                otherwise.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            otherwise.update(node.names)
    return frozenset(set_assigned - otherwise)


class _Scan(ast.NodeVisitor):
    """One AST walk collecting every rule's raw findings."""

    def __init__(self, set_names: frozenset = frozenset()) -> None:
        #: Names provably bound only to set values (see
        #: :func:`_set_bound_names`): iterating one is DT002 exactly
        #: like iterating the set expression inline.
        self._set_names = set_names
        #: code -> [(line, column, message)]
        self.findings: Findings = {}
        # Module-name aliases bound by imports ("import json as j").
        self._json_modules: set = set()
        self._random_modules: set = set()
        self._time_modules: set = set()
        self._datetime_modules: set = set()
        # from-imported names -> original attribute name.
        self._json_names: Dict[str, str] = {}
        self._random_names: Dict[str, str] = {}
        self._time_names: Dict[str, str] = {}
        self._datetime_classes: set = set()
        # Comprehension nodes whose iteration order provably cannot leak.
        self._order_insensitive_nodes: set = set()

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.setdefault(code, []).append(
            (node.lineno, node.col_offset + 1, message)
        )

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "json":
                self._json_modules.add(bound)
            elif alias.name == "random":
                self._random_modules.add(bound)
            elif alias.name == "time":
                self._time_modules.add(bound)
            elif alias.name == "datetime":
                self._datetime_modules.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "json":
                self._json_names[bound] = alias.name
            elif node.module == "random":
                self._random_names[bound] = alias.name
            elif node.module == "time":
                self._time_names[bound] = alias.name
            elif node.module == "datetime" and alias.name in (
                "date",
                "datetime",
            ):
                self._datetime_classes.add(bound)
        self.generic_visit(node)

    # -- helpers -------------------------------------------------------

    def _set_valued(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, _SET_AUG_OPS
        ):
            return self._set_valued(node.left) or self._set_valued(
                node.right
            )
        return _is_set_expr(node)

    def _call_target(self, node: ast.Call) -> Tuple[str, str]:
        """(root, attr) of the call: ``json.dumps(...)`` -> ("json",
        "dumps"); a bare name call returns ("", name)."""
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            return (func.value.id, func.attr)
        if isinstance(func, ast.Name):
            return ("", func.id)
        return ("", "")

    # -- call sites (DT001, DT002 conversions, DT003, DT004) ------------

    def visit_Call(self, node: ast.Call) -> None:
        root, attr = self._call_target(node)

        # DT001: json.dump/dumps without sort_keys=True.
        is_json_dump = (
            root in self._json_modules and attr in ("dump", "dumps")
        ) or (
            not root
            and self._json_names.get(attr) in ("dump", "dumps")
        )
        if is_json_dump:
            self._check_json_call(node, attr)

        # DT003: the shared module-level random generator.
        if (root in self._random_modules and attr in _RANDOM_STATEFUL) or (
            not root and self._random_names.get(attr) in _RANDOM_STATEFUL
        ):
            self._flag(
                "DT003",
                node,
                "call to the module-level random.%s(): the shared unseeded "
                "generator; use a seeded random.Random instance" % attr,
            )

        # DT004: wall clocks.
        if (root in self._time_modules and attr in _TIME_FUNCS) or (
            not root and self._time_names.get(attr) in _TIME_FUNCS
        ):
            self._flag(
                "DT004",
                node,
                "wall-clock read time.%s(): virtual time comes from cost "
                "units, never the host clock" % attr,
            )
        elif (
            # Not _call_target's attr: datetime.datetime.now() nests two
            # Attribute levels, which that helper reports as ("", "").
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DATETIME_FUNCS
            and self._is_datetime_root(node.func)
        ):
            self._flag(
                "DT004",
                node,
                "wall-clock read datetime %s(): virtual time comes from "
                "cost units, never the host clock" % node.func.attr,
            )

        # DT002 (conversion form): list(set(...)) / tuple(set(...)).
        if (
            not root
            and attr in ("list", "tuple")
            and len(node.args) == 1
            and not node.keywords
            and self._set_valued(node.args[0])
        ):
            self._flag(
                "DT002",
                node,
                "%s() over a set expression fixes an interpreter-dependent "
                "order; sort it first" % attr,
            )

        # Comprehensions handed straight to an order-insensitive consumer
        # may iterate sets freely.
        if not root and attr in _ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    self._order_insensitive_nodes.add(id(arg))
        self.generic_visit(node)

    def _is_datetime_root(self, func: ast.AST) -> bool:
        """True for ``datetime.now`` / ``datetime.datetime.now`` shapes."""
        if not isinstance(func, ast.Attribute):
            return False
        value = func.value
        if isinstance(value, ast.Name):
            return (
                value.id in self._datetime_classes
                or value.id in self._datetime_modules
            )
        if isinstance(value, ast.Attribute) and isinstance(
            value.value, ast.Name
        ):
            return (
                value.value.id in self._datetime_modules
                and value.attr in ("date", "datetime")
            )
        return False

    def _check_json_call(self, node: ast.Call, attr: str) -> None:
        sort_keys: Optional[ast.keyword] = None
        has_kwargs = False
        for keyword in node.keywords:
            if keyword.arg is None:
                has_kwargs = True
            elif keyword.arg == "sort_keys":
                sort_keys = keyword
        if sort_keys is not None:
            value = sort_keys.value
            if isinstance(value, ast.Constant) and value.value is False:
                self._flag(
                    "DT001",
                    node,
                    "json.%s with sort_keys=False emits dict-insertion "
                    "order; serialized artifacts must sort keys" % attr,
                )
            return
        if has_kwargs:
            return
        self._flag(
            "DT001",
            node,
            "json.%s without sort_keys=True emits dict-insertion order; "
            "serialized artifacts must sort keys" % attr,
        )

    # -- iteration sites (DT002) ----------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._set_valued(node.iter):
            self._flag(
                "DT002",
                node.iter,
                "for-loop over a set expression iterates in interpreter-"
                "dependent order; sort it first",
            )
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        if id(node) not in self._order_insensitive_nodes:
            for generator in node.generators:
                if self._set_valued(generator.iter):
                    self._flag(
                        "DT002",
                        generator.iter,
                        "comprehension over a set expression iterates in "
                        "interpreter-dependent order; sort it first",
                    )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # The result is itself a set: iteration order cannot leak here.
        self.generic_visit(node)

    # -- defaults (DT005) -----------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
                and not default.args
                and not default.keywords
            )
            if mutable:
                self._flag(
                    "DT005",
                    default,
                    "mutable default argument in %s(): one shared instance "
                    "across every call" % node.name,
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._check_defaults(node)


def _scan(tree: ast.Module) -> Findings:
    scan = _Scan(_set_bound_names(tree))
    scan.visit(tree)
    return scan.findings


_ANALYZER = SourceAnalyzer(
    DETERMINISM_RULES,
    _scan,
    "flag byte-determinism contract violations (see docs/ANALYSIS.md)",
)


@DETERMINISM_RULES.rule("DT000", "error", "file does not parse")
def _check_parses(context: SourceContext, found):
    if context.syntax_error:
        yield found(
            "syntax error: %s" % context.syntax_error, context.path
        )


_ANALYZER.rule("DT001", "error", "json serialization without sort_keys")
_ANALYZER.rule("DT002", "error", "iteration over a bare set")
_ANALYZER.rule("DT003", "error", "unseeded module-level random")
_ANALYZER.rule("DT004", "error", "wall-clock read")
_ANALYZER.rule("DT005", "warning", "mutable default argument")

check_source = _ANALYZER.check_source
check_paths = _ANALYZER.check_paths
main = _ANALYZER.main

if __name__ == "__main__":
    sys.exit(main())
