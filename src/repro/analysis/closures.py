"""Front 4: the closure & shared-state analyzer (rules ``CL000`` .. ``CL007``).

The multi-process executor backend (``repro.spark.parallel``, PR 7)
reintroduced the classic Spark failure family: a function shipped to a
worker that captures driver state it cannot legally use there.  The
in-process oracle hides every such bug -- captured objects are shared,
mutations are visible, accumulator reads are current -- and the forked
pool silently diverges.  Real Spark guards this boundary mechanically
(ClosureCleaner + serializability checks); this module is our
equivalent.  It AST-walks every function handed to an RDD / DataFrame
transformation across ``src/repro`` and flags worker-boundary
violations, as a CI gate::

    PYTHONPATH=src python -m repro.analysis.closures src/repro

Rules (catalog in ``docs/ANALYSIS.md``):

``CL000`` (error)
    A worker closure captures a driver-only object (``SparkContext``,
    ``SparkSession``, ``QueryService``, an engine pool or executor
    backend).  Those objects never cross the worker pipe.
``CL001`` (error)
    Mutation of captured state inside a worker closure: an augmented
    assignment, a subscript/attribute store, or an in-place mutator
    method on a free variable.  Under the parallel backend the mutation
    happens in a forked copy and is lost at merge -- the oracle and the
    pool silently diverge.  Accumulator ``.add`` is the sanctioned
    channel and is not flagged.
``CL002`` (error)
    Accumulator ``.value`` read inside a worker closure.  The driver
    value is stale on workers by definition; ``.value`` is a
    driver-side API.
``CL003`` (error)
    Broadcast variable mutated through ``.value`` after capture.
    Broadcasts are one-shot snapshots: workers hold copies, so the
    mutation is driver-local and the views diverge.
``CL004`` (warning)
    A worker closure raises a locally-defined exception class whose
    ``__init__`` requires extra arguments but defines no
    ``__reduce__``/``__getstate__``: the instance fails the pickle
    round-trip the worker pipe performs on errors.
``CL005`` (warning)
    A worker closure defined inside a loop captures the loop variable
    by reference.  Python closes over the *variable*, not the value:
    by the time a task runs, every closure sees the last iteration.
    Rebind it as a default argument (``lambda x, v=v: ...``).
``CL006`` (error)
    ``global`` (or a ``nonlocal`` reaching outside the closure) in
    worker code: writes land in the forked copy and vanish at merge.
``CL007`` (error)
    A worker closure calls a function that is itself guilty of one of
    the above (one-level interprocedural resolution through the
    module's call graph).

Suppression: the shared ``# repro: allow(CL001)`` comment syntax
(codes comma-separated), trailing on the flagged line or on the line
directly above.  The CI gate ships with zero unsuppressed findings.

Runtime facet: :func:`verify_callable` runs the same rules against a
*live* closure object (source via ``inspect``, captured cells via
``__closure__``), and the opt-in ``verify_closures=True`` knob on
:class:`repro.spark.context.SparkContext` applies it to every closure
in a job's lineage at submission time, raising
:exc:`ClosureAnalysisError` (CLI exit 4) instead of computing a wrong
answer.
"""

from __future__ import annotations

import ast
import builtins
import sys
import textwrap
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.core import (
    AnalysisReport,
    Diagnostic,
    RuleSet,
    SourceAnalyzer,
    suppressed,
)

CLOSURE_RULES = RuleSet("closures")

#: RDD / DataFrame methods whose function-valued arguments execute on
#: workers, mapped to the positional indexes that hold closures.
WORKER_METHODS: Dict[str, Tuple[int, ...]] = {
    "aggregateByKey": (1, 2),
    "combineByKey": (0, 1, 2),
    "filter": (0,),
    "flatMap": (0,),
    "flatMapValues": (0,),
    "fold": (1,),
    "foldByKey": (1,),
    "foreach": (0,),
    "keyBy": (0,),
    "map": (0,),
    "mapPartitions": (0,),
    "mapPartitionsWithIndex": (0,),
    "mapValues": (0,),
    "reduce": (0,),
    "reduceByKey": (0,),
    "sortBy": (0,),
}

#: Types whose instances live on the driver only; a worker closure may
#: neither capture nor construct one.
DRIVER_TYPES = frozenset(
    (
        "InProcessBackend",
        "ParallelBackend",
        "QueryService",
        "SparkContext",
        "SparkSession",
    )
)

#: Calls whose *result* is a driver-only object: the types above plus
#: the factory functions that produce contexts, backends, engines, and
#: service pools.
DRIVER_FACTORIES = DRIVER_TYPES | frozenset(
    ("build_backend", "build_context", "build_engine")
)

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    (
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    )
)

#: Dunder hooks that make a class survive the worker pipe's pickle
#: round-trip despite a custom ``__init__`` signature.
_PICKLE_HOOKS = frozenset(
    ("__getnewargs__", "__getstate__", "__reduce__", "__reduce_ex__")
)

_BUILTIN_NAMES = frozenset(dir(builtins))


def _param_names(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.args}
    names.update(a.arg for a in args.posonlyargs)
    names.update(a.arg for a in args.kwonlyargs)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _chain_root(node: ast.AST) -> Optional[ast.Name]:
    """The root ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _chain_attrs(node: ast.AST) -> List[str]:
    """Attribute names along a chain, root-first: ``b.value.x`` ->
    ``["value", "x"]``."""
    attrs: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        node = node.value
    attrs.reverse()
    return attrs


def _bound_names(closure: ast.AST) -> Set[str]:
    """Names bound anywhere inside the closure blob (params, stores,
    imports, nested defs), minus names it declares global/nonlocal.

    Nested function scopes are deliberately flattened into one blob:
    everything under a worker closure runs on the worker, and treating
    a nested def's locals as bound only under-reports, never invents,
    captures.
    """
    bound: Set[str] = set()
    escaped: Set[str] = set()
    for node in ast.walk(closure):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            bound |= _param_names(node.args)
        elif isinstance(node, ast.Lambda):
            bound |= _param_names(node.args)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            escaped.update(node.names)
    return bound - escaped


def _own_default_nodes(closure: ast.AST) -> Set[int]:
    """Node ids inside the closure's own default expressions.

    Defaults evaluate at definition time on the driver, so references
    there are snapshots, not captures -- ``lambda x, p=pattern: ...``
    is the sanctioned rebinding idiom and must stay silent.
    """
    args = getattr(closure, "args", None)
    excluded: Set[int] = set()
    if isinstance(args, ast.arguments):
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            for node in ast.walk(default):
                excluded.add(id(node))
    return excluded


@dataclass
class _Registries:
    """Per-module name registries feeding the closure rules."""

    driver_names: Set[str] = field(default_factory=set)
    accumulator_names: Set[str] = field(default_factory=set)
    broadcast_names: Set[str] = field(default_factory=set)
    #: Module-local exception classes failing the pickle round-trip:
    #: name -> definition line.
    risky_classes: Dict[str, int] = field(default_factory=dict)
    #: Module-level function definitions, by name.
    module_defs: Dict[str, ast.FunctionDef] = field(default_factory=dict)


def _collect_registries(tree: ast.Module) -> _Registries:
    reg = _Registries()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            reg.module_defs[node.name] = node
        elif isinstance(node, ast.ClassDef) and _pickle_risky(node):
            reg.risky_classes[node.name] = node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if not isinstance(target, ast.Name) or not isinstance(
            value, ast.Call
        ):
            continue
        func = value.func
        if isinstance(func, ast.Name) and func.id in DRIVER_FACTORIES:
            reg.driver_names.add(target.id)
        elif isinstance(func, ast.Attribute):
            if func.attr == "accumulator":
                reg.accumulator_names.add(target.id)
            elif func.attr == "broadcast":
                reg.broadcast_names.add(target.id)
            elif func.attr in DRIVER_FACTORIES:
                reg.driver_names.add(target.id)
    return reg


def _pickle_risky(cls: ast.ClassDef) -> bool:
    """True for exception classes the worker pipe cannot round-trip:
    a custom ``__init__`` demanding extra required arguments with none
    of the pickle hooks defined."""
    is_exception = any(
        isinstance(base, ast.Name)
        and (base.id.endswith("Error") or base.id.endswith("Exception"))
        for base in cls.bases
    )
    if not is_exception:
        return False
    init: Optional[ast.FunctionDef] = None
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            if item.name in _PICKLE_HOOKS:
                return False
            if item.name == "__init__":
                init = item
    if init is None:
        return False
    required = len(init.args.args) - len(init.args.defaults) - 1  # - self
    required += sum(
        1 for d in init.args.kw_defaults if d is None
    )
    return required >= 2


# ----------------------------------------------------------------------
# Closure-body analysis
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Finding:
    code: str
    line: int
    column: int
    message: str


def _closure_violations(
    closure: ast.AST,
    registries: _Registries,
    guilt: Optional[Dict[str, Tuple[str, int]]] = None,
    describe: str = "worker closure",
) -> List[_Finding]:
    """Direct rule violations inside one worker closure blob."""
    bound = _bound_names(closure)
    guilt = guilt or {}
    findings: List[_Finding] = []
    # Everything but CL000 skips the closure's own default expressions:
    # they run on the driver at definition time.  Shipping a driver-only
    # object *through* a default is still shipping it, so CL000 looks.
    in_defaults = _own_default_nodes(closure)

    def free(name: str) -> bool:
        return name not in bound and name not in _BUILTIN_NAMES

    def flag(code: str, node: ast.AST, message: str) -> None:
        findings.append(
            _Finding(code, node.lineno, node.col_offset + 1, message)
        )

    def flag_mutation(node: ast.AST, target: ast.AST, how: str) -> None:
        root = _chain_root(target)
        if root is None or not free(root.id):
            return
        # Mutations through a broadcast's ``.value`` are CL003's
        # territory (flagged module-wide, captured or not).
        if root.id in registries.broadcast_names:
            return
        flag(
            "CL001",
            node,
            "%s on captured variable '%s' inside a %s: the write "
            "happens in a forked worker copy and is lost at merge"
            % (how, root.id, describe),
        )

    for node in ast.walk(closure):
        if id(node) in in_defaults and not isinstance(node, ast.Name):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in registries.driver_names and free(node.id):
                flag(
                    "CL000",
                    node,
                    "%s captures driver-only object '%s': contexts, "
                    "sessions, services, and backends never cross the "
                    "worker pipe" % (describe, node.id),
                )
            elif node.id in DRIVER_TYPES and free(node.id):
                flag(
                    "CL000",
                    node,
                    "%s references driver-only type %s: constructing or "
                    "touching it in worker code breaks the worker "
                    "boundary" % (describe, node.id),
                )
        elif isinstance(node, ast.AugAssign):
            flag_mutation(node, node.target, "augmented assignment")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    flag_mutation(node, target, "subscript/attribute store")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
            ):
                root = _chain_root(func.value)
                if (
                    root is not None
                    and free(root.id)
                    and not (
                        func.attr == "add"
                        and root.id in registries.accumulator_names
                    )
                    and root.id not in registries.broadcast_names
                ):
                    flag(
                        "CL001",
                        node,
                        "in-place mutator .%s() on captured variable "
                        "'%s' inside a %s: the write happens in a "
                        "forked worker copy and is lost at merge"
                        % (func.attr, root.id, describe),
                    )
            elif isinstance(func, ast.Name) and free(func.id):
                guilty = guilt.get(func.id)
                if guilty is not None:
                    code, line = guilty
                    flag(
                        "CL007",
                        node,
                        "%s calls %s(), which violates %s at line %d: "
                        "the violation executes on the worker all the "
                        "same" % (describe, func.id, code, line),
                    )
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            if (
                node.attr == "value"
                and isinstance(node.value, ast.Name)
                and node.value.id in registries.accumulator_names
                and free(node.value.id)
            ):
                flag(
                    "CL002",
                    node,
                    "accumulator '%s'.value read inside a %s: the "
                    "driver total is stale on workers; .value is a "
                    "driver-side API" % (node.value.id, describe),
                )
        elif isinstance(node, ast.Raise):
            exc = node.exc
            if (
                isinstance(exc, ast.Call)
                and isinstance(exc.func, ast.Name)
                and exc.func.id in registries.risky_classes
            ):
                flag(
                    "CL004",
                    node,
                    "%s raises %s, whose __init__ requires extra "
                    "arguments but defines no __reduce__: the instance "
                    "fails the worker pipe's pickle round-trip"
                    % (describe, exc.func.id),
                )
        elif isinstance(node, ast.Global):
            flag(
                "CL006",
                node,
                "global statement in a %s: the write lands in a forked "
                "worker copy and vanishes at merge" % describe,
            )
        elif isinstance(node, ast.Nonlocal):
            if any(name not in bound for name in node.names):
                flag(
                    "CL006",
                    node,
                    "nonlocal reaching outside a %s: the write lands "
                    "in a forked worker copy and vanishes at merge"
                    % describe,
                )
    return findings


def _loop_capture_violations(
    closure: ast.AST, loop_targets: Set[str]
) -> List[_Finding]:
    """CL005: the closure's free names that are live loop variables."""
    if not loop_targets:
        return []
    bound = _bound_names(closure)
    in_defaults = _own_default_nodes(closure)
    captured: Dict[str, ast.Name] = {}
    for node in ast.walk(closure):
        if id(node) in in_defaults:
            continue
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in loop_targets
            and node.id not in bound
            and node.id not in captured
        ):
            captured[node.id] = node
    return [
        _Finding(
            "CL005",
            node.lineno,
            node.col_offset + 1,
            "worker closure captures loop variable '%s' by reference: "
            "every task sees the last iteration's value; rebind it as "
            "a default argument" % name,
        )
        for name, node in sorted(captured.items())
    ]


# ----------------------------------------------------------------------
# Module walk: worker call-sites, scope registries, CL003
# ----------------------------------------------------------------------


class _ModuleScan:
    """One full walk of a module collecting every rule's findings."""

    def __init__(self, tree: ast.Module) -> None:
        self.findings: Dict[str, List[Tuple[int, int, str]]] = {}
        self.registries = _collect_registries(tree)
        #: One-level interprocedural guilt: module-level function name
        #: -> (code, line) of its first direct violation.
        self.guilt: Dict[str, Tuple[str, int]] = {}
        for name, node in self.registries.module_defs.items():
            direct = _closure_violations(
                node, self.registries, describe="helper"
            )
            if direct:
                first = min(direct, key=lambda f: (f.line, f.column))
                self.guilt[name] = (first.code, first.line)
        self._analyzed: Set[int] = set()
        self._check_broadcast_mutations(tree)
        self._walk(tree, local_defs=[{}], loop_targets=set())

    def _record(self, finding: _Finding) -> None:
        self.findings.setdefault(finding.code, []).append(
            (finding.line, finding.column, finding.message)
        )

    # -- CL003 (module-wide) --------------------------------------------

    def _check_broadcast_mutations(self, tree: ast.Module) -> None:
        broadcast = self.registries.broadcast_names

        def through_value(node: ast.AST) -> Optional[str]:
            root = _chain_root(node)
            if root is None or root.id not in broadcast:
                return None
            attrs = _chain_attrs(node)
            if attrs and attrs[0] == "value":
                return root.id
            return None

        for node in ast.walk(tree):
            name: Optional[str] = None
            how = ""
            if isinstance(node, ast.AugAssign):
                name = through_value(node.target)
                how = "augmented assignment through"
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    name = through_value(target)
                    if name:
                        how = "store through"
                        break
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATOR_METHODS:
                    name = through_value(node.func.value)
                    how = "in-place .%s() through" % node.func.attr
            if name:
                self._record(
                    _Finding(
                        "CL003",
                        node.lineno,
                        node.col_offset + 1,
                        "%s '%s'.value mutates a broadcast after "
                        "capture: workers hold snapshots, so the views "
                        "diverge; rebroadcast instead" % (how, name),
                    )
                )

    # -- worker call-sites ------------------------------------------------

    def _walk(
        self,
        node: ast.AST,
        local_defs: List[Dict[str, Tuple[ast.FunctionDef, Set[str]]]],
        loop_targets: Set[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_defs[-1][child.name] = (child, set(loop_targets))
                local_defs.append({})
                self._walk(child, local_defs, set())
                local_defs.pop()
            elif isinstance(child, ast.For):
                targets = {
                    n.id
                    for n in ast.walk(child.target)
                    if isinstance(n, ast.Name)
                }
                self._walk(child, local_defs, loop_targets | targets)
            elif isinstance(child, ast.While):
                self._walk(child, local_defs, loop_targets)
            else:
                if isinstance(child, ast.Call):
                    self._handle_call(child, local_defs, loop_targets)
                self._walk(child, local_defs, loop_targets)

    def _handle_call(
        self,
        call: ast.Call,
        local_defs: List[Dict[str, Tuple[ast.FunctionDef, Set[str]]]],
        loop_targets: Set[str],
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        indexes = WORKER_METHODS.get(func.attr)
        if indexes is None:
            return
        for index in indexes:
            if index >= len(call.args):
                continue
            arg = call.args[index]
            if isinstance(arg, ast.Lambda):
                self._analyze(arg, loop_targets)
            elif isinstance(arg, ast.Name):
                resolved = self._resolve(arg.id, local_defs)
                if resolved is not None:
                    self._analyze(resolved[0], resolved[1])

    def _resolve(
        self,
        name: str,
        local_defs: List[Dict[str, Tuple[ast.FunctionDef, Set[str]]]],
    ) -> Optional[Tuple[ast.FunctionDef, Set[str]]]:
        for scope in reversed(local_defs):
            if name in scope:
                return scope[name]
        node = self.registries.module_defs.get(name)
        if node is not None:
            return (node, set())
        return None

    def _analyze(self, closure: ast.AST, loop_targets: Set[str]) -> None:
        if id(closure) in self._analyzed:
            return
        self._analyzed.add(id(closure))
        for finding in _closure_violations(
            closure, self.registries, guilt=self.guilt
        ):
            self._record(finding)
        for finding in _loop_capture_violations(closure, loop_targets):
            self._record(finding)


_ANALYZER = SourceAnalyzer(
    CLOSURE_RULES,
    lambda tree: _ModuleScan(tree).findings,
    "flag worker-boundary violations in closures "
    "handed to RDD/DataFrame operations (see docs/ANALYSIS.md)",
)
_ANALYZER.rule(
    "CL000", "error", "worker closure captures a driver-only object"
)
_ANALYZER.rule(
    "CL001", "error", "mutation of captured state in a worker closure"
)
_ANALYZER.rule("CL002", "error", "accumulator .value read in a worker closure")
_ANALYZER.rule("CL003", "error", "broadcast variable mutated after capture")
_ANALYZER.rule(
    "CL004", "warning", "exception type cannot cross the worker pipe"
)
_ANALYZER.rule("CL005", "warning", "worker closure captures a loop variable")
_ANALYZER.rule("CL006", "error", "global/nonlocal write in worker code")
_ANALYZER.rule(
    "CL007", "error", "worker closure calls a boundary-violating function"
)

#: Unparseable files are skipped silently: syntax errors are the
#: determinism checker's ``DT000`` territory, and double-reporting them
#: would make the two gates disagree about counts.
check_source = _ANALYZER.check_source
check_paths = _ANALYZER.check_paths
main = _ANALYZER.main


# ----------------------------------------------------------------------
# Runtime facet: verify live closures at job submission
# ----------------------------------------------------------------------


class ClosureAnalysisError(RuntimeError):
    """A submitted closure violates the worker-boundary contract.

    Carries the :class:`AnalysisReport` that rejected it.  The CLI maps
    this to exit code 4, mirroring how lint findings gate service
    admission.
    """

    def __init__(self, report: AnalysisReport) -> None:
        self.report = report
        super().__init__(report.render())


def _live_registries(func: Callable) -> _Registries:
    """Registries built from a live closure's captured cells and
    referenced globals, classified by their runtime types."""
    from repro.spark.accumulator import Accumulator
    from repro.spark.broadcast import Broadcast
    from repro.spark.context import SparkContext

    driver_types: Tuple[type, ...] = (SparkContext,)
    try:
        from repro.spark.sql.session import SparkSession

        driver_types = driver_types + (SparkSession,)
    except ImportError:  # pragma: no cover - session always ships
        pass

    reg = _Registries()
    code = getattr(func, "__code__", None)
    cells = getattr(func, "__closure__", None) or ()
    freevars = code.co_freevars if code is not None else ()
    bindings: List[Tuple[str, Any]] = list(zip(freevars, cells))
    globalns = getattr(func, "__globals__", {})
    # A comprehension or a nested lambda is a code object of its own
    # (before 3.12) and reads the same globals.
    codes = [code] if code is not None else []
    for nested in codes:
        codes.extend(c for c in nested.co_consts if hasattr(c, "co_names"))
        for name in nested.co_names:
            if name in globalns:
                bindings.append((name, globalns[name]))

    for name, holder in bindings:
        value = holder
        if hasattr(holder, "cell_contents"):
            try:
                value = holder.cell_contents
            except ValueError:  # empty cell
                continue
        if isinstance(value, Accumulator):
            reg.accumulator_names.add(name)
        elif isinstance(value, Broadcast):
            reg.broadcast_names.add(name)
        elif isinstance(value, driver_types):
            reg.driver_names.add(name)
    return reg


def _closure_source(func: Callable) -> Optional[Tuple[str, ast.AST, int]]:
    """(source, closure node, first line) for a live function, or None
    when the source is unavailable (builtins, REPL, C extensions)."""
    import inspect

    try:
        source = textwrap.dedent(inspect.getsource(func))
        first_line = func.__code__.co_firstlineno
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # A lambda extracted mid-expression rarely parses standalone;
        # wrapping it in a function statement recovers the AST.  The
        # wrapped text (one extra leading line) becomes the source of
        # record so line arithmetic and suppression lookups agree.
        source = "def _wrap():\n" + textwrap.indent(source, "    ")
        try:
            tree = ast.parse(source)
            first_line -= 1
        except SyntaxError:
            return None
    name = getattr(func, "__name__", "<lambda>")
    candidates: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda) and name == "<lambda>":
            candidates.append(node)
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            candidates.append(node)
    if len(candidates) != 1:
        # Ambiguous (several lambdas on one line) or missing: refuse to
        # guess rather than misattribute a finding.
        return None
    return source, candidates[0], first_line


def verify_callable(
    func: Callable, location: str = "<closure>", _depth: int = 0
) -> AnalysisReport:
    """Run the closure rules against one live function object.

    Checks the captured cells for driver-only instances (CL000) and,
    when the source is recoverable, the body for mutation of captured
    state, accumulator ``.value`` reads, and global/nonlocal writes
    (CL001/CL002/CL006).  Recurses one level into captured callables,
    because the RDD API wraps user functions in internal adapters.
    """
    report = AnalysisReport(
        analyzer=CLOSURE_RULES.analyzer, subject=location
    )
    if not callable(func) or getattr(func, "__code__", None) is None:
        return report
    registries = _live_registries(func)
    qualname = getattr(func, "__qualname__", repr(func))

    for name in sorted(registries.driver_names):
        report.diagnostics.append(
            Diagnostic(
                code="CL000",
                severity="error",
                message="closure %s captures driver-only object '%s': "
                "contexts, sessions, services, and backends never "
                "cross the worker pipe" % (qualname, name),
                location=location,
            )
        )

    located = _closure_source(func)
    if located is not None:
        source, node, first_line = located
        lines = source.splitlines()
        for finding in _closure_violations(
            node, registries, describe="submitted closure"
        ):
            diagnostic = Diagnostic(
                code=finding.code,
                severity=CLOSURE_RULES.by_code(finding.code).severity,
                message="closure %s: %s" % (qualname, finding.message),
                location=location,
                line=first_line + finding.line - 1,
                column=finding.column,
            )
            probe = Diagnostic(
                code=finding.code,
                severity=diagnostic.severity,
                message=diagnostic.message,
                location=location,
                line=finding.line,
                column=finding.column,
            )
            if not suppressed(probe, lines):
                report.diagnostics.append(diagnostic)

    if _depth < 2:
        cells = getattr(func, "__closure__", None) or ()
        for cell in cells:
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if callable(value) and getattr(value, "__code__", None):
                nested = verify_callable(
                    value, location=location, _depth=_depth + 1
                )
                report.extend(nested.diagnostics)
    return report


def verify_rdd(rdd) -> int:
    """Verify every closure in *rdd*'s lineage; the number checked.

    Raises :exc:`ClosureAnalysisError` on the first closure whose
    report carries errors (warnings never block execution).  Verified
    code objects are memoized on the context, so re-submitting the
    same lineage is free.
    """
    from repro.spark.parallel import lineage

    ctx = rdd.ctx
    # Keyed by id() while holding a strong reference: distinct closures
    # can share one code object (the RDD API's adapter lambdas), and a
    # held reference keeps the id from being recycled.
    seen = getattr(ctx, "_verified_closures", None)
    if seen is None or not isinstance(seen, dict):
        seen = {}
        ctx._verified_closures = seen
    checked = 0
    for node in lineage(rdd):
        functions: List[Callable] = []
        func = getattr(node, "func", None)
        if callable(func):
            functions.append(func)
        aggregator = getattr(node, "aggregator", None)
        if aggregator:
            functions.extend(f for f in aggregator if callable(f))
        for func in functions:
            key = id(func)
            if key in seen:
                continue
            seen[key] = func
            checked += 1
            location = "%s[%d]" % (type(node).__name__, node.id)
            report = verify_callable(func, location=location)
            ctx.metrics.incr("closures_verified")
            if report.errors:
                ctx.metrics.incr("closures_rejected")
                report.diagnostics = list(report.errors)
                raise ClosureAnalysisError(report)
    return checked


if __name__ == "__main__":
    sys.exit(main())
