"""Column expressions: the tiny expression language DataFrames evaluate.

``col("price") > lit(10)`` builds an expression tree.  A DataFrame
operator compiles its trees once, with :class:`ColumnCompiler`, into a
per-partition kernel over the row tuple's positions; ``Expression.eval``
over a mapping of column names is the reference semantics the compiled
text reproduces, and what Catalyst's constant folding runs.  The
Catalyst-style optimizer in :mod:`repro.spark.sql.catalyst` rewrites these
same trees (constant folding, predicate splitting), so the node set is
deliberately small and closed.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from repro.spark.kernels import generate


class TreeNode:
    """What a column expression and a logical-plan node share.

    A node class names, once, the attributes that hold its children (one
    node or a list of nodes, of its own kind); walking and rebuilding are
    written here and nowhere else -- Catalyst's ``TreeNode``.  Nodes are
    never changed in place.
    """

    child_fields: Tuple[str, ...] = ()

    def children(self) -> list:
        found: list = []
        for name in self.child_fields:
            value = getattr(self, name)
            if isinstance(value, list):
                found.extend(value)
            else:
                found.append(value)
        return found

    def map_children(self, rewrite: Callable[..., Any], *args: Any) -> Any:
        """This node over ``rewrite(child, *args)`` of each child."""
        if not self.child_fields:
            return self
        # A shallow copy without copy.copy's pickle-protocol detour (4x this).
        node = object.__new__(type(self))
        fields = node.__dict__
        fields.update(self.__dict__)
        for name in self.child_fields:
            value = fields[name]
            fields[name] = (
                [rewrite(child, *args) for child in value]
                if isinstance(value, list)
                else rewrite(value, *args)
            )
        return node


class Expression(TreeNode):
    """Base class for column expression nodes."""

    def eval(self, row: Dict[str, Any]) -> Any:
        """Evaluate against a mapping of column name -> value."""
        raise NotImplementedError

    def references(self) -> FrozenSet[str]:
        """Column names this expression reads."""
        refs: FrozenSet[str] = frozenset()
        for child in self.children():
            refs |= child.references()
        return refs

    # -- operator sugar -------------------------------------------------

    def _binary(self, op: str, other: object) -> "BinaryOp":
        return BinaryOp(op, self, _wrap(other))

    def __eq__(self, other: object):  # type: ignore[override]
        return self._binary("=", other)

    def __ne__(self, other: object):  # type: ignore[override]
        return self._binary("!=", other)

    def __lt__(self, other: object) -> "BinaryOp":
        return self._binary("<", other)

    def __le__(self, other: object) -> "BinaryOp":
        return self._binary("<=", other)

    def __gt__(self, other: object) -> "BinaryOp":
        return self._binary(">", other)

    def __ge__(self, other: object) -> "BinaryOp":
        return self._binary(">=", other)

    def __and__(self, other: object) -> "BinaryOp":
        return self._binary("and", other)

    def __or__(self, other: object) -> "BinaryOp":
        return self._binary("or", other)

    def __add__(self, other: object) -> "BinaryOp":
        return self._binary("+", other)

    def __sub__(self, other: object) -> "BinaryOp":
        return self._binary("-", other)

    def __mul__(self, other: object) -> "BinaryOp":
        return self._binary("*", other)

    def __truediv__(self, other: object) -> "BinaryOp":
        return self._binary("/", other)

    def __invert__(self) -> "UnaryOp":
        return UnaryOp("not", self)

    def isNull(self) -> "UnaryOp":
        return UnaryOp("isnull", self)

    def isNotNull(self) -> "UnaryOp":
        return UnaryOp("isnotnull", self)

    def isin(self, *values: object) -> "InList":
        flat = values[0] if len(values) == 1 and isinstance(values[0], (list, tuple, set)) else values
        return InList(self, [_wrap(v) for v in flat])

    def alias(self, name: str) -> "Alias":
        return Alias(self, name)

    def __hash__(self) -> int:  # expression trees are used in sets/dicts
        return hash(repr(self))

    def same_as(self, other: "Expression") -> bool:
        """Structural equality (``==`` is overloaded to build BinaryOp)."""
        return repr(self) == repr(other)


def _wrap(value: object) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


class ColumnRef(Expression):
    """Reference to a named column."""

    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, row: Dict[str, Any]) -> Any:
        if self.name not in row:
            raise KeyError(
                "unknown column %r; available: %s"
                % (self.name, sorted(row.keys()))
            )
        return row[self.name]

    def references(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return "col(%r)" % self.name


class Literal(Expression):
    """A constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def eval(self, row: Dict[str, Any]) -> Any:
        return self.value

    def __repr__(self) -> str:
        return "lit(%r)" % (self.value,)


_BINARY_IMPLS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class BinaryOp(Expression):
    """Binary operator; ``and``/``or`` short-circuit and are null-tolerant."""

    child_fields = ("left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _BINARY_IMPLS and op not in ("and", "or"):
            raise ValueError("unknown binary operator %r" % op)
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row: Dict[str, Any]) -> Any:
        if self.op == "and":
            return bool(self.left.eval(row)) and bool(self.right.eval(row))
        if self.op == "or":
            return bool(self.left.eval(row)) or bool(self.right.eval(row))
        left = self.left.eval(row)
        right = self.right.eval(row)
        if left is None or right is None:
            # SQL three-valued logic collapsed to "unknown is false/None".
            return None if self.op in ("+", "-", "*", "/") else False
        return _BINARY_IMPLS[self.op](left, right)

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.left, self.op, self.right)


class UnaryOp(Expression):
    """``not``, ``isnull`` and ``isnotnull``."""

    child_fields = ("child",)

    def __init__(self, op: str, child: Expression) -> None:
        if op not in ("not", "isnull", "isnotnull", "neg"):
            raise ValueError("unknown unary operator %r" % op)
        self.op = op
        self.child = child

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.child.eval(row)
        if self.op == "not":
            return not bool(value)
        if self.op == "isnull":
            return value is None
        if self.op == "isnotnull":
            return value is not None
        return -value

    def __repr__(self) -> str:
        return "%s(%r)" % (self.op, self.child)


class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    child_fields = ("needle", "options")

    def __init__(self, needle: Expression, options: Sequence[Expression]) -> None:
        self.needle = needle
        self.options = list(options)

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.needle.eval(row)
        return any(value == option.eval(row) for option in self.options)

    def __repr__(self) -> str:
        return "in(%r, %r)" % (self.needle, self.options)


class LikeExpr(Expression):
    """SQL LIKE with ``%`` (any run) and ``_`` (one char) wildcards."""

    child_fields = ("child",)

    def __init__(self, child: Expression, pattern: str) -> None:
        import re

        self.child = child
        self.pattern = pattern
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        self._regex = re.compile("^%s$" % regex)

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.child.eval(row)
        if value is None:
            return False
        return self._regex.match(str(value)) is not None

    def __repr__(self) -> str:
        return "like(%r, %r)" % (self.child, self.pattern)


class Alias(Expression):
    """Renames the value an expression produces in a projection."""

    child_fields = ("child",)

    def __init__(self, child: Expression, name: str) -> None:
        self.child = child
        self.name = name

    def eval(self, row: Dict[str, Any]) -> Any:
        return self.child.eval(row)

    def __repr__(self) -> str:
        return "alias(%r, %r)" % (self.child, self.name)


def col(name: str) -> ColumnRef:
    """Build a column reference, mirroring ``pyspark.sql.functions.col``."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Build a literal, mirroring ``pyspark.sql.functions.lit``."""
    return Literal(value)


def output_name(expr: Expression, default: Optional[str] = None) -> str:
    """The column name a projection of *expr* produces."""
    if isinstance(expr, Alias):
        return expr.name
    if isinstance(expr, ColumnRef):
        return expr.name
    if default is not None:
        return default
    return repr(expr)


def split_conjuncts(expr: Expression) -> list:
    """Flatten nested ANDs into a list of conjuncts (for pushdown)."""
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild a single predicate from a list of conjuncts."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("and", result, conjunct)
    return result


# ----------------------------------------------------------------------
# Compiling expressions into kernels
# ----------------------------------------------------------------------

#: Each comparison and arithmetic operator as Python spells it.
_PYTHON_OPS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*", "/": "/",
}
_ARITHMETIC = frozenset("+-*/")


def _is_atom(text: str) -> bool:
    """Whether *text* is a row position, a name or ``None`` (any other
    text is parenthesised): a value that is free to read twice and cannot
    raise."""
    return not text.startswith("(")


def tuple_display(items: Iterable[str]) -> str:
    """Source text of the tuple whose items are the texts *items*."""
    listed = list(items)
    return "(%s%s)" % (", ".join(listed), "," if len(listed) == 1 else "")


class ColumnCompiler:
    """Column expressions as source text over a row tuple ``v``.

    *columns* names the row's positions: ``col("b")`` over ``["a", "b"]``
    is ``v[1]``.  A literal is a constant of :attr:`namespace`, the
    globals the kernel runs with.  The text reproduces
    :meth:`Expression.eval` exactly: a comparison with a ``None`` side is
    ``False`` and arithmetic with one is ``None``, both sides evaluated
    first; ``and``, ``or`` and ``not`` apply ``bool`` and short-circuit;
    ``IN`` compares the options in order up to the first equal one.  A
    value that is tested and then used is bound once, ``(a0 := ...)``.
    """

    def __init__(self, columns: Sequence[str]) -> None:
        self.positions = {name: index for index, name in enumerate(columns)}
        self.namespace: Dict[str, object] = {}
        self._names = 0

    def _fresh(self, prefix: str) -> str:
        name = "%s%d" % (prefix, self._names)
        self._names += 1
        return name

    def _constant(self, value: object) -> str:
        name = self._fresh("c")
        self.namespace[name] = value
        return name

    def _bound(self, text: str) -> Tuple[str, str]:
        """``(reuse, first)``: the text to read *text*'s value again, and
        the text of its first read, which binds it."""
        if _is_atom(text):
            return text, text
        name = self._fresh("a")
        return name, "(%s := %s)" % (name, text)

    def value(self, expr: Expression) -> str:
        """Source text of ``expr.eval(row)``."""
        if isinstance(expr, ColumnRef):
            position = self.positions.get(expr.name)
            if position is None:
                raise KeyError(
                    "unknown column %r; available: %s"
                    % (expr.name, sorted(self.positions))
                )
            return "v[%d]" % position
        if isinstance(expr, Literal):
            return "None" if expr.value is None else self._constant(expr.value)
        if isinstance(expr, Alias):
            return self.value(expr.child)
        if isinstance(expr, BinaryOp):
            if expr.op in ("and", "or"):
                return "(True if %s else False)" % self.truth(expr)
            return self._binary(expr)
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                return "(not %s)" % self.truth(expr.child)
            child = self.value(expr.child)
            if expr.op == "neg":
                return "(-%s)" % child
            return "(%s is %sNone)" % (
                child, "not " if expr.op == "isnotnull" else ""
            )
        if isinstance(expr, InList):
            needle, first = self._bound(self.value(expr.needle))
            if not expr.options:
                return "(%s, False)[1]" % first
            tests = [
                "%s == %s" % (needle if index else first, self.value(option))
                for index, option in enumerate(expr.options)
            ]
            return "(True if %s else False)" % " or ".join(tests)
        if isinstance(expr, LikeExpr):
            child, first = self._bound(self.value(expr.child))
            regex = self._constant(expr._regex)
            return "(False if %s is None else %s.match(str(%s)) is not None)" % (
                first, regex, child
            )
        raise TypeError("cannot compile %r" % (expr,))

    def _binary(self, expr: BinaryOp) -> str:
        sides = [self.value(expr.left), self.value(expr.right)]
        # A constant (``c``) is never None; any other side is tested.
        tested = [side for side in sides if side[0] != "c"]
        if all(map(_is_atom, sides)):
            nulls = " or ".join("%s is None" % side for side in tested)
        else:
            # Both sides are evaluated before the test, as eval does.
            bound = [self._bound(side) for side in sides]
            sides = [reuse for reuse, _first in bound]
            nulls = " | ".join(
                "(%s is None)" % first
                for (_reuse, first), side in zip(bound, sides)
                if side[0] != "c"
            )
        applied = "%s %s %s" % (sides[0], _PYTHON_OPS[expr.op], sides[1])
        if not nulls:
            return "(%s)" % applied
        null = "None" if expr.op in _ARITHMETIC else "False"
        return "(%s if %s else %s)" % (null, nulls, applied)

    def truth(self, expr: Expression) -> str:
        """Source text whose truth is ``bool(expr.eval(row))``: for a
        filter's condition, with no ``bool`` applied where the test
        applies it anyway."""
        if isinstance(expr, BinaryOp) and expr.op in ("and", "or"):
            return "(%s %s %s)" % (
                self.truth(expr.left), expr.op, self.truth(expr.right)
            )
        if isinstance(expr, Alias):
            return self.truth(expr.child)
        return self.value(expr)

    def sort_key(self, expr: Expression) -> Callable[[Tuple[Any, ...]], Any]:
        """``lambda v: (value is None, value)`` for *expr*'s value: a row's
        key that orders nulls last."""
        reuse, first = self._bound(self.value(expr))
        text = "(%s is None, %s)" % (first, reuse)
        return generate(
            "key " + text, "key = lambda v: %s\n" % text, self.namespace
        )["key"]
