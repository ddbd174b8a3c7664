"""SPARQL abstract syntax: variables, triple patterns, group graph patterns,
filter expressions and query forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple, Union

from repro.rdf.terms import Term


class Variable:
    """A SPARQL variable (``?x`` / ``$x``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __setattr__(self, attr, value):
        raise AttributeError("Variable is immutable")

    def __reduce__(self):
        # The raising __setattr__ breaks default slots unpickling.
        return (Variable, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))

    def __repr__(self) -> str:
        return "?%s" % self.name


#: A position in a triple pattern: bound term or variable.
PatternTerm = Union[Term, Variable]


@dataclass(frozen=True)
class TriplePattern:
    """A triple pattern: each position may be a term or a variable."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def positions(self) -> Tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> List[Variable]:
        return [p for p in self.positions() if isinstance(p, Variable)]

    def bound_count(self) -> int:
        """How many positions are constants (S2RDF orders by this)."""
        return sum(1 for p in self.positions() if not isinstance(p, Variable))

    def __repr__(self) -> str:
        def show(p: PatternTerm) -> str:
            return repr(p) if isinstance(p, Variable) else p.n3()

        return "%s %s %s" % tuple(show(p) for p in self.positions())


def variables_of(unit) -> Set[str]:
    """The variable names of a triple pattern, or of a group of them (a
    subject star, a chain)."""
    if isinstance(unit, TriplePattern):
        return {v.name for v in unit.variables()}
    return {v.name for pattern in unit for v in pattern.variables()}


def connected_order(
    units: Sequence[Any], names: Callable[[Any], Set[str]] = variables_of
) -> List[Any]:
    """*units* reordered so that each one after the first shares a
    variable with an earlier one where possible, avoiding needless
    cartesian products: the first stays first, then always the earliest
    remaining unit that connects, else the earliest remaining.

    A unit is whatever *names* maps to variable names -- a pattern or a
    group of patterns by default, an index into a pattern list with
    ``names=lambda i: variables_of(patterns[i])``.
    """
    remaining = [(unit, names(unit)) for unit in units]
    first, first_names = remaining.pop(0)
    ordered = [first]
    bound = set(first_names)
    while remaining:
        index = next(
            (i for i, (_, later) in enumerate(remaining) if bound & later), 0
        )
        chosen, chosen_names = remaining.pop(index)
        ordered.append(chosen)
        bound |= chosen_names
    return ordered


def semi_join_kinds(pattern: TriplePattern, other: TriplePattern) -> List[str]:
    """The ExtVP kinds under which *other*'s predicate reduces *pattern*'s
    vertical partition: per shared variable (by name, sorted) the
    subject/object slot it takes in *pattern*, then the one in *other*
    -- ``"s" + "o"`` is kind ``so``.  The subject slot wins for a
    variable a pattern repeats; a variable in a predicate slot joins no
    columns, and object-object is no kind: ExtVP keeps no such tables.
    :func:`repro.stats.catalog.pair_columns` reads a kind back."""

    def slot(of: TriplePattern, name: str) -> Optional[str]:
        for column, term in (("s", of.subject), ("o", of.object)):
            if isinstance(term, Variable) and term.name == name:
                return column
        return None

    kinds = []
    for name in sorted(variables_of(pattern) & variables_of(other)):
        mine, theirs = slot(pattern, name), slot(other, name)
        if mine and theirs and (mine, theirs) != ("o", "o"):
            kinds.append(mine + theirs)
    return kinds


# ----------------------------------------------------------------------
# Filter expressions
# ----------------------------------------------------------------------


class FilterExpr:
    """Base class for FILTER constraint expressions."""


@dataclass(frozen=True)
class VarExpr(FilterExpr):
    variable: Variable


@dataclass(frozen=True)
class TermExpr(FilterExpr):
    term: Term


@dataclass(frozen=True)
class Comparison(FilterExpr):
    op: str  # = != < <= > >=
    left: FilterExpr
    right: FilterExpr


@dataclass(frozen=True)
class BooleanExpr(FilterExpr):
    op: str  # and | or
    left: FilterExpr
    right: FilterExpr


@dataclass(frozen=True)
class NotExpr(FilterExpr):
    child: FilterExpr


@dataclass(frozen=True)
class Arithmetic(FilterExpr):
    op: str  # + - * /
    left: FilterExpr
    right: FilterExpr


@dataclass(frozen=True)
class FunctionCall(FilterExpr):
    """Builtins: REGEX, BOUND, ISIRI, ISURI, ISLITERAL, ISBLANK, STR, LANG."""

    name: str
    args: Tuple[FilterExpr, ...]


@dataclass(frozen=True)
class InExpr(FilterExpr):
    needle: FilterExpr
    options: Tuple[FilterExpr, ...]
    negated: bool = False


# ----------------------------------------------------------------------
# Group graph patterns
# ----------------------------------------------------------------------


class PatternElement:
    """Base class for elements inside a group graph pattern."""


@dataclass
class GroupGraphPattern(PatternElement):
    """A ``{ ... }`` block: triples, filters, optionals, unions, subgroups."""

    elements: List[PatternElement] = field(default_factory=list)

    def triple_patterns(self) -> List[TriplePattern]:
        """All triple patterns anywhere inside this group (recursively)."""
        out: List[TriplePattern] = []
        for element in self.elements:
            if isinstance(element, TriplePattern):
                out.append(element)
            elif isinstance(element, GroupGraphPattern):
                out.extend(element.triple_patterns())
            elif isinstance(element, OptionalPattern):
                out.extend(element.pattern.triple_patterns())
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    out.extend(alternative.triple_patterns())
        return out

    def filters(self) -> List["FilterPattern"]:
        return [e for e in self.elements if isinstance(e, FilterPattern)]


@dataclass
class FilterPattern(PatternElement):
    expression: FilterExpr


@dataclass
class OptionalPattern(PatternElement):
    pattern: GroupGraphPattern


@dataclass
class UnionPattern(PatternElement):
    alternatives: List[GroupGraphPattern]


# ----------------------------------------------------------------------
# Query forms
# ----------------------------------------------------------------------


@dataclass
class SelectQuery:
    """SELECT: projection, pattern and solution modifiers (Section II-B)."""

    variables: Optional[List[Variable]]  # None means SELECT *
    where: GroupGraphPattern
    distinct: bool = False
    order_by: List[Tuple[Variable, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0

    def projected(self) -> List[Variable]:
        """The projection, resolving ``*`` to all visible variables."""
        if self.variables is not None:
            return list(self.variables)
        seen: List[Variable] = []
        for pattern in self.where.triple_patterns():
            for variable in pattern.variables():
                if not variable.name.startswith("__") and variable not in seen:
                    seen.append(variable)
        return seen


@dataclass
class AskQuery:
    """ASK: a yes/no answer (one of the output types of Section II-B)."""

    where: GroupGraphPattern


@dataclass
class ConstructQuery:
    """CONSTRUCT: "construction of new triples from these values".

    *template* triples are instantiated once per solution of *where*;
    instantiations with unbound variables or invalid positions (literal
    subject etc.) are skipped, per the SPARQL specification.

    ``limit``/``offset`` page the *constructed graph*, not the WHERE
    solutions: the wire protocol sorts the instantiated triples into
    their canonical N-Triples order and slices that total order, so
    pages at a fixed graph version are disjoint and exhaustive
    (docs/FEDERATION.md; the federated harvester depends on this).
    Engines never see the slice -- it is applied at the serialization
    boundary (:func:`repro.server.protocol.canonical_result`).
    """

    template: List[TriplePattern]
    where: GroupGraphPattern
    limit: Optional[int] = None
    offset: int = 0


@dataclass
class DescribeQuery:
    """DESCRIBE: "descriptions of resources".

    Resources are either given directly (*terms*) or found by evaluating
    *where* and collecting the bindings of *variables*.  The description
    produced is the concise bounded form: all triples with the resource
    as subject.
    """

    variables: List[Variable]
    terms: List[Term]
    where: Optional[GroupGraphPattern] = None


Query = Union[SelectQuery, AskQuery, ConstructQuery, DescribeQuery]


def where_patterns(query: Query) -> List[TriplePattern]:
    """The WHERE clause's triple patterns; none when there is no WHERE
    (``DESCRIBE <iri>``), which then reads as ``ASK {}`` does."""
    if query.where is None:
        return []
    return query.where.triple_patterns()
