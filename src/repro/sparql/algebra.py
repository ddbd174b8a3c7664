"""SPARQL algebra: translation from the AST and a reference evaluator.

The reference evaluator runs locally against any triple source exposing the
``triples((s, p, o))`` lookup protocol of :class:`repro.rdf.graph.RDFGraph`.
It defines correct answers; every distributed engine in ``repro.systems``
is validated against it.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.rdf.terms import Term
from repro.sparql.ast import (
    AskQuery,
    FilterExpr,
    FilterPattern,
    GroupGraphPattern,
    OptionalPattern,
    Query,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    Variable,
)
from repro.sparql.filtereval import passes_filter
from repro.sparql.results import Solution, SolutionSet


# ----------------------------------------------------------------------
# Algebra nodes
# ----------------------------------------------------------------------


class AlgebraNode:
    """Base class for algebra operators."""

    def _children(self) -> List["AlgebraNode"]:
        return []


class BGP(AlgebraNode):
    """A basic graph pattern: a conjunction of triple patterns."""

    def __init__(self, patterns: List[TriplePattern]) -> None:
        self.patterns = list(patterns)


class AlgebraJoin(AlgebraNode):
    def __init__(self, left: AlgebraNode, right: AlgebraNode) -> None:
        self.left = left
        self.right = right

    def _children(self):
        return [self.left, self.right]


class LeftJoin(AlgebraNode):
    """OPTIONAL: keep left solutions even without a compatible right."""

    def __init__(self, left: AlgebraNode, right: AlgebraNode) -> None:
        self.left = left
        self.right = right

    def _children(self):
        return [self.left, self.right]


class AlgebraUnion(AlgebraNode):
    def __init__(self, branches: List[AlgebraNode]) -> None:
        self.branches = list(branches)

    def _children(self):
        return self.branches


class AlgebraFilter(AlgebraNode):
    def __init__(self, expression: FilterExpr, child: AlgebraNode) -> None:
        self.expression = expression
        self.child = child

    def _children(self):
        return [self.child]


def pattern_variables(patterns: Sequence[TriplePattern]) -> List[str]:
    """All variable names across *patterns*, in first-seen order."""
    seen: List[str] = []
    for pattern in patterns:
        for variable in pattern.variables():
            if variable.name not in seen:
                seen.append(variable.name)
    return seen


def node_variables(node: AlgebraNode) -> Set[str]:
    """Variables an algebra node can bind (join keys, cartesian checks)."""
    if isinstance(node, BGP):
        return set(pattern_variables(node.patterns))
    if isinstance(node, (AlgebraJoin, LeftJoin)):
        return node_variables(node.left) | node_variables(node.right)
    if isinstance(node, AlgebraUnion):
        out: Set[str] = set()
        for branch in node.branches:
            out |= node_variables(branch)
        return out
    if isinstance(node, AlgebraFilter):
        return node_variables(node.child)
    raise TypeError("unknown algebra node %r" % (node,))


# ----------------------------------------------------------------------
# Translation
# ----------------------------------------------------------------------


def translate_group(group: GroupGraphPattern) -> AlgebraNode:
    """Standard SPARQL group translation.

    Adjacent triple patterns accumulate into BGPs; OPTIONAL becomes
    LeftJoin with what came before; group-level FILTERs apply to the whole
    group's result.
    """
    current: Optional[AlgebraNode] = None
    bgp_buffer: List[TriplePattern] = []
    filters: List[FilterExpr] = []

    def flush_bgp() -> None:
        nonlocal current
        if bgp_buffer:
            node = BGP(list(bgp_buffer))
            bgp_buffer.clear()
            current = node if current is None else AlgebraJoin(current, node)

    for element in group.elements:
        if isinstance(element, TriplePattern):
            bgp_buffer.append(element)
        elif isinstance(element, FilterPattern):
            filters.append(element.expression)
        elif isinstance(element, OptionalPattern):
            flush_bgp()
            if current is None:
                current = BGP([])
            current = LeftJoin(current, translate_group(element.pattern))
        elif isinstance(element, UnionPattern):
            flush_bgp()
            union = AlgebraUnion(
                [translate_group(branch) for branch in element.alternatives]
            )
            current = union if current is None else AlgebraJoin(current, union)
        elif isinstance(element, GroupGraphPattern):
            flush_bgp()
            sub = translate_group(element)
            current = sub if current is None else AlgebraJoin(current, sub)
        else:
            raise TypeError("unknown pattern element %r" % (element,))
    flush_bgp()
    if current is None:
        current = BGP([])
    for expression in filters:
        current = AlgebraFilter(expression, current)
    return current


def translate(query: Query) -> AlgebraNode:
    """Algebra tree for the query's WHERE clause."""
    return translate_group(query.where)


# ----------------------------------------------------------------------
# Reference evaluation
# ----------------------------------------------------------------------


def match_pattern(
    source, pattern: TriplePattern, solution: Solution
) -> Iterator[Solution]:
    """Extend *solution* with matches of one pattern against *source*."""

    def resolve(position) -> Optional[Term]:
        if isinstance(position, Variable):
            return solution.get(position)
        return position

    lookup = (
        resolve(pattern.subject),
        resolve(pattern.predicate),
        resolve(pattern.object),
    )
    for triple in source.triples(lookup):
        extended = solution
        consistent = True
        for position, value in zip(
            pattern.positions(), triple.as_tuple()
        ):
            if isinstance(position, Variable):
                bound = extended.get(position)
                if bound is None:
                    extended = extended.bind(position, value)
                elif bound != value:
                    consistent = False
                    break
        if consistent:
            yield extended


def evaluate_bgp(
    source, patterns: Iterable[TriplePattern]
) -> List[Solution]:
    solutions = [Solution()]
    for pattern in patterns:
        next_solutions: List[Solution] = []
        for solution in solutions:
            next_solutions.extend(match_pattern(source, pattern, solution))
        solutions = next_solutions
        if not solutions:
            break
    return solutions


def evaluate_node(node: AlgebraNode, source) -> List[Solution]:
    if isinstance(node, BGP):
        return evaluate_bgp(source, node.patterns)
    if isinstance(node, AlgebraJoin):
        left = evaluate_node(node.left, source)
        right = evaluate_node(node.right, source)
        out = []
        for l in left:
            for r in right:
                if l.compatible(r):
                    out.append(l.merge(r))
        return out
    if isinstance(node, LeftJoin):
        left = evaluate_node(node.left, source)
        right = evaluate_node(node.right, source)
        out = []
        for l in left:
            matched = False
            for r in right:
                if l.compatible(r):
                    out.append(l.merge(r))
                    matched = True
            if not matched:
                out.append(l)
        return out
    if isinstance(node, AlgebraUnion):
        out = []
        for branch in node.branches:
            out.extend(evaluate_node(branch, source))
        return out
    if isinstance(node, AlgebraFilter):
        return [
            s
            for s in evaluate_node(node.child, source)
            if passes_filter(node.expression, s)
        ]
    raise TypeError("unknown algebra node %r" % (node,))


def apply_solution_modifiers(
    query: SelectQuery, solutions: Iterable[Mapping[str, Term]]
) -> SolutionSet:
    """ORDER BY -> projection -> DISTINCT -> OFFSET/LIMIT, per the spec.

    *solutions* are the collected binding mappings (an engine's dicts,
    the evaluator's ``Solution`` objects); each leaves as one tuple.
    """
    ordered = list(solutions)
    if query.order_by:
        # SPARQL leaves tie order unspecified; pin it to the canonical
        # full-row order (the sorts below are stable) so every engine and
        # every physical plan serializes ORDER BY results byte-identically.
        ordered.sort(
            key=lambda s: tuple(
                (name, term.sort_key())
                for name, term in sorted(s.items(), key=lambda kv: kv[0])
            )
        )
    for variable, ascending in reversed(query.order_by):
        name = variable.name
        ordered.sort(
            key=lambda s: (
                (term := s.get(name)) is not None,
                term.sort_key() if term is not None else None,
            ),
            reverse=not ascending,
        )
    result = SolutionSet(query.projected())
    names = result.variables
    result.rows = [tuple([s.get(n) for n in names]) for s in ordered]
    if query.distinct:
        result = result.distinct()
    if query.offset:
        result.rows = result.rows[query.offset :]
    if query.limit is not None:
        result.rows = result.rows[: query.limit]
    return result


def instantiate_template(
    template: List[TriplePattern], solutions: Iterable[Solution]
):
    """CONSTRUCT template instantiation -> a new RDF graph.

    Instantiations with unbound variables or terms in invalid positions
    (e.g. a literal subject) are skipped, per the specification.
    """
    from repro.rdf.graph import RDFGraph
    from repro.rdf.triple import Triple, TripleValidityError

    graph = RDFGraph()
    for solution in solutions:
        for pattern in template:
            values = []
            ok = True
            for position in pattern.positions():
                if isinstance(position, Variable):
                    bound = solution.get(position)
                    if bound is None:
                        ok = False
                        break
                    values.append(bound)
                else:
                    values.append(position)
            if not ok:
                continue
            try:
                graph.add(Triple(*values))
            except TripleValidityError:
                continue
    return graph


def describe_resources(source, resources: Iterable):
    """The concise description of resources: their subject triples."""
    from repro.rdf.graph import RDFGraph

    graph = RDFGraph()
    for resource in resources:
        for triple in source.triples((resource, None, None)):
            graph.add(triple)
    return graph


def evaluate(query: Query, source):
    """Evaluate a query against a triple source.

    Returns a :class:`SolutionSet` for SELECT, a boolean for ASK, and an
    :class:`~repro.rdf.graph.RDFGraph` for CONSTRUCT/DESCRIBE -- the four
    output types of Section II-B.
    """
    from repro.sparql.ast import ConstructQuery, DescribeQuery

    if isinstance(query, ConstructQuery):
        solutions = evaluate_node(translate_group(query.where), source)
        return instantiate_template(query.template, solutions)
    if isinstance(query, DescribeQuery):
        resources = list(query.terms)
        if query.where is not None:
            for solution in evaluate_node(
                translate_group(query.where), source
            ):
                for variable in query.variables:
                    bound = solution.get(variable)
                    if bound is not None:
                        resources.append(bound)
        return describe_resources(source, dict.fromkeys(resources))
    node = translate(query)
    solutions = evaluate_node(node, source)
    if isinstance(query, AskQuery):
        return bool(solutions)
    return apply_solution_modifiers(query, solutions)
