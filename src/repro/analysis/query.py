"""Front 1: the SPARQL/plan linter (rules ``QL000`` .. ``QL006``).

Every rule decides a property of a query *statically* -- from the parsed
AST, the translated algebra, the statistics catalog, and the optimizer's
plan -- without executing anything.  The serving layer runs this linter
at admission (:class:`repro.server.service.QueryService`), the CLI
exposes it as ``python -m repro lint``, and ``repro explain`` embeds the
findings above its cost trees.

Rules (catalog in ``docs/ANALYSIS.md``):

``QL000`` (error)
    The query text does not parse.
``QL001`` (error)
    Cartesian product: a BGP whose patterns split into multiple
    variable-connected components, or a join whose sides share no
    variable.  Every pairing of the sides' rows is materialized.
``QL002`` (error)
    Projection of a variable no triple pattern can ever bind.
``QL003`` (error)
    Unsatisfiable filter: a variable-free constraint that is always
    false (or always errors), or a conjunction whose per-variable
    constraints contradict (two equalities, equality vs. inequality,
    an empty numeric range).
``QL004`` (error / warning)
    A constant predicate the statistics catalog has never seen: zero
    matches at the served graph version.  An error in a mandatory
    position (the whole query is provably empty); a warning inside
    OPTIONAL or UNION branches.
``QL005`` (error)
    The plan's estimated cost already exceeds the request's cost-unit
    deadline: the query is doomed before the first partition is scanned.
``QL006`` (warning)
    Broadcast-threshold misuse: the configured threshold is at least the
    dataset size, so every join build side -- including full scans --
    would be broadcast to every executor.

``QL004``-``QL006`` need a :class:`~repro.stats.catalog.StatsCatalog`;
``QL005`` additionally needs a deadline.  Without those inputs the rules
pass silently (static analysis never guesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.core import (
    AnalysisReport,
    Diagnostic,
    RuleSet,
    allowed_codes,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.planner import DEFAULT_BROADCAST_THRESHOLD, JoinPlanner
from repro.sparql.algebra import (
    AlgebraJoin,
    AlgebraNode,
    BGP,
    node_variables,
    translate_group,
)
from repro.sparql.ast import (
    Arithmetic,
    BooleanExpr,
    Comparison,
    FilterExpr,
    FunctionCall,
    GroupGraphPattern,
    InExpr,
    NotExpr,
    OptionalPattern,
    Query,
    SelectQuery,
    TermExpr,
    TriplePattern,
    UnionPattern,
    VarExpr,
    Variable,
)
from repro.sparql.filtereval import (
    FilterEvalError,
    effective_boolean_value,
    evaluate_expression,
)
from repro.sparql.parser import parse_sparql
from repro.sparql.results import Solution
from repro.stats.catalog import StatsCatalog

QUERY_RULES = RuleSet("query-lint")


@dataclass
class LintContext:
    """Everything the rules may consult for one query."""

    subject: str
    text: str
    query: Optional[Query] = None
    parse_error: str = ""
    catalog: Optional[StatsCatalog] = None
    deadline: Optional[int] = None
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD
    mode: str = "dp"

    @property
    def algebra(self) -> Optional[AlgebraNode]:
        if self.query is None or self.query.where is None:
            return None
        return translate_group(self.query.where)


# ----------------------------------------------------------------------
# Shared walkers
# ----------------------------------------------------------------------


def _walk_algebra(node: AlgebraNode) -> Iterator[AlgebraNode]:
    yield node
    for child in node._children():
        for sub in _walk_algebra(child):
            yield sub


def _components(patterns: List[TriplePattern]) -> List[List[int]]:
    """Variable-connectivity components among patterns that carry
    variables (all-constant patterns are existence checks, not joins)."""
    indexed = [
        (i, {v.name for v in p.variables()})
        for i, p in enumerate(patterns)
        if p.variables()
    ]
    components: List[Tuple[Set[int], Set[str]]] = []
    for index, names in indexed:
        touching = [c for c in components if c[1] & names]
        merged_members = {index}
        merged_names = set(names)
        for members, cnames in touching:
            merged_members |= members
            merged_names |= cnames
            components.remove((members, cnames))
        components.append((merged_members, merged_names))
    return [sorted(members) for members, _ in components]


def _walk_patterns(
    group: GroupGraphPattern, mandatory: bool = True
) -> Iterator[Tuple[TriplePattern, bool]]:
    """(pattern, is-mandatory) for every triple pattern in *group*."""
    for element in group.elements:
        if isinstance(element, TriplePattern):
            yield element, mandatory
        elif isinstance(element, GroupGraphPattern):
            for item in _walk_patterns(element, mandatory):
                yield item
        elif isinstance(element, OptionalPattern):
            for item in _walk_patterns(element.pattern, False):
                yield item
        elif isinstance(element, UnionPattern):
            for branch in element.alternatives:
                for item in _walk_patterns(branch, False):
                    yield item


def _walk_filter_groups(
    group: GroupGraphPattern,
) -> Iterator[List[FilterExpr]]:
    """The FILTER expressions of each group (one list per ``{ }`` scope;
    filters of one group conjoin, so contradictions are scoped here)."""
    own = [f.expression for f in group.filters()]
    if own:
        yield own
    for element in group.elements:
        if isinstance(element, GroupGraphPattern):
            for item in _walk_filter_groups(element):
                yield item
        elif isinstance(element, OptionalPattern):
            for item in _walk_filter_groups(element.pattern):
                yield item
        elif isinstance(element, UnionPattern):
            for branch in element.alternatives:
                for item in _walk_filter_groups(branch):
                    yield item


def _expression_variables(expr: FilterExpr) -> Set[str]:
    if isinstance(expr, VarExpr):
        return {expr.variable.name}
    if isinstance(expr, (Comparison, BooleanExpr, Arithmetic)):
        return _expression_variables(expr.left) | _expression_variables(
            expr.right
        )
    if isinstance(expr, NotExpr):
        return _expression_variables(expr.child)
    if isinstance(expr, FunctionCall):
        out: Set[str] = set()
        for arg in expr.args:
            out |= _expression_variables(arg)
        return out
    if isinstance(expr, InExpr):
        out = _expression_variables(expr.needle)
        for option in expr.options:
            out |= _expression_variables(option)
        return out
    return set()


def _conjuncts(expr: FilterExpr) -> Iterator[FilterExpr]:
    if isinstance(expr, BooleanExpr) and expr.op == "and":
        for side in (expr.left, expr.right):
            for conjunct in _conjuncts(side):
                yield conjunct
    else:
        yield expr


def _var_term_comparison(
    expr: FilterExpr,
) -> Optional[Tuple[str, str, object]]:
    """Decompose ``?x <op> term`` / ``term <op> ?x`` into (name, op, term)."""
    if not isinstance(expr, Comparison):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    if isinstance(expr.left, VarExpr) and isinstance(expr.right, TermExpr):
        return (expr.left.variable.name, expr.op, expr.right.term)
    if isinstance(expr.left, TermExpr) and isinstance(expr.right, VarExpr):
        return (expr.right.variable.name, flip[expr.op], expr.left.term)
    return None


def _numeric(term: object) -> Optional[Union[int, float]]:
    to_python = getattr(term, "to_python", None)
    if to_python is None:
        return None
    value = to_python()
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


def _contradiction(constraints: List[Tuple[str, object]]) -> Optional[str]:
    """A human-readable contradiction among one variable's constraints,
    or None when they are satisfiable (conservatively)."""
    equals: List[object] = []
    not_equals: List[object] = []
    lower: Optional[Tuple[Union[int, float], bool]] = None  # (value, strict)
    upper: Optional[Tuple[Union[int, float], bool]] = None
    for op, term in constraints:
        if op == "=":
            equals.append(term)
        elif op == "!=":
            not_equals.append(term)
        else:
            value = _numeric(term)
            if value is None:
                continue
            if op in (">", ">="):
                bound = (value, op == ">")
                if lower is None or bound > lower:
                    lower = bound
            else:
                bound = (value, op == "<")
                if upper is None or (bound[0], not bound[1]) < (
                    upper[0],
                    not upper[1],
                ):
                    upper = bound
    for position, first in enumerate(equals):
        for second in equals[position + 1 :]:
            if first != second:
                return "= %s and = %s cannot both hold" % (
                    _show(first),
                    _show(second),
                )
    for eq in equals:
        if any(eq == ne for ne in not_equals):
            return "= %s contradicts != %s" % (_show(eq), _show(eq))
        value = _numeric(eq)
        if value is not None:
            if lower is not None and (
                value < lower[0] or (lower[1] and value == lower[0])
            ):
                return "= %s violates the lower bound %s" % (
                    _show(eq),
                    _show_bound(lower, ">"),
                )
            if upper is not None and (
                value > upper[0] or (upper[1] and value == upper[0])
            ):
                return "= %s violates the upper bound %s" % (
                    _show(eq),
                    _show_bound(upper, "<"),
                )
    if lower is not None and upper is not None:
        empty = lower[0] > upper[0] or (
            lower[0] == upper[0] and (lower[1] or upper[1])
        )
        if empty:
            return "the range %s and %s is empty" % (
                _show_bound(lower, ">"),
                _show_bound(upper, "<"),
            )
    return None


def _show(term: object) -> str:
    n3 = getattr(term, "n3", None)
    return n3() if n3 is not None else repr(term)


def _show_bound(bound: Tuple[Union[int, float], bool], op: str) -> str:
    value, strict = bound
    return "%s %s" % (op if strict else op + "=", value)


def _bgp_patterns(context: LintContext) -> List[List[TriplePattern]]:
    algebra = context.algebra
    if algebra is None:
        return []
    return [
        node.patterns
        for node in _walk_algebra(algebra)
        if isinstance(node, BGP) and node.patterns
    ]


def _planner(context: LintContext) -> JoinPlanner:
    return JoinPlanner(
        CardinalityEstimator(context.catalog),
        mode=context.mode,
        broadcast_threshold=context.broadcast_threshold,
    )


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------


@QUERY_RULES.rule("QL000", "error", "query text does not parse")
def _check_parse(context: LintContext, found):
    if context.parse_error:
        yield found(
            "parse error: %s" % context.parse_error, context.subject
        )


@QUERY_RULES.rule("QL001", "error", "cartesian product join")
def _check_cartesian(context: LintContext, found):
    algebra = context.algebra
    if algebra is None:
        return
    for node in _walk_algebra(algebra):
        if isinstance(node, BGP):
            components = _components(node.patterns)
            if len(components) > 1:
                yield found(
                    "BGP splits into %d variable-disjoint components "
                    "(pattern groups %s): every pairing of their rows is "
                    "materialized"
                    % (
                        len(components),
                        "; ".join(
                            ",".join(str(i) for i in c) for c in components
                        ),
                    ),
                    context.subject,
                )
        elif isinstance(node, AlgebraJoin):
            left = node_variables(node.left)
            right = node_variables(node.right)
            if left and right and not (left & right):
                yield found(
                    "join sides share no variable ({%s} vs {%s}): the join "
                    "degenerates to a cartesian product"
                    % (
                        ",".join(sorted(left)),
                        ",".join(sorted(right)),
                    ),
                    context.subject,
                )


@QUERY_RULES.rule("QL002", "error", "projection of a never-bound variable")
def _check_unbound_projection(context: LintContext, found):
    query = context.query
    if not isinstance(query, SelectQuery) or query.variables is None:
        return
    bindable = {
        v.name
        for pattern in query.where.triple_patterns()
        for v in pattern.variables()
    }
    for variable in query.variables:
        if variable.name not in bindable:
            yield found(
                "?%s is projected but no triple pattern binds it: the "
                "column is unbound in every solution" % variable.name,
                context.subject,
            )


@QUERY_RULES.rule("QL003", "error", "unsatisfiable filter")
def _check_unsatisfiable_filter(context: LintContext, found):
    query = context.query
    if query is None or query.where is None:
        return
    for expressions in _walk_filter_groups(query.where):
        # (a) Variable-free constraints evaluate now, once, for good.
        for expr in expressions:
            if _expression_variables(expr):
                continue
            try:
                value = effective_boolean_value(
                    evaluate_expression(expr, Solution())
                )
            except FilterEvalError as exc:
                yield found(
                    "constant filter always errors (%s): it rejects every "
                    "solution" % exc,
                    context.subject,
                )
                continue
            if not value:
                yield found(
                    "constant filter is always false: it rejects every "
                    "solution",
                    context.subject,
                )
        # (b) Conjoined var-vs-constant constraints, per variable.
        by_variable: Dict[str, List[Tuple[str, object]]] = {}
        for expr in expressions:
            for conjunct in _conjuncts(expr):
                decomposed = _var_term_comparison(conjunct)
                if decomposed is not None:
                    name, op, term = decomposed
                    by_variable.setdefault(name, []).append((op, term))
        for name in sorted(by_variable):
            reason = _contradiction(by_variable[name])
            if reason is not None:
                yield found(
                    "filter constraints on ?%s contradict: %s"
                    % (name, reason),
                    context.subject,
                )


@QUERY_RULES.rule("QL004", "error", "predicate unknown to the catalog")
def _check_unknown_predicate(context: LintContext, found):
    query, catalog = context.query, context.catalog
    if query is None or query.where is None or catalog is None:
        return
    seen: Set[Tuple[str, bool]] = set()
    for pattern, mandatory in _walk_patterns(query.where):
        if isinstance(pattern.predicate, Variable):
            continue
        n3 = pattern.predicate.n3()
        if catalog.predicate_stats(n3) is not None:
            continue
        if (n3, mandatory) in seen:
            continue
        seen.add((n3, mandatory))
        message = (
            "predicate %s matches no triple at graph version %d"
            % (n3, catalog.version)
        )
        if mandatory:
            yield found(
                message + ": the query is provably empty", context.subject
            )
        else:
            yield Diagnostic(
                code="QL004",
                severity="warning",
                message=message + " (inside OPTIONAL/UNION)",
                location=context.subject,
            )


@QUERY_RULES.rule("QL005", "error", "estimated cost exceeds the deadline")
def _check_cost_over_deadline(context: LintContext, found):
    if context.catalog is None or context.deadline is None:
        return
    bgps = _bgp_patterns(context)
    if not bgps:
        return
    planner = _planner(context)
    estimate = 0.0
    for patterns in bgps:
        plan = planner.plan(patterns)
        for position, step in enumerate(plan.steps):
            estimate += step.est_build
            if position:
                estimate += step.est_rows
    units = int(estimate)
    if units > context.deadline:
        yield found(
            "estimated plan cost %d unit(s) exceeds the %d-unit deadline: "
            "the query would be killed mid-scan"
            % (units, context.deadline),
            context.subject,
        )


@QUERY_RULES.rule("QL006", "warning", "broadcast threshold misuse")
def _check_broadcast_threshold(context: LintContext, found):
    catalog = context.catalog
    if catalog is None or catalog.triples <= 0:
        return
    if context.broadcast_threshold < catalog.triples:
        return
    if not any(len(patterns) > 1 for patterns in _bgp_patterns(context)):
        return
    yield found(
        "broadcast threshold %d covers the whole dataset (%d triples): "
        "every join build side, including full scans, would be shipped to "
        "every executor"
        % (context.broadcast_threshold, catalog.triples),
        context.subject,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def lint_query(
    query: Query,
    subject: str = "query",
    catalog: Optional[StatsCatalog] = None,
    deadline: Optional[int] = None,
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
    mode: str = "dp",
) -> AnalysisReport:
    """Lint an already-parsed query."""
    context = LintContext(
        subject=subject,
        text="",
        query=query,
        catalog=catalog,
        deadline=deadline,
        broadcast_threshold=broadcast_threshold,
        mode=mode,
    )
    return AnalysisReport(
        analyzer=QUERY_RULES.analyzer, subject=subject
    ).extend(QUERY_RULES.run(context))


def lint_text(
    text: str,
    subject: str = "query",
    catalog: Optional[StatsCatalog] = None,
    deadline: Optional[int] = None,
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
    mode: str = "dp",
) -> AnalysisReport:
    """Parse and lint query text; parse failures become ``QL000``.

    ``#`` starts a comment in SPARQL, so the shared suppression syntax
    works verbatim: an ``# repro: allow(QL001)`` comment line anywhere
    in the query suppresses that code.  Query findings carry no line
    anchors (they describe the whole plan), so the allow is file-level
    -- unlike the per-line semantics of the source analyzers.
    """
    context = LintContext(
        subject=subject,
        text=text,
        catalog=catalog,
        deadline=deadline,
        broadcast_threshold=broadcast_threshold,
        mode=mode,
    )
    try:
        context.query = parse_sparql(text)
    except ValueError as exc:
        context.parse_error = str(exc) or "unparseable query"
    allowed: Set[str] = set()
    for line in text.splitlines():
        allowed |= allowed_codes(line)
    return AnalysisReport(
        analyzer=QUERY_RULES.analyzer, subject=subject
    ).extend(
        d for d in QUERY_RULES.run(context) if d.code not in allowed
    )
