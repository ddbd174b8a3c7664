"""The common engine interface and the shared distributed query driver.

Every surveyed system provides a distributed *BGP* evaluator; the
operations beyond BGPs -- FILTER, OPTIONAL, UNION, solution modifiers --
are, as the paper repeatedly notes (e.g. for S2X: "implemented with the
use of Spark API"), executed with ordinary data-parallel Spark operators.
:class:`SparkRdfEngine` therefore drives the full SPARQL algebra over RDDs
of bindings and delegates only BGP evaluation to each engine's specific
storage/partitioning/matching machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.spark.context import SparkContext
from repro.spark.faults import TaskFailedError
from repro.spark.metrics import MetricsSnapshot
from repro.spark.rdd import RDD
from repro.spark.tracing import Span
from repro.sparql.algebra import (
    AlgebraFilter,
    AlgebraJoin,
    AlgebraNode,
    AlgebraUnion,
    BGP,
    LeftJoin,
    apply_solution_modifiers,
    translate,
)
from repro.sparql.ast import (
    AskQuery,
    Query,
    TriplePattern,
    Variable,
    variables_of,
)
from repro.sparql.filtereval import passes_filter
from repro.sparql.fragments import FEATURE_BGP, features_of
from repro.sparql.parser import parse_sparql
from repro.sparql.results import Solution, SolutionSet

#: A binding inside an RDD: variable name -> term.
Binding = Dict[str, Term]


class UnsupportedQueryError(ValueError):
    """The engine's published SPARQL fragment does not cover the query."""


class Measured(NamedTuple):
    """One answer with what it cost (:meth:`SparkRdfEngine.measure`)."""

    #: What ``execute`` returned: a SolutionSet, a bool or an RDFGraph.
    answer: object
    #: Solutions of a SELECT, 0/1 for an ASK, triples of a graph answer.
    rows: int
    #: The context's counter delta across exactly this execution.
    cost: MetricsSnapshot
    #: Root spans of the execution when it was traced, else None.
    spans: Optional[List[Span]]


@dataclass(frozen=True)
class EngineProfile:
    """Machine-readable Table I/II classification of one system."""

    name: str
    citation: str
    data_model: DataModel
    abstractions: Tuple[SparkAbstraction, ...]
    query_processing: QueryProcessing
    optimization: Optimization
    partitioning: PartitioningStrategy
    sparql_features: FrozenSet[str]
    contribution: Contribution
    description: str = ""

    @property
    def sparql_fragment(self) -> str:
        """"BGP" or "BGP+" exactly as Table II prints it."""
        return "BGP" if self.sparql_features == {FEATURE_BGP} else "BGP+"


def pattern_variables(patterns: Sequence[TriplePattern]) -> List[str]:
    """All variable names across *patterns*, in first-seen order."""
    seen: List[str] = []
    for pattern in patterns:
        for variable in pattern.variables():
            if variable.name not in seen:
                seen.append(variable.name)
    return seen


def node_variables(node: AlgebraNode) -> Set[str]:
    """Variables an algebra node can bind (for static join-key planning)."""
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


def _force_rdd(rdd: RDD) -> RDD:
    """Materialize *rdd* now (cached), so its lazily charged costs land in
    the currently open trace span instead of wherever a downstream action
    happens to fire.  Downstream consumers read the cache, so nothing is
    double-charged."""
    rdd.cache()
    rdd.count()
    return rdd


def _algebra_span_args(node: AlgebraNode) -> Tuple[str, Dict[str, object]]:
    """(span kind, span attrs) describing one algebra operator."""
    if isinstance(node, BGP):
        return "bgp", {"patterns": [repr(p) for p in node.patterns]}
    if isinstance(node, (AlgebraJoin, LeftJoin)):
        shared = sorted(node_variables(node.left) & node_variables(node.right))
        kind = "leftjoin" if isinstance(node, LeftJoin) else "join"
        return kind, {"on": ",".join(shared)}
    if isinstance(node, AlgebraUnion):
        return "union", {"branches": len(node.branches)}
    if isinstance(node, AlgebraFilter):
        return "filter", {"expression": repr(node.expression)}
    return type(node).__name__.lower(), {}


def join_binding_rdds(
    left: RDD, right: RDD, shared: Sequence[str], how: str = "inner"
) -> RDD:
    """Join two RDDs of bindings on the given shared variable names.

    With no shared variables this degenerates to a cartesian product --
    exactly Spark's behaviour the paper criticizes.  When the context's
    tracer is enabled each call emits a ``bgp_step`` span -- engines call
    this once per incremental pattern join, which is exactly the per-join-
    stage granularity the S2RDF and Naacke et al. evaluations report.
    """
    tracer = left.ctx.tracer
    if not tracer.enabled:
        return hash_join_bindings(left, right, shared, how)
    with tracer.span(
        "bgp_step",
        name="cartesian" if not shared else "hash",
        on=",".join(sorted(shared)),
        how=how,
    ):
        return _force_rdd(hash_join_bindings(left, right, shared, how))


def hash_join_bindings(
    left: RDD, right: RDD, shared: Sequence[str], how: str = "inner"
) -> RDD:
    """:func:`join_binding_rdds` without the span: the keyed hash join
    (cartesian product for no shared variable) as a lazy RDD, for engines
    whose own join operators are not ``bgp_step`` stages."""
    if not shared:
        product = left.cartesian(right)
        return product.map(lambda pair: {**pair[0], **pair[1]})
    key = tuple(sorted(shared))

    def key_of(binding: Binding):
        return tuple(binding[name] for name in key)

    left_pairs = left.map(lambda b: (key_of(b), b))
    right_pairs = right.map(lambda b: (key_of(b), b))
    if how == "inner":
        joined = left_pairs.join(right_pairs)
        return joined.map(lambda kv: {**kv[1][0], **kv[1][1]})
    if how == "left":
        joined = left_pairs.leftOuterJoin(right_pairs)
        return joined.map(
            lambda kv: {**kv[1][0], **(kv[1][1] or {})}
        )
    raise ValueError("unknown join type %r" % how)


class SparkRdfEngine:
    """Abstract distributed SPARQL engine over the simulated cluster.

    Subclasses set :attr:`profile`, build their store in :meth:`_build`,
    and evaluate basic graph patterns in :meth:`_evaluate_bgp`.
    """

    profile: EngineProfile

    def __init__(self, ctx: Optional[SparkContext] = None) -> None:
        self.ctx = ctx or SparkContext()
        self._loaded = False
        #: Opt-in cost-based planner (see :mod:`repro.optimizer`).  When
        #: set, multi-pattern BGPs are ordered and physically planned by
        #: the shared optimizer instead of the engine's own heuristics;
        #: ``None`` keeps the engine's native path (the ablation baseline).
        self.optimizer = None

    def set_optimizer(self, optimizer) -> "SparkRdfEngine":
        """Attach (or detach, with ``None``) the shared cost-based planner."""
        self.optimizer = optimizer
        return self

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, graph: RDFGraph) -> "SparkRdfEngine":
        """Ingest a graph, building the engine's distributed representation."""
        self._build(graph)
        self._loaded = True
        return self

    def _build(self, graph: RDFGraph) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def supports(self, query: Query) -> bool:
        """Whether the engine's published fragment covers *query*."""
        return features_of(query) <= self.profile.sparql_features

    def execute(self, query: Union[str, Query]):
        """Run a SPARQL query.

        SELECT -> :class:`SolutionSet`, ASK -> bool, CONSTRUCT/DESCRIBE ->
        :class:`~repro.rdf.graph.RDFGraph` (Section II-B's output types).
        The WHERE clause always evaluates distributedly through the
        engine's own machinery.

        When the context carries a fault schedule, recovery (task retry,
        lineage recomputation, speculation) is transparent: answers are
        identical to the fault-free run.  Only a schedule that exhausts
        ``max_task_attempts`` escapes, as a
        :class:`~repro.spark.faults.TaskFailedError` tagged with this
        engine's name.
        """
        if isinstance(query, str):
            query = parse_sparql(query)
        if not self._loaded:
            raise RuntimeError("call load() before execute()")
        if not self.supports(query):
            missing = features_of(query) - self.profile.sparql_features
            raise UnsupportedQueryError(
                "%s supports %s only; query needs %s"
                % (
                    self.profile.name,
                    self.profile.sparql_fragment,
                    sorted(missing),
                )
            )
        try:
            tracer = self.ctx.tracer
            if not tracer.enabled:
                return self._execute_parsed(query)
            with tracer.span(
                "query",
                name=type(query).__name__.replace("Query", "").lower(),
                engine=self.profile.name,
            ):
                return self._execute_parsed(query)
        except TaskFailedError as exc:
            if exc.engine is None:
                exc.engine = self.profile.name
            raise

    def measure(
        self, query: Union[str, Query], trace: bool = False
    ) -> Measured:
        """:meth:`execute`, bracketed: the one place an answer is costed.

        ``cost`` is the counter delta across exactly the ``execute``
        call -- the query's marginal cost on a warm store.  ``trace=True``
        clears the context's tracer and records the run (``spans`` sum to
        ``cost``); its enabled state is restored either way, also when
        ``execute`` raises, which it does as for any other caller.
        """
        tracer = self.ctx.tracer
        was_enabled = tracer.enabled
        if trace:
            tracer.clear().enable()
        before = self.ctx.metrics.snapshot()
        try:
            answer = self.execute(query)
        finally:
            tracer.enabled = was_enabled
        return Measured(
            answer,
            int(answer) if isinstance(answer, bool) else len(answer),
            self.ctx.metrics.snapshot() - before,
            list(tracer.roots) if trace else None,
        )

    def _execute_parsed(self, query: Query):
        """Run an already parsed, supported query (the body of execute)."""
        from repro.sparql.algebra import (
            instantiate_template,
            translate_group,
        )
        from repro.sparql.ast import ConstructQuery, DescribeQuery

        if isinstance(query, ConstructQuery):
            bindings = self._evaluate_node(translate_group(query.where))
            solutions = [Solution(b) for b in bindings.collect()]
            return instantiate_template(query.template, solutions)
        if isinstance(query, DescribeQuery):
            return self._execute_describe(query)
        node = translate(query)
        bindings = self._evaluate_node(node)
        solutions = [Solution(b) for b in bindings.collect()]
        if isinstance(query, AskQuery):
            return bool(solutions)
        return apply_solution_modifiers(query, solutions)

    def _execute_describe(self, query):
        """DESCRIBE: resolve resources, then fetch their subject triples
        through the engine's own distributed pattern evaluation."""
        from repro.rdf.graph import RDFGraph
        from repro.rdf.triple import Triple, TripleValidityError
        from repro.sparql.algebra import translate_group

        resources = list(query.terms)
        if query.where is not None:
            bindings = self._evaluate_node(translate_group(query.where))
            for binding in bindings.collect():
                for variable in query.variables:
                    value = binding.get(variable.name)
                    if value is not None:
                        resources.append(value)
        graph = RDFGraph()
        for resource in dict.fromkeys(resources):
            try:
                pattern = TriplePattern(
                    resource, Variable("__dp"), Variable("__do")
                )
            except TripleValidityError:
                continue  # literal "resources" describe nothing
            for row in self._evaluate_bgp([pattern]).collect():
                graph.add(Triple(resource, row["__dp"], row["__do"]))
        return graph

    # ------------------------------------------------------------------
    # Algebra driver (data-parallel Spark operators)
    # ------------------------------------------------------------------

    def _evaluate_node(self, node: AlgebraNode) -> RDD:
        """Evaluate one algebra node, tracing it when the tracer is on.

        Traced evaluation materializes every operator's output inside its
        span (see :func:`_force_rdd`), which turns the lazy RDD pipeline
        into per-operator cost attribution without double-charging.
        """
        tracer = self.ctx.tracer
        if not tracer.enabled:
            return self._compute_node(node)
        kind, attrs = _algebra_span_args(node)
        with tracer.span(kind, **attrs):
            return _force_rdd(self._compute_node(node))

    def _compute_node(self, node: AlgebraNode) -> RDD:
        if isinstance(node, BGP):
            if not node.patterns:
                return self.ctx.parallelize([{}], 1)
            if self.optimizer is not None and len(node.patterns) > 1:
                return self.optimizer.execute_bgp(self, node.patterns)
            return self._evaluate_bgp(node.patterns)
        if isinstance(node, AlgebraJoin):
            left = self._evaluate_node(node.left)
            right = self._evaluate_node(node.right)
            shared = sorted(
                node_variables(node.left) & node_variables(node.right)
            )
            return join_binding_rdds(left, right, shared)
        if isinstance(node, LeftJoin):
            left = self._evaluate_node(node.left)
            right = self._evaluate_node(node.right)
            shared = sorted(
                node_variables(node.left) & node_variables(node.right)
            )
            return join_binding_rdds(left, right, shared, how="left")
        if isinstance(node, AlgebraUnion):
            result = self._evaluate_node(node.branches[0])
            for branch in node.branches[1:]:
                result = result.union(self._evaluate_node(branch))
            return result
        if isinstance(node, AlgebraFilter):
            child = self._evaluate_node(node.child)
            expression = node.expression
            return child.filter(
                lambda binding: passes_filter(expression, Solution(binding))
            )
        raise TypeError("unknown algebra node %r" % (node,))

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        """Engine-specific distributed BGP evaluation -> RDD of bindings."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(loaded=%s)" % (type(self).__name__, self._loaded)


# ----------------------------------------------------------------------
# What the engines share below the algebra: match, scan, fold
# (the join is above, the order is repro.sparql.ast.connected_order)
# ----------------------------------------------------------------------


def compile_pattern(
    pattern: Union[TriplePattern, Sequence[object]],
) -> Callable[[Sequence[object]], Optional[Binding]]:
    """*pattern* as a function from an ``(s, p, o)`` tuple to its binding
    (variable name -> value), or None when the triple does not match.

    *pattern* is a :class:`TriplePattern` or its three positions in the
    store's value space (terms or dictionary-encoded ints).  What a
    pattern asks of every triple is worked out here, once: which
    positions must equal a constant, which pairs of positions must be
    equal because a variable repeats (``?x p ?x``), and which position
    first binds each variable.  The matcher captures only those tuples,
    so it ships to workers like any other closure.
    """
    positions = (
        pattern.positions() if isinstance(pattern, TriplePattern) else pattern
    )
    constants = []
    equalities = []
    first: Dict[str, int] = {}
    for index, position in enumerate(positions):
        if not isinstance(position, Variable):
            constants.append((index, position))
        elif position.name in first:
            equalities.append((first[position.name], index))
        else:
            first[position.name] = index
    must_equal = tuple(constants)
    must_agree = tuple(equalities)
    binds = tuple(first.items())

    def match(triple: Sequence[object]) -> Optional[Binding]:
        for index, constant in must_equal:
            if constant != triple[index]:
                return None
        for index, other in must_agree:
            if triple[index] != triple[other]:
                return None
        return {name: triple[index] for name, index in binds}

    return match


def scan_triples(
    rdd: RDD,
    pattern: Union[TriplePattern, Sequence[object]],
    preserves_partitioning: bool = False,
) -> RDD:
    """The bindings of *pattern* over an RDD of ``(s, p, o)`` tuples, in
    the tuples' own value space; the pattern is compiled once and the
    matcher runs in one loop per partition."""
    return rdd.mapPartitions(
        lambda part, match=compile_pattern(pattern): [
            b for t in part if (b := match(t)) is not None
        ],
        preserves_partitioning,
    )


def fold_joins(
    units: Iterable[Any],
    evaluate: Callable[[Any], RDD],
    names: Callable[[Any], Set[str]] = variables_of,
    join: Callable[[RDD, RDD, List[str]], RDD] = join_binding_rdds,
) -> Optional[RDD]:
    """The left-deep fold every engine ends in: the first unit's bindings,
    then each next unit's joined in on the variables it shares with the
    units before it (sorted; none is the cross product).  None for no
    units.

    A unit -- a pattern, a subject star, a chain, a table row -- is
    evaluated right before its join, never ahead of it: RDDs are
    allocated in that order, and the ``rdd%d`` span names and the fault
    schedule's decisions follow from it.
    """
    result: Optional[RDD] = None
    bound: Set[str] = set()
    for unit in units:
        bindings = evaluate(unit)
        unit_names = names(unit)
        if result is None:
            result = bindings
        else:
            result = join(result, bindings, sorted(bound & unit_names))
        bound |= unit_names
    return result
