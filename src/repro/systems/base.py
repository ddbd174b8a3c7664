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

from repro._gc import paused_collector
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
from repro.spark.kernels import generate
from repro.spark.metrics import Header, MetricsSnapshot
from repro.spark.rdd import RDD
from repro.spark.rows import join_rows, rows, union_rows
from repro.spark.tracing import Span
from repro.sparql.algebra import (
    AlgebraFilter,
    AlgebraJoin,
    AlgebraNode,
    AlgebraUnion,
    BGP,
    LeftJoin,
    apply_solution_modifiers,
    node_variables,
    pattern_variables,
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
    """Join two RDDs of rows on the given shared variable names.

    With no shared variables this degenerates to a cartesian product --
    exactly Spark's behaviour the paper criticizes.  When the context's
    tracer is enabled each call emits a ``bgp_step`` span -- engines call
    this once per incremental pattern join, which is exactly the per-join-
    stage granularity the S2RDF and Naacke et al. evaluations report.
    """
    tracer = left.ctx.tracer
    with tracer.span(
        "bgp_step",
        name="cartesian" if not shared else "hash",
        on=",".join(sorted(shared)),
        how=how,
    ):
        joined = join_rows(left, right, shared, how)
        tracer.materialize(joined)
    return joined


def solution_of(header: Sequence[str], row: Sequence[Term]) -> Solution:
    """One row as the :class:`Solution` it stands for: its bound names."""
    return Solution(
        {name: value for name, value in zip(header, row) if value is not None}
    )


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
        with paused_collector():
            self._build(graph)
        self._loaded = True
        return self

    def _build(self, graph: RDFGraph) -> None:
        raise NotImplementedError

    def apply_delta(self, delta, graph: RDFGraph) -> int:
        """Bring a loaded store from *graph* minus *delta* (anything with
        ``added`` / ``removed`` triples) to *graph*; returns the records
        rewritten.  The default is a reload: every record."""
        self.load(graph)
        return len(graph)

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
            with self.ctx.tracer.span(
                "query",
                name=type(query).__name__.replace("Query", "").lower(),
                engine=self.profile.name,
            ), paused_collector():
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
            found = self._evaluate_node(translate_group(query.where))
            solutions = [
                solution_of(found.header, row) for row in found.collect()
            ]
            return instantiate_template(query.template, solutions)
        if isinstance(query, DescribeQuery):
            return self._execute_describe(query)
        found = self._evaluate_node(translate(query))
        collected = found.collect()
        if isinstance(query, AskQuery):
            return bool(collected)
        return apply_solution_modifiers(query, collected, found.header)

    def _execute_describe(self, query):
        """DESCRIBE: resolve resources, then fetch their subject triples
        through the engine's own distributed pattern evaluation."""
        from repro.rdf.graph import RDFGraph
        from repro.rdf.triple import Triple, TripleValidityError
        from repro.sparql.algebra import translate_group

        resources = list(query.terms)
        if query.where is not None:
            found = self._evaluate_node(translate_group(query.where))
            for row in found.collect():
                solution = solution_of(found.header, row)
                for variable in query.variables:
                    if solution.get(variable) is not None:
                        resources.append(solution.get(variable))
        graph = RDFGraph()
        for resource in dict.fromkeys(resources):
            try:
                pattern = TriplePattern(
                    resource, Variable("__dp"), Variable("__do")
                )
            except TripleValidityError:
                continue  # literal "resources" describe nothing
            found = self._evaluate_bgp([pattern])
            p, o = found.header.index("__dp"), found.header.index("__do")
            for row in found.collect():
                graph.add(Triple(resource, row[p], row[o]))
        return graph

    # ------------------------------------------------------------------
    # Algebra driver (data-parallel Spark operators)
    # ------------------------------------------------------------------

    def _evaluate_node(self, node: AlgebraNode) -> RDD:
        """Evaluate one algebra node, tracing it when the tracer is on.

        Traced evaluation materializes every operator's output inside its
        span (see :meth:`~repro.spark.tracing.Tracer.materialize`), which
        turns the lazy RDD pipeline into per-operator cost attribution
        without double-charging.
        """
        tracer = self.ctx.tracer
        # The pattern reprs and variable sets are built only for a span.
        kind, attrs = _algebra_span_args(node) if tracer.enabled else ("", {})
        with tracer.span(kind, **attrs):
            rdd = self._compute_node(node)
            tracer.materialize(rdd)
        return rdd

    def _compute_node(self, node: AlgebraNode) -> RDD:
        if isinstance(node, BGP):
            if not node.patterns:
                return self._empty_row()
            if self.optimizer is not None and len(node.patterns) > 1:
                return self.optimizer.execute_bgp(self, node.patterns)
            return self._evaluate_bgp(node.patterns)
        if isinstance(node, (AlgebraJoin, LeftJoin)):
            left = self._evaluate_node(node.left)
            right = self._evaluate_node(node.right)
            shared = sorted(
                node_variables(node.left) & node_variables(node.right)
            )
            how = "left" if isinstance(node, LeftJoin) else "inner"
            return join_binding_rdds(left, right, shared, how)
        if isinstance(node, AlgebraUnion):
            result = self._evaluate_node(node.branches[0])
            for branch in node.branches[1:]:
                result = union_rows(result, self._evaluate_node(branch))
            return result
        if isinstance(node, AlgebraFilter):
            child = self._evaluate_node(node.child)
            expression, header = node.expression, child.header
            kept = child.filter(
                lambda row: passes_filter(expression, solution_of(header, row))
            )
            return rows(kept, header)
        raise TypeError("unknown algebra node %r" % (node,))

    def _no_rows(self, patterns: Sequence[TriplePattern]) -> RDD:
        """No rows, over *patterns*' variables (a constant the data lacks)."""
        return rows(self.ctx.emptyRDD(), Header(pattern_variables(patterns)))

    def _empty_row(self) -> RDD:
        """The one row that binds nothing (no pattern at all)."""
        return rows(self.ctx.parallelize([()], 1), Header())

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        """Engine-specific distributed BGP evaluation -> RDD of rows over
        its ``header``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(loaded=%s)" % (type(self).__name__, self._loaded)


# ----------------------------------------------------------------------
# What the engines share below the algebra: match, scan, fold
# (the join is above, the order is repro.sparql.ast.connected_order)
# ----------------------------------------------------------------------


#: A record layout: where a scanned record ``t`` keeps its subject,
#: predicate and object, as source text.  An entry that is not text is
#: the position's value in every record of the store.
TRIPLE = ("t[0]", "t[1]", "t[2]")
#: The layout of a GraphX ``Edge``, ``EdgeTriplet`` or ``EdgeContext``:
#: the predicate is the edge attribute.
EDGE = ("t.src", "t.attr", "t.dst")


def _show(position: object) -> str:
    """A pattern position or a layout entry as a kernel's name shows it."""
    return position.n3() if isinstance(position, Term) else str(position)


def compile_pattern(
    pattern: Union[TriplePattern, Sequence[object]],
    layout: Sequence[object] = TRIPLE,
) -> Callable[[Any], Optional[tuple]]:
    """*pattern* as ``match(record) -> row or None`` (the values of its
    variables, in first-occurrence order: ``match.header``) for probes of
    a few candidates, and ``match.scan(partition) -> [row, ...]`` for
    everything else: one comprehension with the tests and the row written
    inline, no Python call per record.

    *pattern* is a :class:`TriplePattern` or its three positions in the
    store's value space (terms or dictionary-encoded ints); *layout*
    says where a record keeps them.  What a pattern asks of every record
    is worked out here, once per pattern per query: which positions must
    equal a constant, which must be equal because a variable repeats
    (``?x p ?x``), and which first binds each variable.  A term constant
    is compared hash slot first (``==`` runs on a hash match or on a term
    nobody hashed yet), so to terms only.  Both functions come from one
    condition and one display; their globals hold the constants, the
    constants' hashes and nothing else.
    """
    positions = (
        pattern.positions() if isinstance(pattern, TriplePattern) else pattern
    )
    namespace: Dict[str, object] = {}
    tests: List[str] = []
    binds: Dict[str, str] = {}
    for index, (position, at) in enumerate(zip(positions, layout)):
        fixed = not isinstance(at, str)
        if fixed and not isinstance(position, Variable):
            if position != at:  # decided here, once for the store
                tests.append("False")
        elif isinstance(position, Variable):
            if fixed:
                namespace["f%d" % index] = at
                at = "f%d" % index
            if position.name in binds:
                tests.append("%s == %s" % (binds[position.name], at))
            else:
                binds[position.name] = at
        else:
            namespace["c%d" % index] = position
            test = "{at} == c{i}"
            if isinstance(position, Term):
                namespace["h%d" % index] = hash(position)
                test = "((h := {at}._hash) == h{i} or h is None) and " + test
            tests.append(test.format(at=at, i=index))
    row = "(%s)" % "".join("%s, " % at for at in binds.values())
    condition = " and ".join(tests) or "True"
    label = " ".join(map(_show, positions))
    if layout is not TRIPLE:
        label += " over " + ", ".join(map(_show, layout))
    source = (
        "scan = lambda part: [{row} for t in part if {condition}]\n"
        "match = lambda t: {row} if {condition} else None\n"
    ).format(row=row, condition=condition)
    made = generate(label, source, namespace)
    match = made["match"]
    match.scan = made["scan"]
    match.header = Header(binds)
    return match


def scan_triples(
    rdd: RDD,
    pattern: Union[TriplePattern, Sequence[object]],
    preserves_partitioning: bool = False,
    layout: Sequence[object] = TRIPLE,
) -> RDD:
    """The rows of *pattern* over an RDD of records laid out as *layout*
    says (``(s, p, o)`` tuples by default), in the records' own value
    space: its compiled scan, once per partition."""
    match = compile_pattern(pattern, layout)
    return rows(
        rdd.mapPartitions(match.scan, preserves_partitioning), match.header
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
