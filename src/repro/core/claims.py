"""The paper's performance claims as a ready-made :class:`Assessment`.

``build_default_assessment()`` registers a compact executable experiment
for every qualitative claim in Sections III-IV (the full-size versions
live in ``benchmarks/``; these run in seconds on one-university data so
the assessment is usable as a library call or from ``python -m repro
claims``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.assessment import Assessment, ClaimResult
from repro.rdf.graph import RDFGraph
from repro.spark.context import SparkContext


def _lubm():
    from repro.data.lubm import LubmGenerator

    return LubmGenerator(num_universities=1, seed=42).generate()


def _query_cost(engine, query_text):
    return engine.measure(query_text).cost


def _claim_star_local() -> ClaimResult:
    from repro.data.lubm import LubmGenerator
    from repro.systems import HaqwaEngine

    engine = HaqwaEngine(SparkContext(4))
    engine.load(_lubm())
    star = _query_cost(engine, LubmGenerator.query_star())
    linear = _query_cost(engine, LubmGenerator.query_linear())
    return ClaimResult(
        "star-queries-local",
        holds=star.shuffle_records == 0 and linear.shuffle_records > 0,
        evidence={
            "star_shuffle": star.shuffle_records,
            "linear_shuffle": linear.shuffle_records,
        },
    )


def _claim_workload_aware() -> ClaimResult:
    from repro.data.workload import QueryWorkload
    from repro.sparql.parser import parse_sparql
    from repro.systems import HaqwaEngine

    query = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?s ?p ?d WHERE { ?s lubm:advisor ?p . ?p lubm:worksFor ?d }"
    )
    workload = QueryWorkload()
    workload.add("hot", parse_sparql(query), frequency=10.0)
    engine = HaqwaEngine(SparkContext(4), workload=workload)
    engine.load(_lubm())
    cost = _query_cost(engine, query)
    return ClaimResult(
        "workload-aware-allocation",
        holds=cost.shuffle_records == 0 and engine.replicated_triples > 0,
        evidence={
            "shuffle": cost.shuffle_records,
            "replicas": engine.replicated_triples,
        },
    )


def _claim_vertical_partitioning() -> ClaimResult:
    from repro.data.lubm import LubmGenerator
    from repro.systems import NaiveEngine, SparqlgxEngine

    graph = _lubm()
    query = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?s ?o WHERE { ?s lubm:advisor ?o }"
    )
    vertical = SparqlgxEngine(SparkContext(4))
    vertical.load(graph)
    naive = NaiveEngine(SparkContext(4))
    naive.load(graph)
    vertical_scans = _query_cost(vertical, query).records_scanned
    naive_scans = _query_cost(naive, query).records_scanned
    return ClaimResult(
        "vertical-partitioning-bounded-predicates",
        holds=vertical_scans * 2 < naive_scans,
        evidence={
            "vertical_scans": vertical_scans,
            "naive_scans": naive_scans,
        },
    )


def _claim_extvp() -> ClaimResult:
    from repro.rdf.terms import URI
    from repro.rdf.triple import Triple
    from repro.systems import S2RdfEngine

    ex = "http://example.org/"
    graph = RDFGraph()
    for i in range(100):
        graph.add(Triple(URI(ex + "a%d" % i), URI(ex + "likes"), URI(ex + "L%d" % i)))
        subject = "a%d" % i if i < 10 else "b%d" % i
        graph.add(Triple(URI(ex + subject), URI(ex + "follows"), URI(ex + "F%d" % i)))
    query = (
        "PREFIX ex: <http://example.org/>\n"
        "SELECT ?x ?y ?z WHERE { ?x ex:likes ?y . ?x ex:follows ?z }"
    )
    reduced = S2RdfEngine(SparkContext(1))
    reduced.load(graph)
    plain = S2RdfEngine(SparkContext(1), build_extvp=False)
    plain.load(graph)
    with_extvp = _query_cost(reduced, query).join_comparisons
    without = _query_cost(plain, query).join_comparisons
    return ClaimResult(
        "extvp-semi-join-reduction",
        holds=with_extvp * 5 <= without,
        evidence={"comparisons_extvp": with_extvp, "comparisons_vp": without},
    )


def _claim_hybrid_joins() -> ClaimResult:
    from repro.data.lubm import LubmGenerator
    from repro.systems import HybridEngine, JoinStrategy

    graph = _lubm()
    query = LubmGenerator.query_star()
    costs = {}
    for strategy in (JoinStrategy.RDD, JoinStrategy.HYBRID):
        engine = HybridEngine(SparkContext(4), strategy=strategy)
        engine.load(graph)
        costs[strategy] = _query_cost(engine, query)
    return ClaimResult(
        "hybrid-join-strategy",
        holds=costs[JoinStrategy.HYBRID].shuffle_remote_records
        < costs[JoinStrategy.RDD].shuffle_remote_records,
        evidence={
            "hybrid_remote": costs[JoinStrategy.HYBRID].shuffle_remote_records,
            "rdd_remote": costs[JoinStrategy.RDD].shuffle_remote_records,
        },
    )


def _claim_pruning() -> ClaimResult:
    from repro.data.lubm import LubmGenerator
    from repro.systems import GraphFramesEngine

    graph = _lubm()
    engine = GraphFramesEngine(SparkContext(4))
    engine.load(graph)
    engine.execute(
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?s ?o WHERE { ?s lubm:advisor ?o }"
    )
    return ClaimResult(
        "local-search-space-pruning",
        holds=engine.last_pruned_edge_count * 2 < len(graph),
        evidence={
            "pruned_edges": engine.last_pruned_edge_count,
            "total_edges": len(graph),
        },
    )


def _claim_mesg_index() -> ClaimResult:
    from repro.systems import SparkRdfMesgEngine

    engine = SparkRdfMesgEngine(SparkContext(4))
    engine.load(_lubm())
    engine.execute(
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        "SELECT ?s ?c WHERE { ?s rdf:type lubm:GraduateStudent . "
        "?s lubm:takesCourse ?c }"
    )
    reads = dict(engine.last_index_reads)
    return ClaimResult(
        "mesg-class-indexes",
        holds="CR" in reads and "REL" not in reads,
        evidence=reads,
    )


def _claim_encoding() -> ClaimResult:
    from repro.rdf.encoding import encoded_volume_ratio

    ratio = encoded_volume_ratio(list(_lubm()))
    return ClaimResult(
        "integer-encoding-volume",
        holds=ratio > 1.5,
        evidence={"volume_ratio": round(ratio, 2)},
    )


def _claim_lineage_recovery() -> ClaimResult:
    from repro.spark.faults import FaultRule, FaultScheduler

    def recovery_cost(checkpoint_depth: Optional[int]) -> int:
        """Tasks re-executed after losing the tail of a 12-map chain."""
        sc = SparkContext(2, faults=FaultScheduler())
        rdd = sc.parallelize(range(64), 2)
        for depth in range(1, 13):
            rdd = rdd.map(lambda x: x + 1)
            if depth == checkpoint_depth:
                rdd = rdd.checkpoint()
        tail = rdd.cache()
        tail.count()  # fault-free materialization
        sc.faults.add_rule(FaultRule("lose", stage=tail.id, times=2))
        before = sc.metrics.snapshot()
        tail.count()  # both partitions lost -> lineage recomputation
        return (sc.metrics.snapshot() - before).recompute_comparisons

    uncached = recovery_cost(None)
    checkpointed = recovery_cost(10)
    return ClaimResult(
        "lineage-recovery-cost",
        holds=0 < checkpointed < uncached,
        evidence={
            "recovery_tasks_uncached_chain": uncached,
            "recovery_tasks_checkpointed_chain": checkpointed,
        },
    )


def _claim_columnar() -> ClaimResult:
    from repro.spark.sql.session import SparkSession

    graph = _lubm()
    session = SparkSession(default_parallelism=4)
    df = session.createDataFrame(
        [(t.subject.n3(), t.predicate.n3(), t.object.n3()) for t in graph],
        ["s", "p", "o"],
    )
    factor = df.storage_bytes(columnar=False) / df.storage_bytes(
        columnar=True
    )
    return ClaimResult(
        "columnar-compression",
        holds=factor > 1.5,
        evidence={"compression_factor": round(factor, 2)},
    )


def _workload_queries():
    from repro.data.lubm import LubmGenerator

    return {
        "star": LubmGenerator.query_star(),
        "linear": LubmGenerator.query_linear(),
        "snowflake": LubmGenerator.query_snowflake(),
        "complex": LubmGenerator.query_complex(),
    }


def _bgp_nodes(node):
    """Every multi-pattern BGP in an algebra tree (depth-first)."""
    from repro.sparql.algebra import BGP

    found = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, BGP):
            if len(current.patterns) > 1:
                found.append(current)
        stack.extend(current._children())
    return found


def _claim_cost_ordering() -> ClaimResult:
    from repro.optimizer import Optimizer
    from repro.sparql.algebra import translate
    from repro.sparql.parser import parse_sparql
    from repro.systems import SparqlgxEngine

    graph = _lubm()
    queries = _workload_queries()

    def run(mode: str, enable_broadcast: bool):
        optimizer = Optimizer.for_graph(
            graph, mode=mode, enable_broadcast=enable_broadcast
        )
        costs = {}
        for name, text in queries.items():
            engine = SparqlgxEngine(SparkContext(4))
            engine.load(graph)
            engine.set_optimizer(optimizer)
            costs[name] = _query_cost(engine, text)
        return costs

    # Ordering: with broadcast disabled on both sides (so only the join
    # order differs), the DP plan never performs more comparisons than
    # the parse-order plan.
    dp = run("dp", enable_broadcast=False)
    parse_order = run("parse", enable_broadcast=False)
    ordered = all(
        dp[name].join_comparisons <= parse_order[name].join_comparisons
        for name in queries
    )

    # Strategy rule: over every planned join step of the workload,
    # broadcast is chosen exactly when the estimated build side is under
    # the threshold.
    optimizer = Optimizer.for_graph(graph)
    threshold = optimizer.planner.broadcast_threshold
    rule_holds, broadcasts = True, 0
    for text in queries.values():
        for bgp in _bgp_nodes(translate(parse_sparql(text))):
            for step in optimizer.plan_bgp(bgp.patterns).steps[1:]:
                if step.strategy == "cartesian":
                    continue
                if (step.strategy == "broadcast") != (
                    step.est_build < threshold
                ):
                    rule_holds = False
                broadcasts += step.strategy == "broadcast"

    # And broadcasting wins: same DP order, shuffle volume only drops.
    dp_broadcast = run("dp", enable_broadcast=True)
    shuffled_off = sum(dp[name].shuffle_records for name in queries)
    shuffled_on = sum(dp_broadcast[name].shuffle_records for name in queries)
    return ClaimResult(
        "cost-based-join-ordering",
        holds=ordered
        and rule_holds
        and broadcasts > 0
        and shuffled_on < shuffled_off,
        evidence={
            "dp_comparisons": sum(
                dp[name].join_comparisons for name in queries
            ),
            "parse_comparisons": sum(
                parse_order[name].join_comparisons for name in queries
            ),
            "broadcast_rule_holds": rule_holds,
            "broadcast_steps": broadcasts,
            "shuffle_no_broadcast": shuffled_off,
            "shuffle_with_broadcast": shuffled_on,
        },
    )


def _claim_estimator_accuracy() -> ClaimResult:
    from repro.explain import run_traced
    from repro.optimizer import Optimizer, collect_q_errors
    from repro.systems import SparqlgxEngine

    graph = _lubm()
    optimizer = Optimizer.for_graph(graph)
    cap = 100.0
    per_shape = {}
    for name, text in _workload_queries().items():
        run = run_traced(
            graph, text, SparqlgxEngine, optimizer=optimizer
        )
        errors = [error for _strategy, error in collect_q_errors(run.spans)]
        per_shape["max_q_error_%s" % name] = (
            round(max(errors), 2) if errors else None
        )
    holds = all(
        value is not None and value <= cap for value in per_shape.values()
    )
    evidence = dict(per_shape)
    evidence["cap"] = cap
    return ClaimResult("estimator-accuracy", holds=holds, evidence=evidence)


def build_default_assessment() -> Assessment:
    """All Section III-IV performance claims, compact and executable."""
    assessment = Assessment()
    assessment.add(
        "star-queries-local",
        "hash-based partitioning on triple subjects ensures that "
        "star-shaped queries are performed locally",
        "IV-A1 (HAQWA)",
        _claim_star_local,
    )
    assessment.add(
        "workload-aware-allocation",
        "data are allocated according to the analysis of frequent queries "
        "... to prevent network communication",
        "IV-A1 (HAQWA)",
        _claim_workload_aware,
    )
    assessment.add(
        "vertical-partitioning-bounded-predicates",
        "the memory footprint is reduced and the response time is "
        "minimized when queries have bounded predicates",
        "IV-A1 (SPARQLGX)",
        _claim_vertical_partitioning,
    )
    assessment.add(
        "extvp-semi-join-reduction",
        "if we store data using ExtVP, only 10 comparisons are needed",
        "IV-A2 (S2RDF)",
        _claim_extvp,
    )
    assessment.add(
        "hybrid-join-strategy",
        "a hybrid strategy ... takes into account an existing data "
        "partitioning scheme to avoid useless data transfer",
        "IV-A3 ([21])",
        _claim_hybrid_joins,
    )
    assessment.add(
        "local-search-space-pruning",
        "all triples in the dataset that do not match BGPs predicates get "
        "discarded ... a much smaller search space",
        "IV-B2 ([4])",
        _claim_pruning,
    )
    assessment.add(
        "mesg-class-indexes",
        "the authors avoid reading many unnecessary data, and rdf:type "
        "triple patterns can be removed",
        "IV-B3 (SparkRDF)",
        _claim_mesg_index,
    )
    assessment.add(
        "integer-encoding-volume",
        "an encoding of string values to integer ones ... minimizes data "
        "volume",
        "IV-A1 (HAQWA)",
        _claim_encoding,
    )
    assessment.add(
        "lineage-recovery-cost",
        "if a partition is lost, the RDD has enough information about "
        "how it was derived ... to recompute just that partition",
        "III (RDD fault tolerance)",
        _claim_lineage_recovery,
    )
    assessment.add(
        "cost-based-join-ordering",
        "statistics on data (counts of all distinct subjects, predicates "
        "and objects) ... are used to reorder the join execution",
        "IV-A1 (SPARQLGX) / III (broadcast joins)",
        _claim_cost_ordering,
    )
    assessment.add(
        "estimator-accuracy",
        "cardinality estimates from one-pass statistics stay within a "
        "bounded factor of the true intermediate result sizes",
        "III-IV (cost-based optimization)",
        _claim_estimator_accuracy,
    )
    assessment.add(
        "columnar-compression",
        "columnar compressed in-memory representation ... up to 10 times "
        "larger data sets than RDD can be managed",
        "IV-A3 (DataFrames)",
        _claim_columnar,
    )
    return assessment
