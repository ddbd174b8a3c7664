"""CLM-JOIN: the broadcast-vs-partitioned join study of [21] (Section IV-A3).

Paper claims measured here:
 * the RDD strategy "lacks efficiency when a broadcast join is cheaper,
   e.g. join a small with a large data set" and "always reads the entire
   data set for each triple pattern";
 * the DataFrame strategy "prefers a single broadcast join to a sequence
   of partitioned joins if the dataset is smaller than a given threshold"
   but "does not consider data partitioning";
 * the hybrid strategy "takes into account an existing data partitioning
   scheme to avoid useless data transfer" and wins via a greedy cost-based
   mix of both join algorithms;
 * naive SQL translation degenerates to cartesian products on disconnected
   patterns.

Measured: shuffle/remote/broadcast costs of all four strategies across
query shapes, and the build-side size sweep locating the crossover where
broadcasting beats partitioning.
"""

from repro.bench import format_series, format_table
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.systems import HybridEngine, JoinStrategy

from conftest import report

PREFIX = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)
QUERIES = {
    "star": LubmGenerator.query_star(),
    "linear": LubmGenerator.query_linear(),
    "snowflake": LubmGenerator.query_snowflake(),
}


def test_strategy_matrix(benchmark, lubm_graph):
    def run_matrix():
        rows = []
        costs = {}
        for strategy in JoinStrategy:
            engine = HybridEngine(SparkContext(4), strategy=strategy)
            engine.load(lubm_graph)
            for name, query in QUERIES.items():
                cost = engine.measure(query).cost
                costs[(strategy, name)] = cost
                rows.append(
                    [
                        strategy.value,
                        name,
                        cost.shuffle_records,
                        cost.shuffle_remote_records,
                        cost.broadcast_bytes,
                        cost.join_comparisons,
                    ]
                )
        return rows, costs

    rows, costs = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    hybrid_wins = all(
        costs[(JoinStrategy.HYBRID, name)].shuffle_remote_records
        <= costs[(JoinStrategy.RDD, name)].shuffle_remote_records
        for name in QUERIES
    )
    rdd_never_broadcasts = all(
        costs[(JoinStrategy.RDD, name)].broadcast_bytes == 0
        for name in QUERIES
    )
    result = ClaimResult(
        "CLM-JOIN-matrix",
        holds=hybrid_wins and rdd_never_broadcasts,
        evidence={
            "hybrid_remote_star": costs[
                (JoinStrategy.HYBRID, "star")
            ].shuffle_remote_records,
            "rdd_remote_star": costs[
                (JoinStrategy.RDD, "star")
            ].shuffle_remote_records,
        },
    )
    report(
        "CLM-JOIN: strategy x query-shape cost matrix",
        format_table(
            [
                "strategy",
                "query",
                "shuffle",
                "remote",
                "broadcast B",
                "comparisons",
            ],
            rows,
        )
        + "\n" + result.summary(),
    )
    assert result.holds


def _skew_graph(large, small):
    """A large 'views' relation joining a small 'admin' relation."""
    graph = RDFGraph()
    ex = "http://example.org/"
    for i in range(large):
        graph.add(
            Triple(
                URI(ex + "u%d" % (i % max(small * 3, 1))),
                URI(ex + "views"),
                URI(ex + "page%d" % i),
            )
        )
    for i in range(small):
        graph.add(
            Triple(URI(ex + "u%d" % i), URI(ex + "admin"), URI(ex + "yes"))
        )
    return graph


def test_small_build_side_crossover(benchmark):
    """Sweep the build-side size: broadcast wins small, loses big."""
    query = (
        "PREFIX ex: <http://example.org/>\n"
        "SELECT ?u ?p WHERE { ?u ex:views ?p . ?u ex:admin ex:yes }"
    )

    def sweep():
        # The DataFrame strategy considers only sizes (the paper notes it
        # ignores partitioning), so it exposes the crossover cleanly.
        series = {}
        for small in (2, 8, 32, 128):
            graph = _skew_graph(large=300, small=small)
            threshold_engine = HybridEngine(
                SparkContext(4),
                strategy=JoinStrategy.DATAFRAME,
                broadcast_threshold=4,
            )
            threshold_engine.load(graph)
            cost = threshold_engine.measure(query).cost
            series[small] = (
                "broadcast" if cost.broadcast_bytes > 0 else "partitioned",
                cost.shuffle_records,
            )
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    choices = [kind for kind, _shuffle in series.values()]
    result = ClaimResult(
        "CLM-JOIN-crossover",
        holds="broadcast" in choices and "partitioned" in choices,
        evidence={str(k): v[0] for k, v in series.items()},
    )
    report(
        "CLM-JOIN: greedy strategy switches at the size threshold",
        format_series(
            "build-side size -> (chosen join, shuffle records)", series
        )
        + "\n" + result.summary(),
    )
    assert result.holds


def test_sql_cartesian_drawback(benchmark, lubm_small):
    """Disconnected patterns: SQL translation produces a cartesian product."""
    disconnected = PREFIX + (
        "SELECT ?u ?d WHERE { ?u rdf:type lubm:University . "
        "?d rdf:type lubm:Department . }"
    )
    connected = LubmGenerator.query_star()

    engine = HybridEngine(SparkContext(4), strategy=JoinStrategy.SPARK_SQL)
    engine.load(lubm_small)

    def run():
        disconnected_cost = engine.measure(disconnected).cost
        disconnected_sql = engine.last_sql
        connected_cost = engine.measure(connected).cost
        connected_sql = engine.last_sql
        return disconnected_cost, disconnected_sql, connected_sql

    disconnected_cost, disconnected_sql, connected_sql = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    result = ClaimResult(
        "CLM-JOIN-cartesian",
        holds="CROSS JOIN" in disconnected_sql
        and "CROSS JOIN" not in connected_sql,
        evidence={
            "disconnected_comparisons": disconnected_cost.join_comparisons
        },
    )
    report(
        "CLM-JOIN: naive SQL translation degenerates to cartesian products",
        "disconnected: %s\nconnected:    %s\n%s"
        % (disconnected_sql, connected_sql, result.summary()),
    )
    assert result.holds
