"""CLM-LOCAL: HAQWA's partitioning claims (Section IV-A1).

Paper: "a hash-based partitioning is performed on triple subjects.  This
fragmentation ensures that star-shaped queries are performed locally, but
no guarantees are provided for other query types" and "data are allocated
according to the analysis of frequent queries ... to prevent network
communication, the missing triples are replicated".

Measured: shuffle traffic of star vs linear queries on plain subject-hash
HAQWA, and of the frequent linear query once workload-aware allocation is
enabled.
"""

from repro.bench import format_table
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.data.workload import QueryWorkload
from repro.spark.context import SparkContext
from repro.sparql.parser import parse_sparql
from repro.systems import HaqwaEngine

from conftest import report

STAR = LubmGenerator.query_star()
# A two-hop chain: HAQWA's replica allocation is one hop deep (triples of
# a link's target subject move to the link source's partition), so this is
# the query type the mechanism localizes.
LINEAR = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "SELECT ?s ?p ?dep WHERE { ?s lubm:advisor ?p . ?p lubm:worksFor ?dep }"
)


def test_star_queries_local_linear_not(benchmark, lubm_graph):
    engine = HaqwaEngine(SparkContext(4))
    engine.load(lubm_graph)

    star_cost = engine.measure(STAR).cost
    linear_cost = benchmark.pedantic(
        lambda: engine.measure(LINEAR).cost, rounds=1, iterations=1
    )

    rows = [
        ["star", star_cost.shuffle_records, star_cost.shuffle_remote_records],
        [
            "linear",
            linear_cost.shuffle_records,
            linear_cost.shuffle_remote_records,
        ],
    ]
    result = ClaimResult(
        "CLM-LOCAL-star",
        holds=star_cost.shuffle_records == 0
        and linear_cost.shuffle_records > 0,
        evidence={
            "star_shuffle": star_cost.shuffle_records,
            "linear_shuffle": linear_cost.shuffle_records,
        },
    )
    report(
        "CLM-LOCAL: subject hashing makes star queries local",
        format_table(["query", "shuffle records", "remote records"], rows)
        + "\n" + result.summary(),
    )
    assert result.holds


def test_workload_aware_allocation_removes_linear_shuffle(
    benchmark, lubm_graph
):
    workload = QueryWorkload()
    workload.add("linear", parse_sparql(LINEAR), frequency=10.0)

    plain = HaqwaEngine(SparkContext(4))
    plain.load(lubm_graph)
    aware = HaqwaEngine(SparkContext(4), workload=workload)
    aware.load(lubm_graph)

    plain_cost = plain.measure(LINEAR).cost
    aware_cost = benchmark.pedantic(
        lambda: aware.measure(LINEAR).cost, rounds=1, iterations=1
    )

    rows = [
        ["hash only", plain_cost.shuffle_records, 0],
        [
            "hash + query aware",
            aware_cost.shuffle_records,
            aware.replicated_triples,
        ],
    ]
    result = ClaimResult(
        "CLM-LOCAL-workload",
        holds=aware_cost.shuffle_records == 0
        and plain_cost.shuffle_records > 0
        and aware.replicated_triples > 0,
        evidence={
            "shuffle_before": plain_cost.shuffle_records,
            "shuffle_after": aware_cost.shuffle_records,
            "replicated_triples": aware.replicated_triples,
        },
    )
    report(
        "CLM-LOCAL: workload-aware replication localizes frequent queries",
        format_table(
            ["allocation", "linear-query shuffle", "replicated triples"], rows
        )
        + "\n" + result.summary(),
    )
    assert result.holds
