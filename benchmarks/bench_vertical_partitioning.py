"""CLM-VP: SPARQLGX's vertical partitioning claim (Section IV-A1).

Paper: "a triple (s p o) is stored in a file named p whose content keeps
only s and o entries.  By following this approach, the memory footprint is
reduced and the response time is minimized when queries have bounded
predicates."

Measured: records scanned for bounded- vs unbounded-predicate queries on
SPARQLGX, against the full-scan naive baseline; plus the per-triple memory
footprint of (s, o) stores vs full triples.
"""

from repro.bench import format_table
from repro.core.assessment import ClaimResult
from repro.data.watdiv import WatdivGenerator
from repro.spark.context import SparkContext
from repro.spark.metrics import estimate_size
from repro.systems import NaiveEngine, SparqlgxEngine

from conftest import report

BOUNDED = WatdivGenerator.query_bounded_predicate()
UNBOUNDED = WatdivGenerator.query_unbounded_predicate()


def test_bounded_predicates_scan_less(benchmark, watdiv_graph):
    sparqlgx = SparqlgxEngine(SparkContext(4))
    sparqlgx.load(watdiv_graph)
    naive = NaiveEngine(SparkContext(4))
    naive.load(watdiv_graph)

    def run_all():
        return {
            ("SPARQLGX", "bounded"): sparqlgx.measure(BOUNDED).cost.records_scanned,
            ("SPARQLGX", "unbounded"): sparqlgx.measure(UNBOUNDED).cost.records_scanned,
            ("Naive", "bounded"): naive.measure(BOUNDED).cost.records_scanned,
        }

    scans = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[e, q, s] for (e, q), s in sorted(scans.items())]
    result = ClaimResult(
        "CLM-VP",
        holds=scans[("SPARQLGX", "bounded")] < scans[("Naive", "bounded")]
        and scans[("SPARQLGX", "bounded")]
        < scans[("SPARQLGX", "unbounded")],
        evidence={k[0] + "/" + k[1]: v for k, v in scans.items()},
    )
    report(
        "CLM-VP: vertical partitioning pays off for bounded predicates",
        format_table(["engine", "query", "records scanned"], rows)
        + "\n" + result.summary(),
    )
    assert result.holds


def test_memory_footprint_reduced(benchmark, watdiv_graph):
    def footprints():
        full = sum(
            estimate_size(t.as_tuple()) for t in watdiv_graph
        )
        vertical = sum(
            estimate_size((t.subject, t.object)) for t in watdiv_graph
        )
        return full, vertical

    full, vertical = benchmark(footprints)
    result = ClaimResult(
        "CLM-VP-footprint",
        holds=vertical < full,
        evidence={"full_bytes": full, "vertical_bytes": vertical},
    )
    report(
        "CLM-VP: (s, o) stores shrink the memory footprint",
        result.summary(),
    )
    assert result.holds
