"""VIEWS: materialized ExtVP ablation (off / full rebuild / incremental).

S2RDF's central bet (Section IV-A2) is that precomputed semi-join
reductions pay for themselves; its unanswered operational question is
what they cost to *keep* under updates.  ``repro.views`` materializes
the reduction tables and maintains them incrementally across
:mod:`repro.evolution` commits; this benchmark measures both halves:

* **Query side** -- the synthetic workload on SPARQLGX with the shared
  optimizer, views off vs on.  Result rows must be identical (views
  change *how*, never *what*); with views on, substituted plans scan no
  more records than the base plans.
* **Maintenance side** -- a deterministic commit stream applied three
  ways: views off (free), full rebuild after every commit (the S2RDF
  batch answer), and incremental delta application.  Every commit also
  byte-checks the incrementally maintained views against a from-scratch
  materialization oracle.

Run as a script for the deterministic JSON artifact::

    PYTHONPATH=src python benchmarks/bench_views.py --output BENCH_views.json

or under pytest (the test asserts the ablation's headline claims).
All numbers are simulated-cluster cost units; fixed seed,
byte-reproducible.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.bench import artifact_main, format_table, report
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.evolution.versioned import VersionedGraph
from repro.optimizer import Optimizer
from repro.spark.context import SparkContext
from repro.stats.catalog import StatsCatalog
from repro.systems import SparqlgxEngine
from repro.views import ViewCatalog
from repro.views.catalog import materialize_view


THRESHOLD = 0.5

QUERIES = {
    "star": LubmGenerator.query_star(),
    "linear": LubmGenerator.query_linear(),
    "snowflake": LubmGenerator.query_snowflake(),
    "complex": LubmGenerator.query_complex(),
}


def _run_queries(graph, views: bool, queries) -> Dict[str, Dict[str, int]]:
    """Per-query cost counters with the optimizer, views on or off."""
    optimizer = Optimizer.for_graph(
        graph, views=views, view_threshold=THRESHOLD
    )
    measured: Dict[str, Dict[str, int]] = {}
    for name, text in queries.items():
        engine = SparqlgxEngine(SparkContext(4))
        engine.load(graph)
        engine.set_optimizer(optimizer)
        run = engine.measure(text)
        cost = run.cost
        measured[name] = {
            "rows": run.rows,
            "records_scanned": cost.records_scanned,
            "join_comparisons": cost.join_comparisons,
            "shuffle_records": cost.shuffle_records,
            "view_scans": cost["view_scans"],
        }
    return measured


def _commit_stream(graph) -> List[Dict[str, tuple]]:
    """Three deterministic commits: churn derived from the sorted graph.

    Delete a slice, delete another while re-adding half the first, then
    restore the rest -- exercising row eviction, value-vanishes eviction,
    and value-reappears pull-in on the same predicates.
    """
    triples = sorted(graph)
    slice_a = triples[10:40]
    slice_b = triples[60:80]
    return [
        {"additions": (), "deletions": tuple(slice_a)},
        {"additions": tuple(slice_a[:15]), "deletions": tuple(slice_b)},
        {"additions": tuple(slice_a[15:] + slice_b), "deletions": ()},
    ]


def _views_exact(catalog: ViewCatalog, graph) -> bool:
    """Every maintained view byte-matches a from-scratch materialization."""
    for view in catalog.sorted_views():
        oracle = materialize_view(
            graph, view.key, view.factor, version=view.version
        )
        if view.rows() != oracle.rows():
            return False
    return True


def _run_maintenance(graph) -> Dict[str, object]:
    """The commit stream under incremental maintenance vs full rebuild."""
    versions = VersionedGraph(graph.copy())
    stats = StatsCatalog.from_graph(versions.head())
    catalog = ViewCatalog.build(versions.head(), stats, threshold=THRESHOLD)
    initial_build_units = catalog.build_cost_units
    commits: List[Dict[str, object]] = []
    for change in _commit_stream(graph):
        version = versions.commit(change["additions"], change["deletions"])
        head = versions.head()
        delta = versions.delta(version)
        incremental = catalog.apply_delta(delta, head, version)
        # The batch alternative: rebuild every view from fresh statistics
        # at the new head (what a views-enabled service would do without
        # incremental maintenance).
        rebuilt = ViewCatalog.build(
            head, StatsCatalog.from_graph(head), threshold=THRESHOLD
        )
        commits.append(
            {
                "version": version,
                "delta_size": delta.size(),
                "views_affected": incremental.views_affected,
                "rows_added": incremental.rows_added,
                "rows_removed": incremental.rows_removed,
                "incremental_units": incremental.cost_units,
                "affected_rebuild_units": incremental.rebuild_cost_units,
                "full_rebuild_units": rebuilt.build_cost_units,
                "exact": _views_exact(catalog, head),
            }
        )
    return {
        "initial_build_units": initial_build_units,
        "views": len(catalog),
        "commits": commits,
        "totals": {
            "incremental_units": sum(
                c["incremental_units"] for c in commits
            ),
            "full_rebuild_units": sum(
                c["full_rebuild_units"] for c in commits
            ),
        },
    }


def run_bench(smoke: bool = False) -> Dict[str, object]:
    """The full ablation; returns the JSON-ready payload."""
    scale = 1 if smoke else 2
    graph = LubmGenerator(num_universities=scale, seed=42).generate()
    queries = (
        {name: QUERIES[name] for name in ("star", "complex")}
        if smoke
        else QUERIES
    )
    return {
        "benchmark": "views-ablation",
        "dataset": {"generator": "lubm", "scale": scale, "seed": 42},
        "engine": "SPARQLGX",
        "threshold": THRESHOLD,
        "query_profiles": {
            "views-off": _run_queries(graph, False, queries),
            "views-on": _run_queries(graph, True, queries),
        },
        "maintenance": _run_maintenance(graph),
        "queries": sorted(queries),
        "smoke": smoke,
    }


def check_payload(payload: Dict[str, object]) -> ClaimResult:
    """The ablation's headline claims, verified against *payload*."""
    profiles = payload["query_profiles"]
    queries = payload["queries"]
    maintenance = payload["maintenance"]
    rows_identical = all(
        profiles["views-off"][q]["rows"] == profiles["views-on"][q]["rows"]
        for q in queries
    )
    views_used = (
        sum(profiles["views-on"][q]["view_scans"] for q in queries) > 0
    )
    scans_no_worse = all(
        profiles["views-on"][q]["records_scanned"]
        <= profiles["views-off"][q]["records_scanned"]
        for q in queries
    )
    incremental_cheaper = (
        maintenance["totals"]["incremental_units"]
        < maintenance["totals"]["full_rebuild_units"]
    )
    maintenance_exact = all(c["exact"] for c in maintenance["commits"])
    return ClaimResult(
        "VIEWS-ablation",
        holds=rows_identical
        and views_used
        and scans_no_worse
        and incremental_cheaper
        and maintenance_exact,
        evidence={
            "rows_identical": rows_identical,
            "views_used": views_used,
            "scans_no_worse": scans_no_worse,
            "incremental_units": maintenance["totals"]["incremental_units"],
            "full_rebuild_units": maintenance["totals"][
                "full_rebuild_units"
            ],
            "maintenance_exact": maintenance_exact,
        },
    )


def _table(payload) -> str:
    rows: List[List[object]] = []
    for profile in ("views-off", "views-on"):
        for query in payload["queries"]:
            cell = payload["query_profiles"][profile][query]
            rows.append(
                [
                    profile,
                    query,
                    cell["rows"],
                    cell["records_scanned"],
                    cell["join_comparisons"],
                    cell["view_scans"],
                ]
            )
    query_table = format_table(
        ["profile", "query", "rows", "scanned", "comparisons", "view scans"],
        rows,
    )
    maintenance_rows = [
        [
            c["version"],
            c["delta_size"],
            c["views_affected"],
            c["incremental_units"],
            c["full_rebuild_units"],
            "yes" if c["exact"] else "NO",
        ]
        for c in payload["maintenance"]["commits"]
    ]
    maintenance_table = format_table(
        ["commit", "delta", "affected", "incremental", "rebuild", "exact"],
        maintenance_rows,
    )
    return query_table + "\n" + maintenance_table


def test_views_ablation(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    result = check_payload(payload)
    report(
        "VIEWS: materialization + maintenance ablation (LUBM, SPARQLGX)",
        _table(payload) + "\n" + result.summary(),
    )
    assert result.holds


def main(argv: Optional[List[str]] = None) -> int:
    return artifact_main(
        "materialized ExtVP view ablation benchmark",
        "BENCH_views.json",
        "tiny fixed-size run for CI (smaller data, fewer queries)",
        run_bench,
        check_payload,
        _table,
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
