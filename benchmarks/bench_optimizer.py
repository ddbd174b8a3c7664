"""OPT: cost-based optimization ablations (statistics, ordering, broadcast).

The paper's surveyed systems each justify an optimizer ingredient --
SPARQLGX its one-pass statistics and join reordering (IV-A1), S2RDF its
selectivity-reducing precomputation (IV-A2), the join-strategy study its
size-thresholded broadcast choice (IV-A3).  ``repro.optimizer`` combines
them into one shared cost-based planner; this benchmark ablates it.

Profiles: ordering mode (``parse`` = no statistics, ``greedy``, ``dp``)
crossed with broadcast selection on/off, each running the full synthetic
workload on SPARQLGX.  Measured per (profile, query): result rows (must
be identical everywhere -- the optimizer may only change *how*, never
*what*), join comparisons, shuffle records, broadcast bytes.

Run as a script for the deterministic JSON artifact::

    PYTHONPATH=src python benchmarks/bench_optimizer.py --output BENCH_optimizer.json

or under pytest (the test asserts the ablation's headline claims).
All numbers are simulated-cluster counters; fixed seed, byte-reproducible.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.bench import artifact_main, format_table, report
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.optimizer import Optimizer
from repro.spark.context import SparkContext
from repro.systems import SparqlgxEngine


#: (profile name, ordering mode, broadcast enabled).
PROFILES = (
    ("no-stats", "parse", False),
    ("no-stats+bcast", "parse", True),
    ("greedy", "greedy", False),
    ("greedy+bcast", "greedy", True),
    ("dp", "dp", False),
    ("dp+bcast", "dp", True),
)

QUERIES = {
    "star": LubmGenerator.query_star(),
    "linear": LubmGenerator.query_linear(),
    "snowflake": LubmGenerator.query_snowflake(),
    "complex": LubmGenerator.query_complex(),
}


def _run_profile(graph, mode: str, enable_broadcast: bool, queries):
    """Per-query cost counters for one optimizer configuration."""
    optimizer = Optimizer.for_graph(
        graph, mode=mode, enable_broadcast=enable_broadcast
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
            "join_comparisons": cost.join_comparisons,
            "shuffle_records": cost.shuffle_records,
            "broadcast_bytes": cost.broadcast_bytes,
            "records_scanned": cost.records_scanned,
        }
    return measured


def run_bench(smoke: bool = False) -> Dict[str, object]:
    """The full ablation; returns the JSON-ready payload."""
    scale = 1 if smoke else 2
    graph = LubmGenerator(num_universities=scale, seed=42).generate()
    queries = (
        {name: QUERIES[name] for name in ("star", "linear")}
        if smoke
        else QUERIES
    )
    profiles: Dict[str, Dict[str, Dict[str, int]]] = {}
    for name, mode, broadcast in PROFILES:
        profiles[name] = _run_profile(graph, mode, broadcast, queries)
    return {
        "benchmark": "optimizer-ablation",
        "dataset": {"generator": "lubm", "scale": scale, "seed": 42},
        "engine": "SPARQLGX",
        "profiles": profiles,
        "queries": sorted(queries),
        "smoke": smoke,
    }


def check_payload(payload: Dict[str, object]) -> ClaimResult:
    """The ablation's headline claims, verified against *payload*."""
    profiles = payload["profiles"]
    queries = payload["queries"]
    rows_identical = all(
        len({profiles[name][q]["rows"] for name, _m, _b in PROFILES}) == 1
        for q in queries
    )
    dp_no_worse = all(
        profiles["dp"][q]["join_comparisons"]
        <= profiles["no-stats"][q]["join_comparisons"]
        for q in queries
    )
    broadcast_cuts_shuffle = sum(
        profiles["dp+bcast"][q]["shuffle_records"] for q in queries
    ) < sum(profiles["dp"][q]["shuffle_records"] for q in queries)
    return ClaimResult(
        "OPT-ablation",
        holds=rows_identical and dp_no_worse and broadcast_cuts_shuffle,
        evidence={
            "rows_identical": rows_identical,
            "dp_comparisons": sum(
                profiles["dp"][q]["join_comparisons"] for q in queries
            ),
            "no_stats_comparisons": sum(
                profiles["no-stats"][q]["join_comparisons"] for q in queries
            ),
            "shuffle_dp": sum(
                profiles["dp"][q]["shuffle_records"] for q in queries
            ),
            "shuffle_dp_bcast": sum(
                profiles["dp+bcast"][q]["shuffle_records"] for q in queries
            ),
        },
    )


def _table(payload) -> str:
    rows: List[List[object]] = []
    for name, _mode, _broadcast in PROFILES:
        for query in payload["queries"]:
            cell = payload["profiles"][name][query]
            rows.append(
                [
                    name,
                    query,
                    cell["rows"],
                    cell["join_comparisons"],
                    cell["shuffle_records"],
                    cell["broadcast_bytes"],
                ]
            )
    return format_table(
        ["profile", "query", "rows", "comparisons", "shuffle", "broadcast B"],
        rows,
    )


def test_optimizer_ablation(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    result = check_payload(payload)
    report(
        "OPT: ordering mode x broadcast ablation (LUBM, SPARQLGX)",
        _table(payload) + "\n" + result.summary(),
    )
    assert result.holds


def main(argv: Optional[List[str]] = None) -> int:
    return artifact_main(
        "cost-based optimizer ablation benchmark",
        "BENCH_optimizer.json",
        "tiny fixed-size run for CI (smaller data, fewer queries)",
        run_bench,
        check_payload,
        _table,
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
