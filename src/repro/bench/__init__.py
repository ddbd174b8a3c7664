"""Benchmark harness: run engines over workloads, collect cost metrics,
verify correctness against the reference evaluator, and print result
tables.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.bench.harness": (
            "BenchRun",
            "RunResult",
            "run_engine_on_query",
        ),
        "repro.bench.reporting": (
            "artifact_main",
            "format_series",
            "format_table",
            "report",
        ),
    },
)
