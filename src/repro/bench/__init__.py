"""Benchmark harness: run engines over workloads, collect cost metrics,
verify correctness against the reference evaluator, and print result
tables.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bench.harness": (
            "BenchRun",
            "RunResult",
            "run_engine_on_query",
        ),
        "repro.bench.reporting": ("format_table", "format_series"),
    },
)

__all__ = [
    "BenchRun",
    "RunResult",
    "format_series",
    "format_table",
    "run_engine_on_query",
]
