"""A deterministic, in-process reimplementation of the Apache Spark data model.

This package provides the substrate every surveyed system in the paper runs
on: RDDs with lineage and custom partitioners, shuffles with traffic
accounting, DataFrames with columnar partitions, a Spark-SQL engine with a
Catalyst-style optimizer, a GraphX-style Pregel engine, and a
GraphFrames-style motif matcher.

It is *not* a distributed system: partitions are plain Python lists and the
"cluster" is simulated by mapping partitions onto virtual executors.  What it
does preserve is everything the paper's assessment depends on -- which
records move across executors during a shuffle, how many comparisons a join
performs, how much data a broadcast ships, and how partition placement
interacts with query shape.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.spark.broadcast": ("Broadcast",),
        "repro.spark.context": ("SparkContext",),
        "repro.spark.dataframe": ("DataFrame",),
        "repro.spark.faults": (
            "FaultRule",
            "FaultScheduler",
            "FaultSpecError",
            "TaskFailedError",
        ),
        "repro.spark.metrics": ("MetricsCollector", "MetricsSnapshot"),
        "repro.spark.partitioner": (
            "HashPartitioner",
            "Partitioner",
            "RangePartitioner",
        ),
        "repro.spark.rdd": ("RDD",),
        "repro.spark.row": ("Row",),
        "repro.spark.sql.session": ("SparkSession",),
        "repro.spark.tracing": (
            "Span",
            "Tracer",
            "render_trace",
            "trace_from_json",
            "trace_to_json",
            "trace_totals",
        ),
    },
)
