"""Advanced partitioning: the paper's main future-work direction.

Section V: "we argue that data partitioning is an essential part of
efficient query processing and that further research is required in the
area" -- citing semantic partitioning [27] and noting that "graph
partitioning does not focus on load balancing rather than on minimizing
the edge-cut between partitions.  GraphX has not been exploited yet
towards this direction."

This package implements both directions the paper points to:

* :mod:`repro.partitioning.semantic` -- class-driven placement: subjects
  of the same rdf:type land together, balanced by triple volume.
* :mod:`repro.partitioning.edgecut` -- streaming edge-cut minimization
  (linear deterministic greedy) for the graph-model engines.
* :mod:`repro.partitioning.store` -- a partitioned triple store that
  measures what the policies buy: locality of star queries, edge-cut,
  balance.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.partitioning.edgecut": (
            "EdgeCutPartitioner",
            "ldg_partition",
        ),
        "repro.partitioning.semantic": ("SemanticPartitioner",),
        "repro.partitioning.store": ("PartitionedTripleStore",),
    },
)
