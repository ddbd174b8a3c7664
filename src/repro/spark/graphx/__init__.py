"""GraphX: graph-parallel processing over RDDs.

Implements the abstraction the paper's graph-processing systems (S2X,
Kassaie's subgraph matcher, Spar(k)ql) are built on: a property graph of
vertex and edge RDDs, triplets, ``aggregateMessages`` with send/merge
functions, and the stock algorithms the paper mentions GraphX shipping
with (PageRank, connected components, triangle counting, shortest paths).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.spark.graphx.graph": (
            "Edge",
            "EdgeContext",
            "EdgeTriplet",
            "Graph",
        ),
        "repro.spark.graphx.lib": (
            "connected_components",
            "pagerank",
            "shortest_paths",
            "triangle_count",
        ),
    },
)
