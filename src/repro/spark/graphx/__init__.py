"""GraphX: graph-parallel processing over RDDs.

Implements the abstraction the paper's graph-processing systems (S2X,
Kassaie's subgraph matcher, Spar(k)ql) are built on: a property graph of
vertex and edge RDDs, triplets, ``aggregateMessages`` with send/merge
functions, Pregel supersteps, and the stock algorithms the paper mentions
GraphX shipping with (PageRank, connected components, triangle counting,
shortest paths).
"""

from repro._lazy import lazy_exports

# Eager, the one exception: ``pregel`` is also its home submodule's name,
# and the import system would bind the module over a lazy export.
from repro.spark.graphx.pregel import pregel

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
            "connected_components_pregel",
            "pagerank",
            "shortest_paths",
            "shortest_paths_pregel",
            "triangle_count",
        ),
    },
    eager=("pregel",),
)
