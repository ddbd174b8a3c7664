"""GraphFrames: graphs over DataFrames with motif-finding queries.

The paper notes GraphFrames as the newest Spark graph API -- DataFrame
scalability plus, unlike GraphX, direct *queries over graphs*.  The motif
language implemented here (``(a)-[e]->(b); (b)-[f]->(c)``) is what the
Bahrami et al. system compiles SPARQL BGPs into.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.spark.graphframes.graphframe": ("GraphFrame",),
        "repro.spark.graphframes.motif": (
            "MotifPattern",
            "MotifSyntaxError",
            "parse_motif",
        ),
    },
)
