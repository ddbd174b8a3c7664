"""Synthetic RDF data and SPARQL workload generators.

Stand-ins for the benchmark datasets the surveyed systems were evaluated
on: a LUBM-like university graph, a WatDiv-like e-commerce graph, and
shape-parameterized query workload generators (star / linear / snowflake /
complex) over arbitrary graphs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.data.lubm": ("LubmGenerator", "LUBM"),
        "repro.data.watdiv": ("WatdivGenerator", "WATDIV"),
        "repro.data.sp2bench": ("Sp2bGenerator", "SP2B"),
        "repro.data.workload": (
            "QueryWorkload",
            "WeightedQuery",
            "generate_query",
            "generate_workload",
        ),
    },
)
