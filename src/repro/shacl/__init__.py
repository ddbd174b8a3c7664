"""SHACL-lite validation compiled to SPARQL (docs/SHACL.md).

A :class:`ShapeSet` (NodeShape/PropertyShape, parsed from a
deterministic dict/JSON form) is compiled into many small SELECT/ASK
queries -- one target query and one values query per shape plus one
class probe per distinct value under an ``sh:class`` constraint -- and a
:class:`ShaclValidator` runs them through any executor (a bare engine, a
:class:`~repro.server.service.QueryService`, or a harvested local
subgraph) and folds the answers into a byte-deterministic
:class:`ValidationReport`.

Validation is deliberately a *bursty, many-small-queries* workload: each
compiled query is billed and admitted individually, which exercises the
plan cache and fair-share admission very differently from the one-shot
analytic benchmarks (the ROADMAP's open item; grounded in the shaclAPI
exemplar of SNIPPETS.md).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.shacl.shapes": (
            "NodeShape",
            "PropertyShape",
            "ShaclError",
            "ShapeSet",
            "default_shapes_for",
            "load_shapes_file",
        ),
        "repro.shacl.compile": (
            "CompiledQuery",
            "class_probe",
            "compile_shape",
            "compile_shape_set",
            "harvest_queries",
        ),
        "repro.shacl.report": ("REPORT_FORMAT_VERSION", "ValidationReport"),
        "repro.shacl.validator": (
            "EngineExecutor",
            "LocalGraphExecutor",
            "ServiceExecutor",
            "ShaclValidator",
            "ValidationExecutionError",
        ),
    },
)
