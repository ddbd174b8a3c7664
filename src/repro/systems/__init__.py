"""The nine surveyed RDF-on-Spark systems, reimplemented (Section IV).

Triple-model systems: HAQWA [7], SPARQLGX [13], S2RDF [24], and the hybrid
join study of Naacke et al. [21].  Graph-model systems: S2X [23], Kassaie's
GraphX subgraph matcher [16], Spar(k)ql [12], the GraphFrames approach of
Bahrami et al. [4], and SparkRDF [5].  ``NaiveEngine`` is the unpartitioned
full-scan baseline every system improves on.

Every engine implements the same interface (:class:`SparkRdfEngine`):
``load`` an :class:`~repro.rdf.graph.RDFGraph`, ``execute`` SPARQL, and a
``profile`` describing its Table I/II classification.
"""

from repro._lazy import lazy_exports

#: Engine name (``profile.name``) -> (module, class): the baseline first,
#: then the survey's order.  Resolving a name loads that engine alone.
ENGINE_HOMES = {
    "Naive": ("repro.systems.naive", "NaiveEngine"),
    "HAQWA": ("repro.systems.haqwa", "HaqwaEngine"),
    "SPARQLGX": ("repro.systems.sparqlgx", "SparqlgxEngine"),
    "S2RDF": ("repro.systems.s2rdf", "S2RdfEngine"),
    "SPARQL-Hybrid": ("repro.systems.hybrid", "HybridEngine"),
    "S2X": ("repro.systems.s2x", "S2XEngine"),
    "SPARQL-GraphX": ("repro.systems.graphx_sgm", "GraphXSubgraphEngine"),
    "Spar(k)ql": ("repro.systems.sparkql", "SparkqlEngine"),
    "GraphFrames-RDF": ("repro.systems.graphframes_sys", "GraphFramesEngine"),
    "SparkRDF": ("repro.systems.sparkrdf", "SparkRdfMesgEngine"),
}

_exported, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.systems.base": (
            "EngineProfile",
            "SparkRdfEngine",
            "UnsupportedQueryError",
        ),
        **{module: (cls,) for module, cls in ENGINE_HOMES.values()},
        # Two exports from one home, so its entry is restated whole.
        "repro.systems.hybrid": ("HybridEngine", "JoinStrategy"),
    },
    eager=("ALL_ENGINE_CLASSES",),
)


def engine_class(name: str):
    """The engine class whose ``profile.name`` is *name* (``KeyError``
    when there is none), importing only its own module."""
    return _exported(ENGINE_HOMES[name][1])


def __getattr__(name: str):
    if name != "ALL_ENGINE_CLASSES":
        return _exported(name)
    # The one computed export: the nine surveyed engines (no baseline),
    # all loaded by naming the tuple.
    classes = tuple(engine_class(n) for n in ENGINE_HOMES if n != "Naive")
    globals()[name] = classes
    return classes
