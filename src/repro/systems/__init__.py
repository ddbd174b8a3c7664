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

from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    UnsupportedQueryError,
)
from repro.systems.naive import NaiveEngine
from repro.systems.haqwa import HaqwaEngine
from repro.systems.sparqlgx import SparqlgxEngine
from repro.systems.s2rdf import S2RdfEngine
from repro.systems.hybrid import HybridEngine, JoinStrategy
from repro.systems.s2x import S2XEngine
from repro.systems.graphx_sgm import GraphXSubgraphEngine
from repro.systems.sparkql import SparkqlEngine
from repro.systems.graphframes_sys import GraphFramesEngine
from repro.systems.sparkrdf import SparkRdfMesgEngine

ALL_ENGINE_CLASSES = (
    HaqwaEngine,
    SparqlgxEngine,
    S2RdfEngine,
    HybridEngine,
    S2XEngine,
    GraphXSubgraphEngine,
    SparkqlEngine,
    GraphFramesEngine,
    SparkRdfMesgEngine,
)

__all__ = [
    "ALL_ENGINE_CLASSES",
    "EngineProfile",
    "GraphFramesEngine",
    "GraphXSubgraphEngine",
    "HaqwaEngine",
    "HybridEngine",
    "JoinStrategy",
    "NaiveEngine",
    "S2RdfEngine",
    "S2XEngine",
    "SparkRdfEngine",
    "SparkRdfMesgEngine",
    "SparkqlEngine",
    "SparqlgxEngine",
    "UnsupportedQueryError",
]
