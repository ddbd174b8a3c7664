"""RDFS entailment: the inference rules that generate implicit triples.

Section II-A: "RDF Schema is a vocabulary description language that
includes a set of inference rules used to generate new, implicit triples
from explicit ones."  Implemented rules (W3C RDF Semantics naming):

=======  ==========================================================
rdfs2    (p domain c), (s p o)            => (s type c)
rdfs3    (p range c),  (s p o), o is IRI  => (o type c)
rdfs5    (p subPropertyOf q), (q subPropertyOf r) => (p subPropertyOf r)
rdfs7    (p subPropertyOf q), (s p o)     => (s q o)
rdfs9    (c subClassOf d), (s type c)     => (s type d)
rdfs11   (c subClassOf d), (d subClassOf e) => (c subClassOf e)
=======  ==========================================================
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import BNode, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF, RDFS


class RDFSReasoner:
    """Computes the RDFS closure of a graph to fixpoint.

    The closure is deterministic and monotone; ``materialize`` returns a
    *new* graph containing the input plus every derived triple.
    """

    RULES = ("rdfs2", "rdfs3", "rdfs5", "rdfs7", "rdfs9", "rdfs11")

    def __init__(self, enabled_rules: Iterable[str] = RULES) -> None:
        unknown = set(enabled_rules) - set(self.RULES)
        if unknown:
            raise ValueError("unknown RDFS rules: %r" % sorted(unknown))
        self.enabled = set(enabled_rules)

    def _apply_once(self, graph: RDFGraph) -> List[Triple]:
        """One round of all enabled rules; returns triples not yet present."""
        fresh: Set[Triple] = set()

        def derive(triple: Triple) -> None:
            if triple not in graph:
                fresh.add(triple)

        if "rdfs2" in self.enabled:
            for decl in graph.triples((None, RDFS.domain, None)):
                for usage in graph.triples((None, decl.subject, None)):
                    derive(Triple(usage.subject, RDF.type, decl.object))
        if "rdfs3" in self.enabled:
            for decl in graph.triples((None, RDFS.range, None)):
                for usage in graph.triples((None, decl.subject, None)):
                    if isinstance(usage.object, (URI, BNode)):
                        derive(Triple(usage.object, RDF.type, decl.object))
        if "rdfs5" in self.enabled:
            for first in graph.triples((None, RDFS.subPropertyOf, None)):
                for second in graph.triples(
                    (first.object, RDFS.subPropertyOf, None)
                ):
                    if first.subject != second.object:
                        derive(
                            Triple(
                                first.subject,
                                RDFS.subPropertyOf,
                                second.object,
                            )
                        )
        if "rdfs7" in self.enabled:
            for decl in graph.triples((None, RDFS.subPropertyOf, None)):
                if not isinstance(decl.object, URI):
                    continue
                for usage in graph.triples((None, decl.subject, None)):
                    derive(Triple(usage.subject, decl.object, usage.object))
        if "rdfs9" in self.enabled:
            for decl in graph.triples((None, RDFS.subClassOf, None)):
                for instance in graph.triples((None, RDF.type, decl.subject)):
                    derive(Triple(instance.subject, RDF.type, decl.object))
        if "rdfs11" in self.enabled:
            for first in graph.triples((None, RDFS.subClassOf, None)):
                for second in graph.triples(
                    (first.object, RDFS.subClassOf, None)
                ):
                    if first.subject != second.object:
                        derive(
                            Triple(
                                first.subject, RDFS.subClassOf, second.object
                            )
                        )
        return sorted(fresh)

    def materialize(self, graph: RDFGraph, max_rounds: int = 100) -> RDFGraph:
        """The RDFS closure as a new graph (input is not modified)."""
        closure = graph.copy()
        for _round in range(max_rounds):
            fresh = self._apply_once(closure)
            if not fresh:
                return closure
            for triple in fresh:
                closure.add(triple)
        raise RuntimeError(
            "RDFS closure did not converge in %d rounds" % max_rounds
        )
