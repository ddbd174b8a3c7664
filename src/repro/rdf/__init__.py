"""The RDF data model and serializations (Section II-A of the paper).

Terms (URIs, literals, blank nodes), triples over
``(U ∪ B) × U × (U ∪ L ∪ B)``, an indexed in-memory graph, N-Triples and
Turtle (subset) parsers, RDFS entailment, and the string-to-integer
dictionary encoding HAQWA applies before distribution.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.rdf.terms": ("BNode", "Literal", "Term", "URI"),
        "repro.rdf.triple": ("Triple", "TripleValidityError"),
        "repro.rdf.graph": ("RDFGraph",),
        "repro.rdf.namespaces": ("Namespace", "NamespaceManager"),
        "repro.rdf.vocab": ("RDF", "RDFS", "XSD"),
        "repro.rdf.encoding": ("Dictionary", "EncodedTriple"),
        "repro.rdf.ntriples": (
            "NTriplesParseError",
            "parse_ntriples",
            "serialize_ntriples",
        ),
        "repro.rdf.rdfs": ("RDFSReasoner",),
    },
)
