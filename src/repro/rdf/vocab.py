"""The RDF, RDFS and XSD vocabularies used throughout the reproduction."""

from __future__ import annotations

from repro.rdf.namespaces import Namespace


class _RDF(Namespace):
    """The rdf: vocabulary; ``RDF.type`` is the typing property of II-A."""

    def __init__(self) -> None:
        super().__init__("http://www.w3.org/1999/02/22-rdf-syntax-ns#")


class _RDFS(Namespace):
    """The rdfs: vocabulary description language (inference rules)."""

    def __init__(self) -> None:
        super().__init__("http://www.w3.org/2000/01/rdf-schema#")


class _XSD(Namespace):
    def __init__(self) -> None:
        super().__init__("http://www.w3.org/2001/XMLSchema#")


RDF = _RDF()
RDFS = _RDFS()
XSD = _XSD()
