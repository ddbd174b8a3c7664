"""Namespace helpers: prefix management and vocabulary construction."""

from __future__ import annotations

from typing import Dict

from repro.rdf.terms import URI


class Namespace:
    """A URI prefix from which terms are minted by attribute access.

    >>> FOAF = Namespace("http://xmlns.com/foaf/0.1/")
    >>> FOAF.knows
    URI('http://xmlns.com/foaf/0.1/knows')
    """

    def __init__(self, base: str) -> None:
        self._base = base

    def term(self, local: str) -> URI:
        return URI(self._base + local)

    def __getattr__(self, local: str) -> URI:
        if local.startswith("_"):
            raise AttributeError(local)
        # Kept on the instance, so ``RDF.type`` is one object however
        # many triples name it; code spells a bounded vocabulary this way.
        term = self.__dict__[local] = self.term(local)
        return term

    def __getitem__(self, local: str) -> URI:
        # Not kept: data generators mint one URI per entity through here.
        return self.term(local)

    def __repr__(self) -> str:
        return "Namespace(%r)" % self._base


class NamespaceManager:
    """Prefix -> namespace registry (Turtle, SPARQL)."""

    def __init__(self) -> None:
        self._by_prefix: Dict[str, str] = {}

    def bind(self, prefix: str, namespace: str) -> None:
        self._by_prefix[prefix] = namespace

    def expand(self, qname: str) -> URI:
        """Expand ``prefix:local`` to a URI."""
        if ":" not in qname:
            raise ValueError("not a prefixed name: %r" % qname)
        prefix, local = qname.split(":", 1)
        if prefix not in self._by_prefix:
            raise KeyError("unbound prefix %r" % prefix)
        return URI(self._by_prefix[prefix] + local)
