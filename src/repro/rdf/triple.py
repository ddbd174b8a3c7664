"""RDF triples with the positional validity rules of Section II-A:
a triple is a tuple from ``(U ∪ B) × U × (U ∪ L ∪ B)``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.rdf.terms import BNode, Literal, Term, URI


class TripleValidityError(ValueError):
    """Raised when a term appears in a position RDF forbids."""


class Triple:
    """An immutable (subject, predicate, object) statement."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: Term, obj: Term) -> None:
        if not isinstance(subject, (URI, BNode)):
            raise TripleValidityError(
                "subject must be a URI or blank node, got %r" % (subject,)
            )
        if not isinstance(predicate, URI):
            raise TripleValidityError(
                "predicate must be a URI, got %r" % (predicate,)
            )
        if not isinstance(obj, (URI, BNode, Literal)):
            raise TripleValidityError(
                "object must be a URI, blank node or literal, got %r" % (obj,)
            )
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "object", obj)

    def __setattr__(self, name, value):
        raise AttributeError("Triple is immutable")

    def __reduce__(self):
        # The raising __setattr__ breaks the default slots-state pickle
        # path; rebuild through the (validating) constructor instead.
        return (Triple, (self.subject, self.predicate, self.object))

    def as_tuple(self) -> Tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.as_tuple())

    def n3(self) -> str:
        return "%s %s %s ." % (
            self.subject.n3(),
            self.predicate.n3(),
            self.object.n3(),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Triple) and self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __lt__(self, other: "Triple") -> bool:
        return self.as_tuple() < other.as_tuple()

    def __repr__(self) -> str:
        return "Triple(%r, %r, %r)" % self.as_tuple()
