"""Dictionary encoding of RDF terms to integers.

HAQWA (Section IV-A1) "performs an encoding of string values to integer
ones on data, which minimizes data volume and makes processing more
efficient."  The :class:`Dictionary` assigns each distinct term a dense
integer id; :func:`encoded_volume_ratio` measures the volume reduction the
paper's claim is about.  One encoding per graph version is shared by the
engines that store ids (:meth:`repro.rdf.graph.RDFGraph.encoding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.rdf.metricsutil import term_volume
from repro.rdf.terms import Term
from repro.rdf.triple import Triple

if TYPE_CHECKING:
    from repro.rdf.graph import RDFGraph


@dataclass(frozen=True)
class EncodedTriple:
    """A triple as three integer ids."""

    subject: int
    predicate: int
    object: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.subject, self.predicate, self.object)


class Dictionary:
    """Bidirectional term <-> dense integer id mapping.

    Ids are assigned in first-seen order, so encoding is deterministic for
    a fixed input order.  A frozen dictionary (:meth:`freeze`) hands out
    no new id: it is shared read-only.
    """

    def __init__(self) -> None:
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Term] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._id_to_term)

    def encode_term(self, term: Term) -> int:
        """The id for *term*, assigning a fresh one when unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        if self._frozen:
            raise TypeError("frozen dictionary has no id for %r" % (term,))
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def freeze(self) -> None:
        """From now on, :meth:`encode_term` of an unseen term raises."""
        self._frozen = True

    def lookup_term(self, term: Term) -> int:
        """The id for *term*; raises KeyError when unseen."""
        return self._term_to_id[term]

    def get(self, term: Term) -> Optional[int]:
        """The id for *term*, or None when unseen (no triple has it)."""
        return self._term_to_id.get(term)

    def decode_id(self, term_id: int) -> Term:
        return self._id_to_term[term_id]

    @property
    def terms(self) -> Sequence[Term]:
        """Every term at its id: ``terms[i]`` is ``decode_id(i)``, for a
        kernel that decodes a column without a call per value."""
        return self._id_to_term

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def encode(self, triple: Triple) -> EncodedTriple:
        return EncodedTriple(
            self.encode_term(triple.subject),
            self.encode_term(triple.predicate),
            self.encode_term(triple.object),
        )

    def decode(self, encoded: EncodedTriple) -> Triple:
        return Triple(
            self.decode_id(encoded.subject),
            self.decode_id(encoded.predicate),
            self.decode_id(encoded.object),
        )

    def encode_graph(self, graph: "RDFGraph") -> List[Tuple[int, int, int]]:
        """*graph* as ``(s, p, o)`` id tuples in its canonical (sorted)
        order, which is also the order ids are handed out in."""
        encode = self.encode_term
        return [
            (encode(s), encode(p), encode(o))
            for s, p, o in graph.canonical_order()
        ]

    def encode_all(self, triples: Iterable[Triple]) -> List[EncodedTriple]:
        return [self.encode(t) for t in triples]

    def decode_all(self, encoded: Iterable[EncodedTriple]) -> List[Triple]:
        return [self.decode(e) for e in encoded]


class GraphEncoding(NamedTuple):
    """One graph version's dictionary encoding: an engine's encoded
    store is :attr:`triples`, placed."""

    dictionary: Dictionary
    triples: Tuple[Tuple[int, int, int], ...]


def raw_volume(triples: Iterable[Triple]) -> int:
    """Estimated bytes of the string representation of *triples*."""
    return sum(
        term_volume(t.subject) + term_volume(t.predicate) + term_volume(t.object)
        for t in triples
    )


def encoded_volume(
    encoded: Iterable[EncodedTriple], dictionary: Dictionary
) -> int:
    """Estimated bytes of the encoded triples plus the dictionary itself."""
    triple_bytes = sum(3 * 4 for _ in encoded)
    dictionary_bytes = sum(
        term_volume(dictionary.decode_id(i)) + 4 for i in range(len(dictionary))
    )
    return triple_bytes + dictionary_bytes


def encoded_volume_ratio(triples: List[Triple]) -> float:
    """raw volume / encoded volume: >1 means the encoding shrank the data."""
    dictionary = Dictionary()
    encoded = dictionary.encode_all(triples)
    raw = raw_volume(triples)
    packed = encoded_volume(encoded, dictionary)
    return raw / packed if packed else 1.0
