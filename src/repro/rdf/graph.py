"""An indexed in-memory RDF graph.

This is the "local truth" every distributed engine is validated against:
it stores triples in SPO/POS/OSP hash indexes and answers single-pattern
lookups with any combination of bound positions.  It is also the loading
format -- engines ingest an :class:`RDFGraph` and build their own
distributed representation from it.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.rdf.terms import Term, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF

_Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]
_Index = Dict[Term, Dict[Term, Set[Term]]]


def _copy_index(index: _Index) -> _Index:
    return {
        outer: {key: set(values) for key, values in inner.items()}
        for outer, inner in index.items()
    }


class RDFGraph:
    """A set of triples with three hash indexes for pattern lookups."""

    def __init__(self, triples: Optional[Iterable[Triple]] = None) -> None:
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        if triples:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False when it was already present."""
        s, p, o = triple.as_tuple()
        objects = self._spo.setdefault(s, {}).setdefault(p, set())
        if o in objects:
            return False
        objects.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self._size += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many; returns how many were new."""
        return sum(1 for t in triples if self.add(t))

    def remove(self, triple: Triple) -> bool:
        """Delete a triple; returns False when it was absent."""
        s, p, o = triple.as_tuple()
        try:
            self._spo[s][p].remove(o)
        except KeyError:
            return False
        self._pos[p][o].discard(s)
        self._osp[o][s].discard(p)
        # Prune emptied containers, so the index keys stay exactly the
        # terms some triple carries (subjects(), predicates(), objects()
        # and the statistics pass read them as such).
        for index, a, b in (
            (self._spo, s, p),
            (self._pos, p, o),
            (self._osp, o, s),
        ):
            inner = index[a]
            if not inner[b]:
                del inner[b]
                if not inner:
                    del index[a]
        self._size -= 1
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple.as_tuple()
        return o in self._spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        for s, predicates in self._spo.items():
            for p, objects in predicates.items():
                for o in objects:
                    yield Triple(s, p, o)

    def triples(self, pattern: _Pattern = (None, None, None)) -> Iterator[Triple]:
        """All triples matching *pattern*; ``None`` positions are wildcards.

        Uses the most selective index available for the bound positions.
        """
        s, p, o = pattern
        if s is not None and p is not None:
            objects = self._spo.get(s, {}).get(p, ())
            if o is not None:
                if o in objects:
                    yield Triple(s, p, o)
            else:
                for obj in objects:
                    yield Triple(s, p, obj)
        elif s is not None and o is not None:
            for pred in self._osp.get(o, {}).get(s, ()):
                yield Triple(s, pred, o)
        elif s is not None:
            for pred, objects in self._spo.get(s, {}).items():
                for obj in objects:
                    yield Triple(s, pred, obj)
        elif p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
        elif p is not None:
            for obj, subjects in self._pos.get(p, {}).items():
                for subj in subjects:
                    yield Triple(subj, p, obj)
        elif o is not None:
            for subj, predicates in self._osp.get(o, {}).items():
                for pred in predicates:
                    yield Triple(subj, pred, o)
        else:
            yield from iter(self)

    # ------------------------------------------------------------------
    # Vocabulary views & statistics
    # ------------------------------------------------------------------

    def subjects(self) -> Set[Term]:
        return set(self._spo.keys())

    def predicates(self) -> Set[Term]:
        return set(self._pos.keys())

    def objects(self) -> Set[Term]:
        return set(self._osp.keys())

    def predicate_count(self, predicate: Term) -> int:
        """Triples carrying *predicate* (0 when absent), counted from the
        POS index without visiting a triple."""
        return sum(
            len(subjects) for subjects in self._pos.get(predicate, {}).values()
        )

    def predicate_counts(self) -> Dict[Term, int]:
        """Triples per predicate -- the statistic SPARQLGX and the
        GraphFrames system order joins with."""
        return {p: self.predicate_count(p) for p in self._pos}

    def by_predicate(self) -> Mapping[Term, Mapping[Term, AbstractSet[Term]]]:
        """The POS index itself (predicate -> object -> subjects), for
        read-only walks; ``len`` of a subject set is that object's
        multiplicity under the predicate."""
        return self._pos

    def by_subject(self) -> Mapping[Term, Mapping[Term, AbstractSet[Term]]]:
        """The SPO index itself (subject -> predicate -> objects), for
        read-only walks."""
        return self._spo

    def by_object(self) -> Mapping[Term, Mapping[Term, AbstractSet[Term]]]:
        """The OSP index itself (object -> subject -> predicates), for
        read-only walks."""
        return self._osp

    def types_of(self, subject: Term) -> Set[Term]:
        """Classes the subject has via rdf:type."""
        return set(self._spo.get(subject, {}).get(RDF.type, ()))

    def instances_of(self, cls: URI) -> Set[Term]:
        return set(self._pos.get(RDF.type, {}).get(cls, ()))

    def copy(self) -> "RDFGraph":
        """An independent graph holding the same triples: the three
        indexes are copied container by container (terms are immutable
        and shared), so nothing is re-validated or re-inserted."""
        clone = RDFGraph()
        clone._spo = _copy_index(self._spo)
        clone._pos = _copy_index(self._pos)
        clone._osp = _copy_index(self._osp)
        clone._size = self._size
        return clone

    def to_list(self) -> List[Triple]:
        return sorted(iter(self))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RDFGraph) and set(iter(self)) == set(iter(other))

    def __repr__(self) -> str:
        return "RDFGraph(size=%d)" % self._size
