"""An indexed in-memory RDF graph.

This is the "local truth" every distributed engine is validated against:
it stores triples in SPO/POS/OSP hash indexes and answers single-pattern
lookups with any combination of bound positions.  It is also the loading
format -- engines ingest an :class:`RDFGraph` and build their own
distributed representation from it.

Three load-time layouts hang off the graph, built on first use and
shared read-only by every engine that loads this version of it: the
canonical triple order (:meth:`RDFGraph.canonical_order`), the dictionary
encoding (:meth:`RDFGraph.encoding`) and the vertex list
(:meth:`RDFGraph.vertices`).  Any ``add`` or ``remove`` that changes the
graph drops all three (docs/ARCHITECTURE.md, "Load-time layouts").
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

from repro.rdf.encoding import Dictionary, GraphEncoding
from repro.rdf.terms import Term, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF

_Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]
_TermTriple = Tuple[Term, Term, Term]
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
        self._order: Optional[Tuple[_TermTriple, ...]] = None
        self._encoding: Optional[GraphEncoding] = None
        self._vertices: Optional[Tuple[Term, ...]] = None
        if triples:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False when it was already present."""
        row = (triple.subject, triple.predicate, triple.object)
        return self.add_rows((row,)) == 1

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many; returns how many were new."""
        return self.add_rows(map(Triple.as_tuple, triples))

    def add_rows(self, rows: Iterable[_TermTriple]) -> int:
        """Insert ``(s, p, o)`` term rows; returns how many were new.

        The one insertion loop: :meth:`add`, :meth:`add_all` and the
        N-Triples loader (which hands its rows over without building a
        :class:`Triple`) all come here.  The caller vouches for the
        positions -- a subject that is a URI or blank node, a URI
        predicate.  Keys enter each index in the order the rows first
        bring them.  The size and the layout drop are settled also when
        *rows* raises part way, so the graph holds what was read.
        """
        spo, pos, osp = self._spo, self._pos, self._osp
        spo_get, pos_get, osp_get = spo.get, pos.get, osp.get
        added = 0
        try:
            for s, p, o in rows:
                by_predicate = spo_get(s)
                if by_predicate is None:
                    spo[s] = {p: {o}}
                else:
                    objects = by_predicate.get(p)
                    if objects is None:
                        by_predicate[p] = {o}
                    elif o in objects:
                        continue
                    else:
                        objects.add(o)
                by_object = pos_get(p)
                if by_object is None:
                    pos[p] = {o: {s}}
                else:
                    subjects = by_object.get(o)
                    if subjects is None:
                        by_object[o] = {s}
                    else:
                        subjects.add(s)
                by_subject = osp_get(o)
                if by_subject is None:
                    osp[o] = {s: {p}}
                else:
                    predicates = by_subject.get(s)
                    if predicates is None:
                        by_subject[s] = {p}
                    else:
                        predicates.add(p)
                added += 1
        finally:
            if added:
                self._size += added
                self._order = self._encoding = self._vertices = None
        return added

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
        self._order = self._encoding = self._vertices = None
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
    # Load-time layouts
    # ------------------------------------------------------------------

    def canonical_order(self) -> Tuple[_TermTriple, ...]:
        """Every triple as an ``(s, p, o)`` tuple, in ``sorted(graph)``
        order (ties included: the same comparator over the same
        iteration order).  Built on first use, shared by every caller
        until the next change; a tuple, so nobody can reorder it."""
        order = self._order
        if order is None:
            order = self._order = tuple(
                sorted(
                    (s, p, o)
                    for s, predicates in self._spo.items()
                    for p, objects in predicates.items()
                    for o in objects
                )
            )
        return order

    def encoding(self) -> GraphEncoding:
        """The frozen dictionary and the id triples of
        :meth:`canonical_order`, ids handed out in that order.  Built on
        first use, shared by every caller until the next change."""
        encoding = self._encoding
        if encoding is None:
            dictionary = Dictionary()
            triples = tuple(dictionary.encode_graph(self))
            dictionary.freeze()
            encoding = self._encoding = GraphEncoding(dictionary, triples)
        return encoding

    def vertices(self) -> Tuple[Term, ...]:
        """Every subject and object once, by ``sort_key()`` (terms whose
        keys tie keep the set's iteration order): the vertex list of the
        graph engines.  Built on first use, shared by every caller until
        the next change."""
        vertices = self._vertices
        if vertices is None:
            vertices = self._vertices = tuple(
                sorted(
                    self.subjects() | self.objects(),
                    key=lambda t: t.sort_key(),
                )
            )
        return vertices

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
        and shared), so nothing is re-validated or re-inserted.  The
        copy starts without layouts."""
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
