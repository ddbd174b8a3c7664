"""Incremental updates to running engines ("uninterrupted" evolution).

Section V asks that "the next generation parallel RDF query answering
systems should be able to handle evolving data in an uninterrupted
manner".  The surveyed systems all assume load-once data; this module
retrofits incremental updates onto two of them:

* :class:`UpdatableSparqlgxEngine` -- vertical partitioning localizes a
  change to the predicate stores it touches: an update rebuilds only
  those stores and adjusts statistics, leaving every other predicate's
  RDD (and its cache) intact.
* :class:`UpdatableNaiveEngine` -- the contrast case: a single triples
  RDD means every update rewrites the whole store.

Both track ``last_update_touched`` (records rewritten by the last update)
so the benefit is measurable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.rdf.triple import Triple
from repro.systems.naive import NaiveEngine
from repro.systems.sparqlgx import SparqlgxEngine


class UpdatableSparqlgxEngine(SparqlgxEngine):
    """SPARQLGX with per-predicate incremental updates."""

    def _build(self, graph: RDFGraph) -> None:
        super()._build(graph)
        self._pairs: Dict[Term, List[Tuple[Term, Term]]] = {}
        for predicate, table in self.vp_tables.items():
            self._pairs[predicate] = table.collect()
        self._subjects: Set[Term] = set(graph.subjects())
        self._objects: Set[Term] = set(graph.objects())
        self.last_update_touched = 0

    def apply_update(
        self,
        additions: Iterable[Triple] = (),
        deletions: Iterable[Triple] = (),
    ) -> int:
        """Apply a change set in place; returns records rewritten.

        Only the vertical stores of the touched predicates are rebuilt;
        untouched predicates keep their cached RDDs.
        """
        additions = list(additions)
        deletions = list(deletions)
        touched: Set[Term] = set()

        for triple in deletions:
            pairs = self._pairs.get(triple.predicate)
            if pairs is None:
                continue
            entry = (triple.subject, triple.object)
            if entry in pairs:
                pairs.remove(entry)
                touched.add(triple.predicate)
        for triple in additions:
            pairs = self._pairs.setdefault(triple.predicate, [])
            entry = (triple.subject, triple.object)
            if entry not in pairs:
                pairs.append(entry)
                touched.add(triple.predicate)
                self._subjects.add(triple.subject)
                self._objects.add(triple.object)

        rewritten = 0
        # Sorted: the rebuild order decides RDD ids and vp_tables
        # insertion order, which would otherwise follow set order.
        for predicate in sorted(touched, key=lambda term: term.sort_key()):
            pairs = sorted(
                self._pairs[predicate],
                key=lambda so: (so[0].sort_key(), so[1].sort_key()),
            )
            self._pairs[predicate] = pairs
            if pairs:
                self.vp_tables[predicate] = self.ctx.parallelize(
                    pairs
                ).cache()
                self.vp_sizes[predicate] = len(pairs)
            else:
                self.vp_tables.pop(predicate, None)
                self.vp_sizes.pop(predicate, None)
                self._pairs.pop(predicate, None)
            rewritten += len(pairs)

        # Statistics stay query-optimizer-grade without a full recount.
        self.stats["triples"] = sum(self.vp_sizes.values())
        self.stats["distinct_subjects"] = len(self._subjects)
        self.stats["distinct_objects"] = len(self._objects)
        self.stats["distinct_predicates"] = len(self.vp_tables)
        self.last_update_touched = rewritten
        return rewritten


class UpdatableNaiveEngine(NaiveEngine):
    """Naive engine where any update rewrites the whole store."""

    def _build(self, graph: RDFGraph) -> None:
        self._triples: Set[Tuple[Term, Term, Term]] = {
            t.as_tuple() for t in graph
        }
        self._refresh()
        self.last_update_touched = 0

    def _refresh(self) -> None:
        self.triples = self.ctx.parallelize(sorted(self._triples)).cache()

    def apply_update(
        self,
        additions: Iterable[Triple] = (),
        deletions: Iterable[Triple] = (),
    ) -> int:
        for triple in deletions:
            self._triples.discard(triple.as_tuple())
        for triple in additions:
            self._triples.add(triple.as_tuple())
        self._refresh()
        self.last_update_touched = len(self._triples)
        return self.last_update_touched
