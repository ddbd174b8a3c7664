"""SPARQLGX [13]: vertical partitioning with statistics-based join order.

Mechanics reproduced from Section IV-A1 of the paper:

* *Storage* -- the dataset is vertically partitioned: a triple ``(s p o)``
  is stored in a file named after ``p`` whose content keeps only the
  ``(s, o)`` entries.  Queries with bounded predicates therefore read only
  the relevant predicate stores (reduced memory footprint and response
  time).
* *Translation* -- triple patterns are mapped one by one onto the RDD API;
  each sub-query result is joined with the next one sharing a variable
  (``keyBy`` on the common variable); with no common variable the cross
  product is computed.
* *Optimization* -- statistics (counts of all distinct subjects,
  predicates and objects) reorder the join execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.spark.rdd import RDD
from repro.spark.rows import rows
from repro.sparql.ast import TriplePattern, Variable, connected_order
from repro.sparql.fragments import (
    FEATURE_BGP,
    FEATURE_DISTINCT,
    FEATURE_FILTER,
    FEATURE_OPTIONAL,
    FEATURE_ORDER_BY,
    FEATURE_UNION,
)
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    fold_joins,
    scan_triples,
)


#: One store record: a triple's (subject, object).
Pair = Tuple[Term, Term]


def _pair_key(pair: Pair) -> tuple:
    """A record's place in its store: subject, then object, by sort key;
    objects whose keys tie (``"1"^^xsd:int`` and ``"1.0"^^xsd:double``,
    ``"chat"@en`` and ``"chat"@fr``) go by N3 text, so the order is the
    graph's alone, whatever order its index was filled in."""
    return (pair[0].sort_key(), pair[1].sort_key(), pair[1].n3())


def _sorted_pairs(objects, subject_keys: Dict[Term, tuple]) -> List[Pair]:
    """One predicate's (s, o) pairs, from its object -> subjects index, in
    :func:`_pair_key` order.  A pair's key is taken once (a subject's at
    most once per *subject_keys*); N3 text is read only when two objects'
    keys tie."""
    pairs, keys = [], []
    object_keys = set()
    for obj, subjects in objects.items():
        object_key = obj.sort_key()
        object_keys.add(object_key)
        for subject in subjects:
            subject_key = subject_keys.get(subject)
            if subject_key is None:
                subject_key = subject_keys[subject] = subject.sort_key()
            pairs.append((subject, obj))
            keys.append((subject_key, object_key))
    if len(object_keys) < len(objects):
        order = sorted(
            range(len(pairs)),
            key=lambda index: (keys[index], pairs[index][1].n3()),
        )
    else:
        order = sorted(range(len(pairs)), key=keys.__getitem__)
    return [pairs[index] for index in order]


def _position(pairs: List[Pair], pair: Pair) -> int:
    """Where *pair* is, or would go, in the :func:`_pair_key`-sorted
    *pairs* (``bisect_left``'s ``key=`` needs Python 3.10)."""
    key = _pair_key(pair)
    low, high = 0, len(pairs)
    while low < high:
        middle = (low + high) // 2
        if _pair_key(pairs[middle]) < key:
            low = middle + 1
        else:
            high = middle
    return low


def _merge(pairs: List[Pair], removed: List[Pair], added: List[Pair]) -> bool:
    """Bisect each removed pair out of, and each added pair into, the
    :func:`_pair_key`-sorted *pairs*, in place.  False, with *pairs* half
    merged, when a removed pair is not where the order puts it: the
    store did not hold it, or is not in that order."""
    for pair in removed:
        index = _position(pairs, pair)
        if index == len(pairs) or pairs[index] != pair:
            return False
        del pairs[index]
    for pair in added:
        index = _position(pairs, pair)
        if index == len(pairs) or pairs[index] != pair:
            pairs.insert(index, pair)
    return True


class SparqlgxEngine(SparkRdfEngine):
    """Vertically partitioned RDF store on the RDD API."""

    profile = EngineProfile(
        name="SPARQLGX",
        citation="[13]",
        data_model=DataModel.TRIPLE,
        abstractions=(SparkAbstraction.RDD,),
        query_processing=QueryProcessing.RDD_API,
        optimization=Optimization.YES,
        partitioning=PartitioningStrategy.VERTICAL,
        sparql_features=frozenset(
            {
                FEATURE_BGP,
                FEATURE_DISTINCT,
                FEATURE_ORDER_BY,  # the paper's "SORT"
                FEATURE_UNION,
                FEATURE_OPTIONAL,
                FEATURE_FILTER,
            }
        ),
        contribution=Contribution.ALL_QUERY_TYPES,
        description=(
            "One (s, o) store per predicate; statistics-driven join "
            "reordering."
        ),
    )

    def __init__(self, ctx=None, enable_reordering: bool = True) -> None:
        super().__init__(ctx)
        #: Ablation switch: disable the statistics-based join reordering.
        self.enable_reordering = enable_reordering

    def _build(self, graph: RDFGraph) -> None:
        self.vp_tables: Dict[Term, RDD] = {}
        self.vp_sizes: Dict[Term, int] = {}
        # One "file" (RDD) per predicate, holding (s, o) pairs only, read
        # off the graph's predicate -> object -> subjects index; a
        # subject's sort key is taken once for all its stores.
        by_predicate = graph.by_predicate()
        subject_keys: Dict[Term, tuple] = {}
        for predicate in sorted(by_predicate, key=Term.sort_key):
            self._store(
                predicate, _sorted_pairs(by_predicate[predicate], subject_keys)
            )
        self._count(graph)

    def _store(self, predicate: Term, pairs: List[Pair]) -> int:
        """Make *pairs* the store of *predicate*; returns records written."""
        if not pairs:
            # Its last triple was deleted: the file goes.
            self.vp_tables.pop(predicate, None)
            self.vp_sizes.pop(predicate, None)
            return 0
        self.vp_tables[predicate] = self.ctx.parallelize(pairs).cache()
        self.vp_sizes[predicate] = len(pairs)
        return len(pairs)

    def _count(self, graph: RDFGraph) -> None:
        # The statistics the survey says SPARQLGX counts -- partition
        # sizes above, and the distinct subjects, predicates and objects
        # -- are sizes of the graph's own indexes: the numbers a
        # StatsCatalog holds, by definition, with no statistics pass.
        self.stats = {
            "distinct_subjects": len(graph.by_subject()),
            "distinct_predicates": len(graph.by_predicate()),
            "distinct_objects": len(graph.by_object()),
            "triples": len(graph),
        }

    def __copy__(self) -> "SparqlgxEngine":
        # apply_delta rewrites the two maps in place: a copy gets its own,
        # so the engine it was taken from answers at its version whatever
        # happens to the copy (a service stages a commit on one).
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.vp_tables = dict(self.vp_tables)
        twin.vp_sizes = dict(self.vp_sizes)
        return twin

    def apply_delta(self, delta, graph: RDFGraph) -> int:
        # Vertical partitioning localizes a change to the predicate
        # files it touches; every other store keeps its cached RDD.  A
        # touched store is the old one with the delta's pairs merged in.
        # A delta pair costs the merge about log2(n) bisection steps; an
        # enumeration costs about two steps' time per pair of the store
        # (timed, EXPERIMENTS.md COMMIT-DELTA).  So a new store, or a
        # delta of more than 2n / log2(n) pairs, is enumerated afresh,
        # into the same order (_pair_key is total); so is a store the
        # merge finds out of that order.
        changes: Dict[Term, Tuple[List[Pair], List[Pair]]] = {}
        for side, triples in enumerate((delta.removed, delta.added)):
            for triple in triples:
                changes.setdefault(triple.predicate, ([], []))[side].append(
                    (triple.subject, triple.object)
                )
        by_predicate = graph.by_predicate()
        written = 0
        for predicate in sorted(changes, key=Term.sort_key):
            removed, added = changes[predicate]
            size = self.vp_sizes.get(predicate, 0)
            changed = len(removed) + len(added)
            pairs = None
            if size and changed * size.bit_length() <= 2 * size:
                pairs = self.vp_tables[predicate].items()
            if pairs is None or not _merge(pairs, removed, added):
                pairs = _sorted_pairs(by_predicate.get(predicate, {}), {})
            written += self._store(predicate, pairs)
        self._count(graph)
        return written

    # ------------------------------------------------------------------

    def _estimated_cardinality(self, pattern: TriplePattern) -> float:
        """Stats-based selectivity estimate used to reorder joins."""
        if isinstance(pattern.predicate, Variable):
            base = float(self.stats["triples"])
        else:
            base = float(self.vp_sizes.get(pattern.predicate, 0))
        if not isinstance(pattern.subject, Variable):
            base /= max(self.stats["distinct_subjects"], 1)
        if not isinstance(pattern.object, Variable):
            base /= max(self.stats["distinct_objects"], 1)
        return base

    def _order_patterns(
        self, patterns: List[TriplePattern]
    ) -> List[TriplePattern]:
        """Most selective first, then greedily keep joins connected."""
        return connected_order(
            sorted(patterns, key=self._estimated_cardinality)
        )

    def _pattern_rdd(self, pattern: TriplePattern) -> RDD:
        """The rows of one pattern, scanning only its predicate store."""
        if isinstance(pattern.predicate, Variable):
            # Unbounded predicate: every store must be read.
            result: Optional[RDD] = None
            for predicate, table in self.vp_tables.items():
                part = self._match_in_store(pattern, predicate, table)
                result = part if result is None else result.union(part)
            if result is not None:
                return rows(result, part.header)
        else:
            table = self.vp_tables.get(pattern.predicate)
            if table is not None:
                return self._match_in_store(pattern, pattern.predicate, table)
        return self._no_rows([pattern])

    def _match_in_store(
        self, pattern: TriplePattern, predicate: Term, table: RDD
    ) -> RDD:
        # An (s, o) pair is scanned as it lies: the store's predicate is
        # compared, or bound, when the pattern is compiled.
        return scan_triples(table, pattern, layout=("t[0]", predicate, "t[1]"))

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        if self.enable_reordering:
            patterns = self._order_patterns(patterns)
        # keyBy on the common variable, or cross product if none.
        return fold_joins(patterns, self._pattern_rdd)
