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

from typing import Dict, List, Optional

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
    compile_pattern,
    fold_joins,
)


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
        self._build_stores(graph, graph.by_predicate())

    def _build_stores(self, graph: RDFGraph, predicates) -> int:
        """(Re)build the stores of *predicates*; returns records written."""
        # One "file" (RDD) per predicate, holding (s, o) pairs only, read
        # off the graph's predicate -> object -> subjects index and sorted
        # by the terms' sort keys, each key taken once per term.
        by_predicate = graph.by_predicate()
        sort_keys: Dict[Term, tuple] = {}
        written = 0
        for predicate in sorted(predicates, key=Term.sort_key):
            pairs, keys = [], []
            for obj, subjects in by_predicate.get(predicate, {}).items():
                object_key = obj.sort_key()
                for subject in subjects:
                    subject_key = sort_keys.get(subject)
                    if subject_key is None:
                        subject_key = sort_keys[subject] = subject.sort_key()
                    pairs.append((subject, obj))
                    keys.append((subject_key, object_key))
            if not pairs:
                # Its last triple was deleted: the file goes.
                self.vp_tables.pop(predicate, None)
                self.vp_sizes.pop(predicate, None)
                continue
            order = sorted(range(len(pairs)), key=keys.__getitem__)
            self.vp_tables[predicate] = self.ctx.parallelize(
                [pairs[index] for index in order]
            ).cache()
            self.vp_sizes[predicate] = len(pairs)
            written += len(pairs)

        # The statistics the survey says SPARQLGX counts -- partition
        # sizes above, and the distinct subjects, predicates and objects
        # -- are sizes of the graph's own indexes: the numbers a
        # StatsCatalog holds, by definition, with no statistics pass.
        self.stats = {
            "distinct_subjects": len(graph.by_subject()),
            "distinct_predicates": len(by_predicate),
            "distinct_objects": len(graph.by_object()),
            "triples": len(graph),
        }
        return written

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
        # files it touches; every other store keeps its cached RDD.
        return self._build_stores(
            graph, {t.predicate for t in (*delta.added, *delta.removed)}
        )

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
        """The bindings of one pattern, scanning only its predicate store."""
        if isinstance(pattern.predicate, Variable):
            # Unbounded predicate: every store must be read.
            result: Optional[RDD] = None
            for predicate, table in self.vp_tables.items():
                part = self._match_in_store(pattern, predicate, table)
                result = part if result is None else result.union(part)
            return result if result is not None else self.ctx.emptyRDD()
        table = self.vp_tables.get(pattern.predicate)
        if table is None:
            return self.ctx.emptyRDD()
        return self._match_in_store(pattern, pattern.predicate, table)

    def _match_in_store(
        self, pattern: TriplePattern, predicate: Term, table: RDD
    ) -> RDD:
        # An (s, o) pair is scanned as it lies: the store's predicate is
        # compared, or bound, when the pattern is compiled.
        return table.mapPartitions(
            compile_pattern(pattern, ("t[0]", predicate, "t[1]")).scan
        )

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        if self.enable_reordering:
            patterns = self._order_patterns(patterns)
        # keyBy on the common variable, or cross product if none.
        return fold_joins(patterns, self._pattern_rdd)
