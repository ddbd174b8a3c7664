"""The hybrid join study of Naacke, Amann & Curé [21].

Section IV-A3 of the paper analyzes how SPARQL BGP joins map onto each
Spark abstraction and proposes a hybrid plan:

* **SPARK_SQL** -- translate the BGP to SQL over a single triples table and
  let Catalyst plan it.  Its published drawback: multi-pattern queries can
  degenerate into cartesian products.
* **RDD** -- each join becomes a partitioned join, in the query's pattern
  order; the whole dataset is re-read for every triple pattern.  Never
  uses a broadcast even when the build side is tiny.
* **DATAFRAME** -- columnar storage plus a size-threshold broadcast join:
  a build side smaller than the threshold ships to every executor instead
  of shuffling.  Ignores existing partitioning and considers only sizes.
* **HYBRID** -- the paper's contribution: a greedy cost-based plan that
  mixes broadcast and partitioned joins and exploits the existing
  subject-hash partitioning to avoid useless data transfer (subject-
  subject joins are already co-located, so they never shuffle and never
  broadcast).

Data is partitioned by subject hash, as in the study.
"""

from __future__ import annotations

from enum import Enum
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
from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner
from repro.spark.rdd import RDD
from repro.spark.sql.session import SparkSession
from repro.sparql.ast import TriplePattern, Variable, connected_order
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    fold_joins,
    hash_join_bindings,
    key_bindings,
    merge_joined,
    scan_triples,
)
from repro.systems.bgpsql import bgp_to_sql, run_bgp_sql
from repro.systems.localmatch import encode_pattern


def _subject_variable(pattern: TriplePattern) -> Optional[str]:
    """The name of *pattern*'s subject variable; None for a constant."""
    subject = pattern.subject
    return subject.name if isinstance(subject, Variable) else None


class JoinStrategy(Enum):
    """The four execution strategies compared by [21]."""

    SPARK_SQL = "sql"
    RDD = "rdd"
    DATAFRAME = "dataframe"
    HYBRID = "hybrid"


class HybridEngine(SparkRdfEngine):
    """BGP evaluation under a selectable join strategy."""

    profile = EngineProfile(
        name="SPARQL-Hybrid",
        citation="[21]",
        data_model=DataModel.TRIPLE,
        abstractions=(
            SparkAbstraction.RDD,
            SparkAbstraction.DATAFRAMES,
        ),
        query_processing=QueryProcessing.HYBRID,
        optimization=Optimization.YES,
        partitioning=PartitioningStrategy.HASH_SUBJECT,
        sparql_features=frozenset({FEATURE_BGP}),
        contribution=Contribution.JOIN_STRATEGY,
        description=(
            "Greedy cost-based mix of broadcast and partitioned joins over "
            "subject-hash-partitioned triples."
        ),
    )

    def __init__(
        self,
        ctx: Optional[SparkContext] = None,
        strategy: JoinStrategy = JoinStrategy.HYBRID,
        broadcast_threshold: int = 200,
    ) -> None:
        super().__init__(ctx)
        self.strategy = strategy
        #: Build sides with at most this many records are broadcast.
        self.broadcast_threshold = broadcast_threshold

    # ------------------------------------------------------------------
    # Build: subject-hash partitioned triples + DataFrame + SQL views
    # ------------------------------------------------------------------

    def _build(self, graph: RDFGraph) -> None:
        self.dictionary, encoded = graph.encoding()
        self._partitioner = HashPartitioner(self.ctx.default_parallelism)
        keyed = self.ctx.parallelize(encoded).keyBy(lambda t: t[0])
        self.triples = keyed.partitionBy(self._partitioner).values().cache()
        self.triples.count()  # materialize at load: the shuffle is load cost
        # Predicate statistics drive the greedy hybrid optimizer.
        self.predicate_counts: Dict[int, int] = {}
        for _s, p, _o in encoded:
            self.predicate_counts[p] = self.predicate_counts.get(p, 0) + 1
        self.session = SparkSession(self.ctx)
        df = self.session.createDataFrame(encoded, ["s", "p", "o"])
        self.session.createOrReplaceTempView("triples", df.cache())
        self.total_triples = len(encoded)

    def _estimated_size(self, pattern: TriplePattern) -> int:
        if isinstance(pattern.predicate, Variable):
            base = self.total_triples
        else:
            base = self.predicate_counts.get(
                self.dictionary.get(pattern.predicate), 0
            )
        if not isinstance(pattern.subject, Variable):
            base = max(base // 10, 1)
        if not isinstance(pattern.object, Variable):
            base = max(base // 10, 1)
        return base

    # ------------------------------------------------------------------
    # Pattern scans
    # ------------------------------------------------------------------

    def _pattern_rdd(self, pattern: TriplePattern) -> RDD:
        """Bindings of one pattern (reads the whole subject-partitioned set)."""
        try:
            local = encode_pattern(pattern, self.dictionary.lookup_term)
        except KeyError:
            # A query constant never seen in the data: no results.
            return self.ctx.emptyRDD()
        return scan_triples(self.triples, local, preserves_partitioning=True)

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        if self.strategy is JoinStrategy.SPARK_SQL:
            return self._evaluate_sql(patterns)
        if self.strategy is JoinStrategy.RDD:
            # Partitioned joins in the input logical order, never broadcast.
            joined = fold_joins(
                patterns, self._pattern_rdd, join=hash_join_bindings
            )
        else:
            joined = self._evaluate_generic(
                patterns,
                use_partitioning=self.strategy is JoinStrategy.HYBRID,
            )
        return joined.map(self.dictionary.decode_binding)

    def _evaluate_sql(self, patterns: List[TriplePattern]) -> RDD:
        """Self-joins over the triples table, planned by Catalyst."""
        compiled = bgp_to_sql(
            patterns,
            ["triples"] * len(patterns),
            "triples",
            self.dictionary.get,
        )
        if compiled is None:
            return self.ctx.emptyRDD()
        self.last_sql, variables = compiled
        return run_bgp_sql(
            self.session, self.dictionary, self.last_sql, variables
        )

    def _evaluate_generic(
        self, patterns: List[TriplePattern], use_partitioning: bool
    ) -> RDD:
        """Greedy plan: smallest-first, broadcast/partitioned per join.

        With *use_partitioning*, subject-subject joins keep the bindings
        keyed by the subject so the existing subject-hash placement makes
        the join shuffle-free -- the hybrid strategy's advantage.
        """
        ordered = connected_order(sorted(patterns, key=self._estimated_size))
        # What the plan knows of the accumulated side, starting from the
        # first pattern; fold_joins brings the others in, in this order.
        incoming = iter(ordered)
        first = next(incoming)
        result_size = self._estimated_size(first)
        subject_keyed_var = _subject_variable(first)

        def join(result: RDD, matches: RDD, shared: List[str]) -> RDD:
            nonlocal result_size, subject_keyed_var
            pattern = next(incoming)
            size = self._estimated_size(pattern)
            subject_var = _subject_variable(pattern)
            accumulated_size = result_size
            result_size = max(result_size, size)
            if (
                use_partitioning
                and subject_keyed_var is not None
                and shared == [subject_keyed_var]
                and subject_var == subject_keyed_var
            ):
                # Both sides derive from the same subject-hash placement:
                # zip partitions locally, no shuffle, no broadcast.
                return self._local_subject_join(result, matches, shared[0])
            if size <= self.broadcast_threshold:
                return self._broadcast_join(result, matches, shared)
            if shared and accumulated_size <= self.broadcast_threshold:
                # The accumulated side is the small one: broadcast it and
                # probe with the new pattern's (larger) match stream.
                subject_keyed_var = None
                return self._broadcast_join(matches, result, shared)
            if subject_var is not None and shared == [subject_var]:
                subject_keyed_var = subject_var
            else:
                subject_keyed_var = None
            return hash_join_bindings(result, matches, shared)

        return fold_joins(ordered, self._pattern_rdd, join=join)

    # ------------------------------------------------------------------
    # Join operators
    # ------------------------------------------------------------------

    def _broadcast_join(
        self, left: RDD, right: RDD, shared: List[str]
    ) -> RDD:
        if not shared:
            return hash_join_bindings(left, right, shared)
        return merge_joined(
            key_bindings(left, shared).broadcastJoin(
                key_bindings(right, shared)
            )
        )

    def _local_subject_join(
        self, left: RDD, right: RDD, subject_var: str
    ) -> RDD:
        """Partition-local join of two subject-anchored binding streams.

        Both inputs are derived from the subject-partitioned store with
        partitioning preserved, so bindings for one subject live in the
        same partition index on both sides.
        """

        def keyed(part: List[dict]) -> List[tuple]:
            return [(b[subject_var], b) for b in part]

        left_keyed = left.mapPartitions(keyed)
        right_keyed = right.mapPartitions(keyed)
        left_placed = left_keyed.partitionBy(self._partitioner)
        right_placed = right_keyed.partitionBy(self._partitioner)
        return merge_joined(left_placed.join(right_placed))
