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
from typing import Dict, List, Optional, Set, Tuple

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.rdf.encoding import Dictionary
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner
from repro.spark.rdd import RDD
from repro.spark.sql.session import SparkSession
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    compile_pattern,
    pattern_variables,
)


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
        self.dictionary = Dictionary()
        encoded = [self.dictionary.encode(t).as_tuple() for t in sorted(graph)]
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

    def _encode(self, term: Term) -> Optional[int]:
        if term not in self.dictionary:
            return None
        return self.dictionary.lookup_term(term)

    def _estimated_size(self, pattern: TriplePattern) -> int:
        if isinstance(pattern.predicate, Variable):
            base = self.total_triples
        else:
            encoded = self._encode(pattern.predicate)
            base = self.predicate_counts.get(encoded, 0) if encoded is not None else 0
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
        encoded_pattern = self._encode_pattern(pattern)
        if encoded_pattern is None:
            return self.ctx.emptyRDD()

        match = compile_pattern(encoded_pattern)

        def scan(part: List[Tuple[int, int, int]]) -> List[dict]:
            out = []
            for triple in part:
                binding = match(triple)
                if binding is not None:
                    out.append(binding)
            return out

        return self.triples.mapPartitions(scan, preserves_partitioning=True)

    def _encode_pattern(
        self, pattern: TriplePattern
    ) -> Optional[TriplePattern]:
        positions = []
        for value in pattern.positions():
            if isinstance(value, Variable):
                positions.append(value)
            else:
                encoded = self._encode(value)
                if encoded is None:
                    return None
                positions.append(encoded)
        return TriplePattern(*positions)

    def _decode_bindings(self, rdd: RDD) -> RDD:
        dictionary = self.dictionary
        return rdd.map(
            lambda binding: {
                name: dictionary.decode_id(value)
                for name, value in binding.items()
            }
        )

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        if self.strategy is JoinStrategy.SPARK_SQL:
            return self._evaluate_sql(patterns)
        if self.strategy is JoinStrategy.RDD:
            return self._evaluate_rdd(patterns)
        if self.strategy is JoinStrategy.DATAFRAME:
            return self._evaluate_generic(patterns, use_threshold=True, use_partitioning=False)
        return self._evaluate_generic(
            patterns, use_threshold=True, use_partitioning=True
        )

    def _evaluate_sql(self, patterns: List[TriplePattern]) -> RDD:
        """Self-joins over the triples table, planned by Catalyst."""
        variables: List[str] = []
        var_source: Dict[str, str] = {}
        from_parts: List[str] = []
        where_parts: List[str] = []
        for k, pattern in enumerate(patterns):
            alias = "t%d" % k
            conditions: List[str] = []
            for position, column in (
                ("subject", "s"),
                ("predicate", "p"),
                ("object", "o"),
            ):
                value = getattr(pattern, position)
                qualified = "%s.%s" % (alias, column)
                if isinstance(value, Variable):
                    if value.name in var_source:
                        conditions.append(
                            "%s = %s" % (qualified, var_source[value.name])
                        )
                    else:
                        var_source[value.name] = qualified
                        variables.append(value.name)
                else:
                    encoded = self._encode(value)
                    if encoded is None:
                        return self.ctx.emptyRDD()
                    where_parts.append("%s = %d" % (qualified, encoded))
            if k == 0:
                from_parts.append("triples AS %s" % alias)
                where_parts.extend(conditions)
            elif conditions:
                from_parts.append(
                    "JOIN triples AS %s ON %s" % (alias, " AND ".join(conditions))
                )
            else:
                from_parts.append("CROSS JOIN triples AS %s" % alias)
        select_list = ", ".join(
            "%s AS %s" % (var_source[name], name) for name in variables
        ) or "t0.s AS one"
        sql = "SELECT %s FROM %s" % (select_list, " ".join(from_parts))
        if where_parts:
            sql += " WHERE %s" % " AND ".join(where_parts)
        self.last_sql = sql
        result = self.session.sql(sql)
        names = list(result.columns)
        dictionary = self.dictionary

        def decode(values: tuple) -> dict:
            return {
                name: dictionary.decode_id(value)
                for name, value in zip(names, values)
                if name in variables
            }

        return result.rdd.map(decode)

    def _evaluate_rdd(self, patterns: List[TriplePattern]) -> RDD:
        """Partitioned joins in the input logical order, never broadcast."""
        result: Optional[RDD] = None
        bound: Set[str] = set()
        for pattern in patterns:
            matches = self._pattern_rdd(pattern)
            if result is None:
                result = matches
                bound = set(pattern_variables([pattern]))
                continue
            shared = sorted(bound & set(pattern_variables([pattern])))
            result = self._partitioned_join(result, matches, shared)
            bound |= set(pattern_variables([pattern]))
        assert result is not None
        return self._decode_bindings(result)

    def _evaluate_generic(
        self,
        patterns: List[TriplePattern],
        use_threshold: bool,
        use_partitioning: bool,
    ) -> RDD:
        """Greedy plan: smallest-first, broadcast/partitioned per join.

        With *use_partitioning*, subject-subject joins keep the bindings
        keyed by the subject so the existing subject-hash placement makes
        the join shuffle-free -- the hybrid strategy's advantage.
        """
        order = sorted(range(len(patterns)), key=lambda i: self._estimated_size(patterns[i]))
        ordered: List[int] = [order.pop(0)]
        bound = {v.name for v in patterns[ordered[0]].variables()}
        while order:
            position = next(
                (
                    pos
                    for pos, i in enumerate(order)
                    if bound & {v.name for v in patterns[i].variables()}
                ),
                0,
            )
            chosen = order.pop(position)
            ordered.append(chosen)
            bound |= {v.name for v in patterns[chosen].variables()}

        result: Optional[RDD] = None
        result_vars: Set[str] = set()
        result_size = 0
        subject_keyed_var: Optional[str] = None
        for index in ordered:
            pattern = patterns[index]
            matches = self._pattern_rdd(pattern)
            size = self._estimated_size(pattern)
            subject_var = (
                pattern.subject.name
                if isinstance(pattern.subject, Variable)
                else None
            )
            if result is None:
                result = matches
                result_vars = set(pattern_variables([pattern]))
                result_size = size
                subject_keyed_var = subject_var
                continue
            shared = sorted(result_vars & set(pattern_variables([pattern])))
            local_ok = (
                use_partitioning
                and subject_keyed_var is not None
                and shared == [subject_keyed_var]
                and subject_var == subject_keyed_var
            )
            if local_ok:
                # Both sides derive from the same subject-hash placement:
                # zip partitions locally, no shuffle, no broadcast.
                result = self._local_subject_join(result, matches, shared[0])
            elif use_threshold and size <= self.broadcast_threshold:
                result = self._broadcast_join(result, matches, shared)
            elif (
                use_threshold
                and shared
                and result_size <= self.broadcast_threshold
            ):
                # The accumulated side is the small one: broadcast it and
                # probe with the new pattern's (larger) match stream.
                result = self._broadcast_join(matches, result, shared)
                subject_keyed_var = None
            else:
                result = self._partitioned_join(result, matches, shared)
                if subject_var is not None and shared == [subject_var]:
                    subject_keyed_var = subject_var
                else:
                    subject_keyed_var = None
            result_vars |= set(pattern_variables([pattern]))
            result_size = max(result_size, size)
        assert result is not None
        return self._decode_bindings(result)

    # ------------------------------------------------------------------
    # Join operators
    # ------------------------------------------------------------------

    @staticmethod
    def _key_of(shared: List[str]):
        def key(binding: dict):
            return tuple(binding[name] for name in shared)

        return key

    def _partitioned_join(
        self, left: RDD, right: RDD, shared: List[str]
    ) -> RDD:
        if not shared:
            return left.cartesian(right).map(
                lambda pair: {**pair[0], **pair[1]}
            )
        key = self._key_of(shared)
        joined = left.map(lambda b: (key(b), b)).join(
            right.map(lambda b: (key(b), b))
        )
        return joined.map(lambda kv: {**kv[1][0], **kv[1][1]})

    def _broadcast_join(
        self, left: RDD, right: RDD, shared: List[str]
    ) -> RDD:
        if not shared:
            return left.cartesian(right).map(
                lambda pair: {**pair[0], **pair[1]}
            )
        key = self._key_of(shared)
        joined = left.map(lambda b: (key(b), b)).broadcastJoin(
            right.map(lambda b: (key(b), b))
        )
        return joined.map(lambda kv: {**kv[1][0], **kv[1][1]})

    def _local_subject_join(
        self, left: RDD, right: RDD, subject_var: str
    ) -> RDD:
        """Partition-local join of two subject-anchored binding streams.

        Both inputs are derived from the subject-partitioned store with
        partitioning preserved, so bindings for one subject live in the
        same partition index on both sides.
        """
        left_keyed = left.map(lambda b: (b[subject_var], b))
        right_keyed = right.map(lambda b: (b[subject_var], b))
        left_placed = left_keyed.partitionBy(self._partitioner)
        right_placed = right_keyed.partitionBy(self._partitioner)
        joined = left_placed.join(right_placed)
        return joined.map(lambda kv: {**kv[1][0], **kv[1][1]})
