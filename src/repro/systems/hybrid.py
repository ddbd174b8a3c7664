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

Data is partitioned by subject hash, as in the study.  The DATAFRAME and
HYBRID strategies are a planning policy, :meth:`HybridEngine._plan`, whose
steps run on the optimizer's executor (:mod:`repro.optimizer.executor`),
the one join layer over binding RDDs.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Set

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.optimizer.executor import run_steps
from repro.optimizer.planner import JoinStep
from repro.rdf.graph import RDFGraph
from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner
from repro.spark.rdd import RDD
from repro.spark.sql.session import SparkSession
from repro.sparql.ast import (
    TriplePattern,
    Variable,
    connected_order,
    variables_of,
)
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    fold_joins,
    hash_join_bindings,
    scan_triples,
)
from repro.systems.bgpsql import bgp_to_sql, run_bgp_sql
from repro.systems.localmatch import encode_pattern


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

    def _build(self, graph: RDFGraph) -> None:
        self.dictionary, encoded = graph.encoding()
        self._partitioner = HashPartitioner(self.ctx.default_parallelism)
        keyed = self.ctx.parallelize(encoded).keyBy(lambda t: t[0])
        self.triples = keyed.partitionBy(self._partitioner).values().cache()
        self.triples.count()  # materialize at load: the shuffle is load cost
        # Predicate statistics drive the greedy plan.
        self.predicate_counts = graph.predicate_counts()
        self._encoded = encoded
        # The SQL strategy's session and ``triples`` view, made by its
        # first query: no other strategy reads them.
        self.session: Optional[SparkSession] = None

    def _estimated_size(self, pattern: TriplePattern) -> int:
        if isinstance(pattern.predicate, Variable):
            base = len(self._encoded)
        else:
            base = self.predicate_counts.get(pattern.predicate, 0)
        for position in (pattern.subject, pattern.object):
            if not isinstance(position, Variable):
                base = max(base // 10, 1)
        return base

    def _pattern_rdd(self, pattern: TriplePattern) -> RDD:
        """Bindings of one pattern (reads the whole subject-partitioned set)."""
        try:
            local = encode_pattern(pattern, self.dictionary.lookup_term)
        except KeyError:
            # A query constant never seen in the data: no results.
            return self.ctx.emptyRDD()
        return scan_triples(self.triples, local, preserves_partitioning=True)

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        if self.strategy is JoinStrategy.SPARK_SQL:
            return self._evaluate_sql(patterns)
        if self.strategy is JoinStrategy.RDD:
            # Partitioned joins in the input logical order, never broadcast.
            joined = fold_joins(
                patterns, self._pattern_rdd, join=hash_join_bindings
            )
        elif len(patterns) == 1:
            # Nothing to join (the optimizer's leaf scans come here): no
            # step, so no second ``bgp_step`` inside the optimizer's.
            joined = self._pattern_rdd(patterns[0])
        else:
            joined = run_steps(
                self.ctx,
                self._plan(patterns),
                lambda step: self._pattern_rdd(step.pattern),
            )
        return joined.map(self.dictionary.decode_binding)

    def _evaluate_sql(self, patterns: List[TriplePattern]) -> RDD:
        """Self-joins over the triples table, planned by Catalyst."""
        if self.session is None:
            self.session = SparkSession(self.ctx)
            df = self.session.createDataFrame(self._encoded, ["s", "p", "o"])
            self.session.createOrReplaceTempView("triples", df.cache())
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

    def _plan(self, patterns: List[TriplePattern]) -> List[JoinStep]:
        """The greedy plan of [21]: smallest estimate first, then the
        connected one; a join is broadcast when one side's estimate is
        within the threshold, else partitioned -- or, under the hybrid
        strategy, ``colocated`` when it is on the subject both sides are
        still placed by.
        """
        sizes = [self._estimated_size(pattern) for pattern in patterns]
        order = connected_order(
            sorted(range(len(patterns)), key=sizes.__getitem__),
            names=lambda i: variables_of(patterns[i]),
        )
        colocate = self.strategy is JoinStrategy.HYBRID
        threshold = self.broadcast_threshold
        steps: List[JoinStep] = []
        bound: Set[str] = set()
        placed_by: Optional[str] = None  # the accumulated side's subject
        accumulated = 0  # the accumulated side's estimate
        for index in order:
            pattern, size = patterns[index], sizes[index]
            shared = tuple(sorted(bound & variables_of(pattern)))
            is_variable = isinstance(pattern.subject, Variable)
            subject = pattern.subject.name if is_variable else None
            if not steps:
                strategy, placed_by = "scan", subject
            elif colocate and shared == (placed_by,) == (subject,):
                strategy = "colocated"
            elif size <= threshold:
                strategy = "broadcast" if shared else "cartesian"
            elif shared and accumulated <= threshold:
                strategy, placed_by = "broadcast_accumulated", None
            else:
                strategy = "hash" if shared else "cartesian"
                placed_by = subject if shared == (subject,) else None
            accumulated = max(accumulated, size)
            steps.append(
                JoinStep(index, pattern, shared, strategy, size, accumulated)
            )
            bound |= variables_of(pattern)
        return steps
