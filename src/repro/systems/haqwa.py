"""HAQWA [7]: hash-based and query-workload-aware distributed RDF store.

Mechanics reproduced from Section IV-A1 of the paper:

1. *Fragmentation step one* -- hash partitioning on triple **subjects**, so
   every star-shaped sub-query evaluates locally.
2. *Fragmentation step two* -- allocation driven by an analysis of the
   frequent queries: for every linking predicate a frequent query uses to
   hop from one star to another, the triples of the hop's target subject
   are **replicated** into the partition holding the source subject, so the
   whole frequent query becomes partition-local.
3. *Encoding* -- all term strings are dictionary-encoded to integers before
   distribution, shrinking data volume (and shuffle bytes).
4. *Query time* -- the pattern is decomposed into star-shaped local
   sub-queries; a seed sub-query anchors evaluation; when replication
   covers the query's linking predicates the entire pattern runs locally,
   otherwise the engine falls back to shuffle joins between local stars.

Evaluation maps onto the RDD API (mapPartitions / join / filter), like the
original.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.data.workload import QueryWorkload
from repro.partitioning.store import SubjectIndexes
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner, stable_hash
from repro.spark.rdd import RDD
from repro.spark.rows import decoder, rows
from repro.sparql.ast import TriplePattern, Variable, connected_order
from repro.sparql.fragments import (
    FEATURE_BGP,
    FEATURE_DISTINCT,
    FEATURE_FILTER,
    FEATURE_LIMIT,
    FEATURE_OFFSET,
    FEATURE_ORDER_BY,
    FEATURE_UNION,
)
from repro.systems.base import EngineProfile, SparkRdfEngine, fold_joins
from repro.systems.localmatch import compile_bgp_local, encode_pattern


def group_by_subject(
    patterns: Sequence[TriplePattern],
) -> List[List[TriplePattern]]:
    """Star-shaped sub-queries: patterns grouped by their subject."""
    groups: Dict[object, List[TriplePattern]] = {}
    order: List[object] = []
    for pattern in patterns:
        key = pattern.subject
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(pattern)
    return [groups[key] for key in order]


def linking_predicates(
    patterns: Sequence[TriplePattern],
) -> Set[Term]:
    """Constant predicates whose object is another group's subject variable."""
    subjects = {
        p.subject for p in patterns if isinstance(p.subject, Variable)
    }
    links: Set[Term] = set()
    for pattern in patterns:
        if (
            isinstance(pattern.object, Variable)
            and pattern.object in subjects
            and pattern.object != pattern.subject
            and not isinstance(pattern.predicate, Variable)
        ):
            links.add(pattern.predicate)
    return links


class HaqwaEngine(SparkRdfEngine):
    """Hash + query-workload-aware RDF store on the RDD API."""

    profile = EngineProfile(
        name="HAQWA",
        citation="[7]",
        data_model=DataModel.TRIPLE,
        abstractions=(SparkAbstraction.RDD,),
        query_processing=QueryProcessing.RDD_API,
        optimization=Optimization.NO,
        partitioning=PartitioningStrategy.HASH_QUERY_AWARE,
        sparql_features=frozenset(
            {
                FEATURE_BGP,
                FEATURE_FILTER,
                FEATURE_UNION,
                FEATURE_DISTINCT,
                FEATURE_ORDER_BY,
                FEATURE_LIMIT,
                FEATURE_OFFSET,
            }
        ),
        contribution=Contribution.STAR_QUERIES,
        description=(
            "Subject-hash fragmentation with workload-aware replica "
            "allocation and integer encoding."
        ),
    )

    def __init__(
        self,
        ctx: Optional[SparkContext] = None,
        workload: Optional[QueryWorkload] = None,
        frequent_top: int = 3,
    ) -> None:
        super().__init__(ctx)
        self.workload = workload
        self.frequent_top = frequent_top

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _build(self, graph: RDFGraph) -> None:
        self.dictionary, encoded = graph.encoding()
        num_partitions = self.ctx.default_parallelism
        self._num_partitions = num_partitions

        partitions: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(num_partitions)
        ]
        home: Dict[int, int] = {}
        subject_triples: Dict[int, List[Tuple[int, int, int]]] = {}
        for triple in encoded:
            index = self._partition_of(triple[0])
            home[triple[0]] = index
            partitions[index].append(triple)
            subject_triples.setdefault(triple[0], []).append(triple)

        # Step two: workload-aware replica allocation.
        self._replicated_predicates: Set[int] = set()
        self.replicated_triples = 0
        if self.workload is not None:
            for weighted in self.workload.most_frequent(self.frequent_top):
                patterns = weighted.query.where.triple_patterns()
                for predicate in linking_predicates(patterns):
                    predicate_id = self.dictionary.get(predicate)
                    if predicate_id is not None:
                        self._replicated_predicates.add(predicate_id)
            already_placed = [set(p) for p in partitions]
            for triple in encoded:
                if triple[1] not in self._replicated_predicates:
                    continue
                source_partition = self._partition_of(triple[0])
                target_subject = triple[2]
                for target_triple in subject_triples.get(target_subject, ()):
                    if target_triple in already_placed[source_partition]:
                        continue
                    partitions[source_partition].append(target_triple)
                    already_placed[source_partition].add(target_triple)
                    self.replicated_triples += 1

        self.store = self.ctx.fromPartitions(
            partitions,
            partitioner=HashPartitioner(num_partitions),
        ).cache()
        self._subject_indexes = SubjectIndexes()

    def _partition_of(self, subject_id: int) -> int:
        return stable_hash(subject_id) % self._num_partitions

    # ------------------------------------------------------------------
    # BGP evaluation
    # ------------------------------------------------------------------

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        try:
            local_patterns = [
                encode_pattern(p, self.dictionary.lookup_term)
                for p in patterns
            ]
        except KeyError:
            # A query constant never seen in the data: no results.
            return self._no_rows(patterns)

        groups = group_by_subject(patterns)
        if len(groups) == 1 or self._locally_coverable(groups):
            # Whole-pattern evaluation inside each partition (no shuffle),
            # anchored on the seed sub-query's subject.
            seed_group = max(groups, key=len)
            return self._match_in_partitions(
                local_patterns, seed_group[0].subject
            )
        # Fallback: local stars, largest first and connected where
        # possible, then shuffle joins between them.
        return fold_joins(
            connected_order(sorted(groups, key=len, reverse=True)),
            lambda group: self._match_in_partitions(
                [encode_pattern(p, self.dictionary.lookup_term) for p in group],
                group[0].subject,
            ),
        )

    def _locally_coverable(self, groups: List[List[TriplePattern]]) -> bool:
        """Whether replication makes the whole pattern seed-local.

        Replication copies the triples of a link's *target* subject into
        the partition of its *source* subject, one hop deep.  The pattern
        is coverable when every non-seed group is the direct target of a
        replicated link out of the seed group.
        """
        seed_group = max(groups, key=len)
        seed_subject = seed_group[0].subject
        other_subjects = {
            g[0].subject for g in groups if g[0].subject != seed_subject
        }
        reachable = set()
        for pattern in seed_group:
            if isinstance(pattern.predicate, Variable):
                continue
            predicate_id = self.dictionary.get(pattern.predicate)
            if predicate_id not in self._replicated_predicates:
                continue
            if isinstance(pattern.object, Variable):
                reachable.add(pattern.object)
        return other_subjects <= reachable

    def _match_in_partitions(
        self, local_patterns: List[tuple], anchor_subject
    ) -> RDD:
        """The rows of *local_patterns* matched inside each partition.

        *anchor_subject* -- a subject of the patterns, variable or
        constant -- anchors deduplication: a row is emitted only from
        the home partition of the subject it binds there, so the replicas
        other partitions hold never produce duplicates.
        """
        match_locally = compile_bgp_local(local_patterns)
        header = match_locally.header
        anchor = constant_home = None
        if isinstance(anchor_subject, Variable):
            anchor = header.index(anchor_subject.name)
        else:
            constant_home = self._partition_of(
                self.dictionary.lookup_term(anchor_subject)
            )
        homes_of = self.store.partitioner.partitions_for
        decode = decoder(self.dictionary.terms, header)
        indexes = self._subject_indexes

        def run_partition(index: int, part: List[tuple]) -> List[tuple]:
            if anchor is None and index != constant_home:
                return []  # a constant subject: its home answers
            found = match_locally(part, indexes.of(index, part))
            if anchor is not None:
                homes = homes_of([row[anchor] for row in found])
                found = [
                    row for row, home in zip(found, homes) if home == index
                ]
            return decode(found)

        return rows(self.store.mapPartitionsWithIndex(run_partition), header)
