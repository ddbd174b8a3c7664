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
from repro.rdf.encoding import Dictionary
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner, stable_hash
from repro.spark.rdd import RDD
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.fragments import (
    FEATURE_BGP,
    FEATURE_DISTINCT,
    FEATURE_FILTER,
    FEATURE_LIMIT,
    FEATURE_OFFSET,
    FEATURE_ORDER_BY,
    FEATURE_UNION,
)
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    join_binding_rdds,
)
from repro.systems.localmatch import encode_pattern, match_bgp_local


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
        self.dictionary = Dictionary()
        num_partitions = self.ctx.default_parallelism
        self._num_partitions = num_partitions

        encoded: List[Tuple[int, int, int]] = []
        for triple in sorted(graph):
            e = self.dictionary.encode(triple)
            encoded.append(e.as_tuple())

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
                    if predicate in self.dictionary:
                        self._replicated_predicates.add(
                            self.dictionary.lookup_term(predicate)
                        )
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

    def _partition_of(self, subject_id: int) -> int:
        return stable_hash(subject_id) % self._num_partitions

    def _encode_constant(self, term: Term) -> int:
        if term not in self.dictionary:
            raise KeyError(term)
        return self.dictionary.lookup_term(term)

    # ------------------------------------------------------------------
    # BGP evaluation
    # ------------------------------------------------------------------

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        try:
            local_patterns = [
                encode_pattern(p, self._encode_constant) for p in patterns
            ]
        except KeyError:
            # A query constant never seen in the data: no results.
            return self.ctx.emptyRDD()

        groups = group_by_subject(patterns)
        if len(groups) == 1 or self._locally_coverable(patterns, groups):
            return self._evaluate_locally(patterns, local_patterns)
        return self._evaluate_with_shuffles(patterns)

    def _locally_coverable(
        self,
        patterns: List[TriplePattern],
        groups: List[List[TriplePattern]],
    ) -> bool:
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
            if pattern.predicate not in self.dictionary:
                continue
            predicate_id = self.dictionary.lookup_term(pattern.predicate)
            if predicate_id not in self._replicated_predicates:
                continue
            if isinstance(pattern.object, Variable):
                reachable.add(pattern.object)
        return other_subjects <= reachable

    def _evaluate_locally(
        self,
        patterns: List[TriplePattern],
        local_patterns: List[tuple],
    ) -> RDD:
        """Whole-pattern evaluation inside each partition (no shuffle).

        The seed sub-query's subject anchors deduplication: a binding is
        emitted only from the home partition of its seed subject, so
        replicas never produce duplicates.
        """
        groups = group_by_subject(patterns)
        seed_group = max(groups, key=len)
        seed_subject = seed_group[0].subject
        seed_var = (
            seed_subject.name if isinstance(seed_subject, Variable) else None
        )
        engine = self

        def run_partition(index: int, part: List[tuple]) -> List[dict]:
            out = []
            for binding in match_bgp_local(local_patterns, part):
                if seed_var is not None:
                    anchor = binding[seed_var]
                else:
                    anchor = engine._encode_constant(seed_subject)
                if engine._partition_of(anchor) != index:
                    continue
                out.append(
                    {
                        name: engine.dictionary.decode_id(value)
                        for name, value in binding.items()
                    }
                )
            return out

        return self.store.mapPartitionsWithIndex(run_partition)

    def _evaluate_with_shuffles(
        self, patterns: List[TriplePattern]
    ) -> RDD:
        """Fallback: local stars, then shuffle joins between them."""
        groups = sorted(group_by_subject(patterns), key=len, reverse=True)
        # Greedy connectivity order to avoid needless cartesian products.
        ordered: List[List[TriplePattern]] = [groups.pop(0)]
        seen_vars = {
            v.name for pattern in ordered[0] for v in pattern.variables()
        }
        while groups:
            index = next(
                (
                    i
                    for i, g in enumerate(groups)
                    if seen_vars
                    & {v.name for pattern in g for v in pattern.variables()}
                ),
                0,
            )
            chosen = groups.pop(index)
            ordered.append(chosen)
            seen_vars |= {
                v.name for pattern in chosen for v in pattern.variables()
            }
        result: Optional[RDD] = None
        bound: Set[str] = set()
        for group in ordered:
            local = [encode_pattern(p, self._encode_constant) for p in group]
            group_vars = {
                v.name for pattern in group for v in pattern.variables()
            }
            subject = group[0].subject
            subject_var = (
                subject.name if isinstance(subject, Variable) else None
            )
            engine = self

            def run_partition(
                index: int, part: List[tuple], local=local, sv=subject_var
            ) -> List[dict]:
                out = []
                for binding in match_bgp_local(local, part):
                    anchor = binding[sv] if sv is not None else None
                    if anchor is not None and engine._partition_of(
                        anchor
                    ) != index:
                        continue
                    out.append(
                        {
                            name: engine.dictionary.decode_id(value)
                            for name, value in binding.items()
                        }
                    )
                return out

            star = self.store.mapPartitionsWithIndex(run_partition)
            if result is None:
                result = star
                bound = group_vars
            else:
                shared = sorted(bound & group_vars)
                result = join_binding_rdds(result, star, shared)
                bound |= group_vars
        assert result is not None
        return result
