"""Semantic partitioning: place subjects by their rdf:type class.

The direction of Troullinou et al. [27], which the paper's Section V holds
up against the surveyed systems' "simple partitioning techniques like
vertical or hash partitioning": queries overwhelmingly select within a
class (all students, all products), so placing each class's subjects
together makes class-constrained stars and scans partition-local, while
balancing partitions by triple volume keeps the load even.

The partitioner is built from a graph in two steps:

1. every subject is assigned its first rdf:type class (untyped subjects
   form a pseudo-class per hash bucket);
2. classes are ordered by descending triple volume and greedily assigned,
   whole, to the currently lightest partition (LPT scheduling), so class
   locality is perfect and imbalance is bounded by the largest class.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.rdf.vocab import RDF
from repro.spark.partitioner import Partitioner, stable_hash


class SemanticPartitioner(Partitioner):
    """Maps subject terms to partitions so that classes stay together."""

    def __init__(self, num_partitions: int, graph: RDFGraph) -> None:
        super().__init__(num_partitions)
        self._subject_partition: Dict[Term, int] = {}
        self._class_partition: Dict[Term, int] = {}
        self._build(graph)

    def _build(self, graph: RDFGraph) -> None:
        # Subject -> its (first) class; triple volume per class.
        subject_class: Dict[Term, Optional[Term]] = {}
        class_volume: Dict[Optional[Term], int] = {}
        for subject in graph.subjects():
            types = sorted(graph.types_of(subject), key=lambda t: t.sort_key())
            cls = types[0] if types else None
            subject_class[subject] = cls
            volume = sum(1 for _ in graph.triples((subject, None, None)))
            class_volume[cls] = class_volume.get(cls, 0) + volume

        # LPT: heaviest class first onto the lightest partition.
        heap: List[Tuple[int, int]] = [
            (0, index) for index in range(self.num_partitions)
        ]
        heapq.heapify(heap)
        ordered = sorted(
            class_volume.items(),
            key=lambda kv: (-kv[1], repr(kv[0])),
        )
        for cls, volume in ordered:
            load, index = heapq.heappop(heap)
            if cls is not None:
                self._class_partition[cls] = index
            else:
                self._class_partition[None] = index
            heapq.heappush(heap, (load + volume, index))

        for subject, cls in subject_class.items():
            self._subject_partition[subject] = self._class_partition.get(
                cls, 0
            )

    def partition_for(self, key: object) -> int:
        """Partition of a subject term; unknown keys fall back to hashing."""
        placed = self._subject_partition.get(key)
        if placed is not None:
            return placed
        return stable_hash(key) % self.num_partitions

    def partition_of_class(self, cls: Term) -> Optional[int]:
        """Where a class's subjects live (None when the class is unknown)."""
        return self._class_partition.get(cls)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SemanticPartitioner)
            and self.num_partitions == other.num_partitions
            and self._subject_partition == other._subject_partition
        )

    def __hash__(self) -> int:
        return hash(("SemanticPartitioner", self.num_partitions))
