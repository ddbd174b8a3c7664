"""A partitioned triple store for comparing placement policies.

Holds the dataset under an arbitrary subject-keyed
:class:`~repro.spark.partitioner.Partitioner` and exposes the measurements
the paper's future-work argument turns on: how local are star queries,
how many subject-object joins stay on one partition (the edge-cut), and
how even is the load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term, URI
from repro.rdf.vocab import RDF
from repro.spark.context import SparkContext
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import RDD
from repro.spark.rows import rows
from repro.sparql.ast import TriplePattern, Variable
from repro.systems.localmatch import compile_bgp_local, subject_index


class SubjectIndexes(dict):
    """Partition index -> :func:`subject_index` of that partition of a
    store, built on first use by the process that reads the partition and
    kept with the store.  It pickles empty, so none crosses a pipe."""

    def __reduce__(self):
        return SubjectIndexes, ()

    def of(self, index: int, triples: List[Tuple[Term, Term, Term]]):
        if index not in self:
            self[index] = subject_index(triples)
        return self[index]


class PartitionedTripleStore:
    """Triples placed by ``partitioner.partition_for(subject)``."""

    def __init__(
        self,
        ctx: SparkContext,
        graph: RDFGraph,
        partitioner: Partitioner,
    ) -> None:
        self.ctx = ctx
        self.partitioner = partitioner
        partitions: List[List[Tuple[Term, Term, Term]]] = [
            [] for _ in range(partitioner.num_partitions)
        ]
        for triple in graph.canonical_order():
            partitions[partitioner.partition_for(triple[0])].append(triple)
        self._partitions = partitions
        self.rdd: RDD = ctx.fromPartitions(partitions)
        self._subject_indexes = SubjectIndexes()

    # ------------------------------------------------------------------
    # Placement quality measurements
    # ------------------------------------------------------------------

    def balance(self) -> float:
        """max partition triples / ideal (1.0 is perfectly even)."""
        total = sum(len(p) for p in self._partitions)
        if total == 0:
            return 1.0
        ideal = total / len(self._partitions)
        return max(len(p) for p in self._partitions) / ideal

    def edge_cut_fraction(self) -> float:
        """Fraction of s->o links whose endpoints live apart.

        Each URI-object triple is a graph edge; it is cut when the object
        (as a subject) is stored on another partition.  This is the cost a
        linear query pays per hop.
        """
        total = cut = 0
        for index, partition in enumerate(self._partitions):
            for _s, predicate, obj in partition:
                if predicate == RDF.type or not isinstance(obj, URI):
                    continue
                total += 1
                if self.partitioner.partition_for(obj) != index:
                    cut += 1
        return cut / total if total else 0.0

    def class_scan_partitions(self, cls: Term) -> int:
        """How many partitions a scan of one class's instances touches."""
        touched = set()
        for index, partition in enumerate(self._partitions):
            for _s, predicate, obj in partition:
                if predicate == RDF.type and obj == cls:
                    touched.add(index)
                    break
        return len(touched)

    # ------------------------------------------------------------------
    # Local star evaluation (what subject placement buys)
    # ------------------------------------------------------------------

    def evaluate_star_locally(
        self, patterns: List[TriplePattern]
    ) -> RDD:
        """Evaluate a star BGP partition-locally (no shuffles).

        All patterns must share one subject variable; correctness relies
        only on subjects being placed whole, which any subject-keyed
        partitioner guarantees.
        """
        subjects = {p.subject for p in patterns}
        if len(subjects) != 1:
            raise ValueError("evaluate_star_locally needs a star BGP")
        run = compile_bgp_local([tuple(p.positions()) for p in patterns])
        indexes = self._subject_indexes
        return rows(
            self.rdd.mapPartitionsWithIndex(
                lambda index, part: run(part, indexes.of(index, part))
            ),
            run.header,
        )

    def linear_hop_locality(self, predicate: Term) -> float:
        """Fraction of *predicate* hops resolvable without leaving the
        source partition -- the quantity edge-cut minimization improves."""
        total = local = 0
        for index, partition in enumerate(self._partitions):
            for _s, pred, obj in partition:
                if pred != predicate or not isinstance(obj, URI):
                    continue
                total += 1
                if self.partitioner.partition_for(obj) == index:
                    local += 1
        return local / total if total else 1.0
