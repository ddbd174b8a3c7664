"""Streaming edge-cut minimization for RDF graphs.

Section V: "Graph partitioning does not focus on load balancing rather
than on minimizing the edge-cut between partitions.  GraphX has not been
exploited yet towards this direction and could be an option to build such
algorithms."

Implemented here as Linear Deterministic Greedy (LDG) streaming vertex
partitioning: vertices arrive in (deterministic BFS) order and each goes
to the partition holding most of its already-placed neighbours, damped by
a capacity penalty so partitions stay balanced.  The resulting
:class:`EdgeCutPartitioner` plugs into anything that takes a
:class:`~repro.spark.partitioner.Partitioner` keyed by vertex.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term, URI
from repro.rdf.vocab import RDF
from repro.spark.partitioner import Partitioner, stable_hash


def _adjacency(
    edges: Iterable[Tuple[Term, Term]]
) -> Dict[Term, Set[Term]]:
    adjacency: Dict[Term, Set[Term]] = {}
    for src, dst in edges:
        if src == dst:
            adjacency.setdefault(src, set())
            continue
        adjacency.setdefault(src, set()).add(dst)
        adjacency.setdefault(dst, set()).add(src)
    return adjacency


def ldg_partition(
    edges: Sequence[Tuple[Term, Term]],
    num_partitions: int,
    balance_slack: float = 1.1,
) -> Dict[Term, int]:
    """Linear deterministic greedy placement of vertices.

    Returns {vertex: partition}.  *balance_slack* caps each partition at
    ``slack * |V| / k`` vertices.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    adjacency = _adjacency(edges)
    total = len(adjacency)
    if total == 0:
        return {}
    capacity = max(int(balance_slack * total / num_partitions), 1)

    placement: Dict[Term, int] = {}
    loads = [0] * num_partitions

    # Deterministic BFS order from sorted roots keeps neighbours adjacent
    # in the stream, which is where LDG earns its cut quality.
    visited: Set[Term] = set()
    order: List[Term] = []
    for root in sorted(adjacency, key=lambda t: t.sort_key()):
        if root in visited:
            continue
        queue = deque([root])
        visited.add(root)
        while queue:
            vertex = queue.popleft()
            order.append(vertex)
            for neighbour in sorted(
                adjacency[vertex], key=lambda t: t.sort_key()
            ):
                if neighbour not in visited:
                    visited.add(neighbour)
                    queue.append(neighbour)

    for vertex in order:
        best_index = 0
        best_score = float("-inf")
        for index in range(num_partitions):
            if loads[index] >= capacity:
                continue
            neighbours_here = sum(
                1
                for neighbour in adjacency[vertex]
                if placement.get(neighbour) == index
            )
            # LDG score: neighbour affinity damped by remaining capacity.
            score = neighbours_here * (1.0 - loads[index] / capacity)
            if score > best_score or (
                score == best_score and loads[index] < loads[best_index]
            ):
                best_score = score
                best_index = index
        placement[vertex] = best_index
        loads[best_index] += 1
    return placement


class EdgeCutPartitioner(Partitioner):
    """A vertex partitioner minimizing edge-cut via streaming LDG.

    Built from an RDF graph's object-property edges (rdf:type and
    literal-valued triples do not create graph topology).
    """

    def __init__(
        self,
        num_partitions: int,
        graph: RDFGraph,
        balance_slack: float = 1.1,
    ) -> None:
        super().__init__(num_partitions)
        self.edges: List[Tuple[Term, Term]] = [
            (s, o)
            for s, p, o in graph.canonical_order()
            if isinstance(o, URI) and p != RDF.type
        ]
        self._placement = ldg_partition(
            self.edges, num_partitions, balance_slack
        )

    def partition_for(self, key: object) -> int:
        placed = self._placement.get(key)
        if placed is not None:
            return placed
        return stable_hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeCutPartitioner)
            and self.num_partitions == other.num_partitions
            and self._placement == other._placement
        )

    def __hash__(self) -> int:
        return hash(("EdgeCutPartitioner", self.num_partitions))
