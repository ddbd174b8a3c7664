"""The property graph: vertex and edge RDDs plus graph-parallel operators.

A ``Graph`` pairs an RDD of ``(vertex_id, attribute)`` with an RDD of
:class:`Edge`.  ``aggregateMessages`` is the workhorse the surveyed systems
use for BGP matching: a *send* function inspects each edge triplet and may
message either endpoint; a *merge* function combines messages per vertex.
All data movement runs through the underlying RDDs, so shuffle and join
costs land in the context metrics like any other workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.spark.partitioner import HashPartitioner
from repro.spark.rdd import RDD


@dataclass(frozen=True)
class Edge:
    """A directed edge with an attribute (for RDF: the predicate)."""

    src: Any
    dst: Any
    attr: Any = None


@dataclass(frozen=True)
class EdgeTriplet:
    """An edge together with both endpoint attributes."""

    src: Any
    src_attr: Any
    dst: Any
    dst_attr: Any
    attr: Any


class EdgeContext:
    """Handed to the send function of :meth:`Graph.aggregateMessages`."""

    __slots__ = ("triplet", "_messages")

    def __init__(self, triplet: EdgeTriplet) -> None:
        self.triplet = triplet
        self._messages: List[Tuple[Any, Any]] = []

    @property
    def src(self) -> Any:
        return self.triplet.src

    @property
    def dst(self) -> Any:
        return self.triplet.dst

    @property
    def src_attr(self) -> Any:
        return self.triplet.src_attr

    @property
    def attr(self) -> Any:
        return self.triplet.attr

    def send_to_dst(self, message: Any) -> None:
        self._messages.append((self.triplet.dst, message))


class Graph:
    """A property graph distributed as vertex and edge RDDs."""

    def __init__(self, vertices: RDD, edges: RDD) -> None:
        self.ctx = vertices.ctx
        partitioner = HashPartitioner(vertices.ctx.default_parallelism)
        #: RDD of (vertex_id, attribute), hash partitioned by id.
        self.vertices = vertices.partitionBy(partitioner).cache()
        #: RDD of Edge, partitioned by source vertex (edge-cut strategy).
        self.edges = (
            edges.keyBy(lambda e: e.src).partitionBy(partitioner).values().cache()
        )
        self._partitioner = partitioner

    @classmethod
    def from_edge_tuples(
        cls,
        ctx,
        edge_tuples: List[Tuple[Any, Any, Any]],
        default_vertex_attr: Any = None,
    ) -> "Graph":
        """Build a graph from (src, dst, attr) tuples, deriving vertices."""
        vertex_ids = sorted(
            {s for s, _d, _a in edge_tuples} | {d for _s, d, _a in edge_tuples},
            key=repr,
        )
        vertices = ctx.parallelize(
            [(vid, default_vertex_attr) for vid in vertex_ids]
        )
        edges = ctx.parallelize([Edge(s, d, a) for s, d, a in edge_tuples])
        return cls(vertices, edges)

    # ------------------------------------------------------------------
    # Structural operators
    # ------------------------------------------------------------------

    def num_vertices(self) -> int:
        return self.vertices.count()

    def num_edges(self) -> int:
        return self.edges.count()

    def mapVertices(self, func: Callable[[Any, Any], Any]) -> "Graph":
        """Transform each vertex attribute with ``func(id, attr)``."""
        return Graph(
            self.vertices.mapPartitions(
                lambda part: [(vid, func(vid, attr)) for vid, attr in part],
                preserves_partitioning=True,
            ),
            self.edges,
        )

    def triplets(self) -> RDD:
        """RDD of :class:`EdgeTriplet` (edges joined with both endpoints)."""
        by_src = self.edges.keyBy(lambda e: e.src)
        with_src = by_src.join(self.vertices)
        by_dst = with_src.map(
            lambda kv: (kv[1][0].dst, (kv[1][0], kv[1][1]))
        )
        with_both = by_dst.join(self.vertices)
        return with_both.map(
            lambda kv: EdgeTriplet(
                src=kv[1][0][0].src,
                src_attr=kv[1][0][1],
                dst=kv[1][0][0].dst,
                dst_attr=kv[1][1],
                attr=kv[1][0][0].attr,
            )
        )

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------

    def out_degrees(self) -> RDD:
        return self.edges.map(lambda e: (e.src, 1)).reduceByKey(lambda a, b: a + b)

    # ------------------------------------------------------------------
    # Vertex joins
    # ------------------------------------------------------------------

    def outerJoinVertices(
        self, other: RDD, func: Callable[[Any, Any, Optional[Any]], Any]
    ) -> "Graph":
        """Join vertex attributes with another keyed RDD.

        ``func(id, attr, other_value_or_None)`` produces the new attribute.
        """
        joined = self.vertices.leftOuterJoin(other)
        vertices = joined.map(
            lambda kv: (kv[0], func(kv[0], kv[1][0], kv[1][1]))
        )
        return Graph(vertices, self.edges)

    def joinVertices(
        self, other: RDD, func: Callable[[Any, Any, Any], Any]
    ) -> "Graph":
        """Like :meth:`outerJoinVertices` but keeps attributes unmatched."""
        return self.outerJoinVertices(
            other,
            lambda vid, attr, opt: attr if opt is None else func(vid, attr, opt),
        )

    # ------------------------------------------------------------------
    # Graph-parallel aggregation
    # ------------------------------------------------------------------

    def aggregateMessages(
        self,
        send: Callable[[EdgeContext], None],
        merge: Callable[[Any, Any], Any],
    ) -> RDD:
        """Run *send* over every triplet; merge per-vertex messages.

        Returns an RDD of ``(vertex_id, merged_message)`` containing only
        vertices that received at least one message -- GraphX semantics.
        """

        def emit(part: List[EdgeTriplet]) -> List[Tuple[Any, Any]]:
            out: List[Tuple[Any, Any]] = []
            for triplet in part:
                context = EdgeContext(triplet)
                send(context)
                out.extend(context._messages)
            return out

        messages = self.triplets().mapPartitions(emit)
        return messages.reduceByKey(merge)

    def __repr__(self) -> str:
        return "Graph(vertices=%d, edges=%d)" % (
            self.num_vertices(),
            self.num_edges(),
        )
