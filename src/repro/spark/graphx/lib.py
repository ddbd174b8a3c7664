"""The stock graph algorithms the paper credits GraphX with shipping:
PageRank, triangle counting, shortest paths, plus connected components.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.spark.graphx.graph import Graph


def pagerank(
    graph: Graph,
    num_iterations: int = 10,
    reset_probability: float = 0.15,
    handle_dangling: bool = False,
) -> Dict[Any, float]:
    """Iterative PageRank; returns {vertex_id: rank}.

    Ranks are normalized so they sum to the number of vertices, matching
    GraphX's convention (each rank starts at 1.0).  By default dangling
    vertices (no out-edges) leak their rank mass, exactly like GraphX's
    classic implementation; with ``handle_dangling`` the mass is
    redistributed uniformly, matching the textbook (and networkx) model.
    """
    out_degrees = dict(graph.out_degrees().collect())
    vertex_ids = [vid for vid, _attr in graph.vertices.collect()]
    n = len(vertex_ids)
    if n == 0:
        return {}
    ranks = {vid: 1.0 for vid in vertex_ids}
    edges = graph.edges.collect()
    for _iteration in range(num_iterations):
        contributions: Dict[Any, float] = {vid: 0.0 for vid in vertex_ids}
        for edge in edges:
            degree = out_degrees.get(edge.src, 0)
            if degree:
                contributions[edge.dst] += ranks[edge.src] / degree
        dangling_share = 0.0
        if handle_dangling:
            dangling_mass = sum(
                ranks[vid]
                for vid in vertex_ids
                if not out_degrees.get(vid)
            )
            dangling_share = dangling_mass / n
        ranks = {
            vid: reset_probability
            + (1.0 - reset_probability)
            * (contributions[vid] + dangling_share)
            for vid in vertex_ids
        }
    return ranks


def connected_components(graph: Graph) -> Dict[Any, Any]:
    """Label propagation of the minimum reachable vertex id (undirected).

    Vertex ids must be mutually comparable; returns {vertex_id: component}.
    """
    labels = {vid: vid for vid, _attr in graph.vertices.collect()}
    edges = [(e.src, e.dst) for e in graph.edges.collect()]
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            low = min(labels[src], labels[dst])
            if labels[src] != low:
                labels[src] = low
                changed = True
            if labels[dst] != low:
                labels[dst] = low
                changed = True
    return labels


def triangle_count(graph: Graph) -> Dict[Any, int]:
    """Number of triangles through each vertex (undirected, deduplicated)."""
    neighbours: Dict[Any, set] = {}
    for edge in graph.edges.collect():
        if edge.src == edge.dst:
            continue
        neighbours.setdefault(edge.src, set()).add(edge.dst)
        neighbours.setdefault(edge.dst, set()).add(edge.src)
    counts = {vid: 0 for vid, _attr in graph.vertices.collect()}
    for vertex, adjacent in neighbours.items():
        for other in adjacent:
            if repr(other) <= repr(vertex):
                continue
            common = adjacent & neighbours.get(other, set())
            for third in common:
                if repr(third) > repr(other):
                    counts[vertex] += 1
                    counts[other] += 1
                    counts[third] += 1
    return counts


def shortest_paths(
    graph: Graph, landmarks: List[Any], max_iterations: int = 50
) -> Dict[Any, Dict[Any, int]]:
    """Hop distances from every vertex to each landmark (directed).

    Returns {vertex_id: {landmark: distance}} with unreachable landmarks
    absent, mirroring GraphX's ShortestPaths.
    """
    landmark_set = set(landmarks)
    distances: Dict[Any, Dict[Any, int]] = {
        vid: ({vid: 0} if vid in landmark_set else {})
        for vid, _attr in graph.vertices.collect()
    }
    reverse_edges = [(e.dst, e.src) for e in graph.edges.collect()]
    for _iteration in range(max_iterations):
        changed = False
        for dst, src in reverse_edges:
            for landmark, distance in distances[dst].items():
                candidate = distance + 1
                best = distances[src].get(landmark)
                if best is None or candidate < best:
                    distances[src][landmark] = candidate
                    changed = True
        if not changed:
            break
    return distances
