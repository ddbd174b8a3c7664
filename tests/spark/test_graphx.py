"""Tests for the GraphX layer: graph ops, aggregateMessages, lib."""

import pytest

from repro.spark.graphx import (
    Edge,
    Graph,
    connected_components,
    pagerank,
    shortest_paths,
    triangle_count,
)


@pytest.fixture
def triangle(sc):
    """1 -> 2 -> 3 -> 1 plus an isolated edge 4 -> 5."""
    return Graph.from_edge_tuples(
        sc,
        [(1, 2, "knows"), (2, 3, "knows"), (3, 1, "knows"), (4, 5, "likes")],
    )


class TestGraphStructure:
    def test_counts(self, triangle):
        assert triangle.num_vertices() == 5
        assert triangle.num_edges() == 4

    def test_triplets_join_both_endpoints(self, triangle):
        triplets = sorted(
            (t.src, t.attr, t.dst) for t in triangle.triplets().collect()
        )
        assert triplets == [
            (1, "knows", 2),
            (2, "knows", 3),
            (3, "knows", 1),
            (4, "likes", 5),
        ]

    def test_mapVertices(self, triangle):
        mapped = triangle.mapVertices(lambda vid, attr: vid * 10)
        assert dict(mapped.vertices.collect())[3] == 30

    def test_degrees(self, triangle):
        assert dict(triangle.out_degrees().collect())[1] == 1
        assert 5 not in dict(triangle.out_degrees().collect())

    def test_outerJoinVertices(self, triangle, sc):
        labels = sc.parallelize([(1, "one")])
        joined = triangle.outerJoinVertices(
            labels, lambda vid, attr, opt: opt or "none"
        )
        attrs = dict(joined.vertices.collect())
        assert attrs[1] == "one" and attrs[2] == "none"

    def test_joinVertices_keeps_unmatched_attr(self, triangle, sc):
        base = triangle.mapVertices(lambda vid, attr: "base")
        joined = base.joinVertices(
            sc.parallelize([(1, "x")]), lambda vid, attr, value: value
        )
        attrs = dict(joined.vertices.collect())
        assert attrs[1] == "x" and attrs[2] == "base"


class TestAggregateMessages:
    def test_in_degree_via_messages(self, triangle):
        messages = triangle.aggregateMessages(
            lambda ctx: ctx.send_to_dst(1), lambda a, b: a + b
        )
        degrees = dict(messages.collect())
        assert degrees == {2: 1, 3: 1, 1: 1, 5: 1}

    def test_only_messaged_vertices_present(self, sc):
        graph = Graph.from_edge_tuples(sc, [(1, 2, None)])
        messages = graph.aggregateMessages(
            lambda ctx: ctx.send_to_dst("m"), lambda a, b: a
        )
        assert dict(messages.collect()) == {2: "m"}

    def test_attributes_visible_in_context(self, sc):
        graph = Graph.from_edge_tuples(
            sc, [(1, 2, "e")], default_vertex_attr="attr"
        )
        seen = graph.aggregateMessages(
            lambda ctx: ctx.send_to_dst((ctx.src_attr, ctx.attr)),
            lambda a, b: a,
        )
        assert dict(seen.collect())[2] == ("attr", "e")


class TestLibraryAlgorithms:
    def test_pagerank_sums_to_vertex_count(self, triangle):
        ranks = pagerank(triangle, num_iterations=15)
        assert ranks  # non-empty
        # Cycle members get equal rank.
        assert abs(ranks[1] - ranks[2]) < 1e-9
        assert ranks[5] > ranks[4]  # 5 has an in-edge, 4 does not

    def test_pagerank_empty_graph(self, sc):
        graph = Graph(sc.parallelize([]), sc.parallelize([]))
        assert pagerank(graph) == {}

    def test_connected_components(self, triangle):
        components = connected_components(triangle)
        assert components[1] == components[2] == components[3]
        assert components[4] == components[5]
        assert components[1] != components[4]

    def test_triangle_count(self, triangle):
        counts = triangle_count(triangle)
        assert counts[1] == counts[2] == counts[3] == 1
        assert counts[4] == 0

    def test_shortest_paths(self, sc):
        graph = Graph.from_edge_tuples(
            sc, [(1, 2, None), (2, 3, None), (1, 3, None)]
        )
        distances = shortest_paths(graph, landmarks=[3])
        assert distances[1][3] == 1
        assert distances[2][3] == 1
        assert distances[3][3] == 0

    def test_shortest_paths_unreachable_absent(self, sc):
        graph = Graph.from_edge_tuples(sc, [(1, 2, None), (3, 4, None)])
        distances = shortest_paths(graph, landmarks=[2])
        assert 2 not in distances[3]
