"""Tests for GraphFrames: construction, degrees, filtering, motif finding."""

import pytest

from repro.spark.column import col, lit
from repro.spark.graphframes import GraphFrame, MotifSyntaxError, parse_motif
from repro.spark.graphframes.motif import MotifPattern


@pytest.fixture
def social(session):
    vertices = session.createDataFrame(
        [(i, "person%d" % i) for i in range(1, 6)], ["id", "name"]
    )
    edges = session.createDataFrame(
        [
            (1, 2, "knows"),
            (2, 3, "knows"),
            (1, 3, "likes"),
            (3, 4, "knows"),
            (5, 5, "knows"),
        ],
        ["src", "dst", "relationship"],
    )
    return GraphFrame(vertices, edges)


class TestMotifParser:
    def test_single_pattern(self):
        assert parse_motif("(a)-[e]->(b)") == [MotifPattern("a", "e", "b")]

    def test_multiple_patterns(self):
        patterns = parse_motif("(a)-[e]->(b); (b)-[f]->(c)")
        assert len(patterns) == 2
        assert patterns[1].src == "b"

    def test_anonymous_elements(self):
        patterns = parse_motif("(a)-[]->()")
        assert patterns[0].edge is None and patterns[0].dst is None

    def test_whitespace_tolerant(self):
        assert parse_motif(" ( a ) - [ e ] -> ( b ) ")[0].src == "a"

    def test_duplicate_edge_name_rejected(self):
        with pytest.raises(MotifSyntaxError):
            parse_motif("(a)-[e]->(b); (b)-[e]->(c)")

    def test_garbage_rejected(self):
        with pytest.raises(MotifSyntaxError):
            parse_motif("(a)->(b)")

    def test_empty_rejected(self):
        with pytest.raises(MotifSyntaxError):
            parse_motif("  ;  ")


class TestGraphFrame:
    def test_requires_id_src_dst(self, session):
        bad_vertices = session.createDataFrame([(1,)], ["vid"])
        good_vertices = session.createDataFrame([(1,)], ["id"])
        edges = session.createDataFrame([(1, 1, "x")], ["src", "dst", "l"])
        with pytest.raises(ValueError):
            GraphFrame(bad_vertices, edges)
        bad_edges = session.createDataFrame([(1, 1)], ["from", "to"])
        with pytest.raises(ValueError):
            GraphFrame(good_vertices, bad_edges)

    def test_filterEdges(self, social):
        filtered = social.filterEdges(col("relationship") == lit("likes"))
        assert filtered.edges.count() == 1
        assert filtered.vertices.count() == 5  # untouched


class TestMotifFinding:
    def test_single_edge_motif(self, social):
        result = social.find("(a)-[e]->(b)")
        assert result.count() == 5
        assert "a.id" in result.columns and "e.relationship" in result.columns

    def test_vertex_attributes_joined(self, social):
        result = social.find("(a)-[e]->(b)")
        row = result.where(col("a.id") == lit(1)).where(
            col("b.id") == lit(2)
        ).collect()[0]
        assert row["a.name"] == "person1"
        assert row["b.name"] == "person2"

    def test_two_hop_motif(self, social):
        result = social.find("(a)-[e]->(b); (b)-[f]->(c)")
        paths = {
            (r["a.id"], r["b.id"], r["c.id"]) for r in result.collect()
        }
        assert (1, 2, 3) in paths
        assert (2, 3, 4) in paths

    def test_motif_with_filter(self, social):
        result = social.find("(a)-[e]->(b)").where(
            col("e.relationship") == lit("likes")
        )
        assert result.count() == 1

    def test_anonymous_edge_has_no_columns(self, social):
        result = social.find("(a)-[]->(b)")
        assert not any("relationship" in c for c in result.columns)
        assert result.count() == 5

    def test_anonymous_vertex_constrains_but_hidden(self, social):
        result = social.find("(a)-[e]->()")
        assert result.count() == 5
        assert all(not c.startswith("__") for c in result.columns)

    def test_self_loop_matched(self, social):
        result = social.find("(a)-[e]->(a)")
        assert [r["a.id"] for r in result.collect()] == [5]

    def test_triangle_motif(self, social):
        result = social.find("(a)-[e]->(b); (b)-[f]->(c); (a)-[g]->(c)")
        triangles = {
            (r["a.id"], r["b.id"], r["c.id"]) for r in result.collect()
        }
        # Motifs do not enforce vertex distinctness: the 5->5 self loop
        # satisfies all three terms, exactly as in GraphFrames proper.
        assert triangles == {(1, 2, 3), (5, 5, 5)}

    def test_disconnected_motif_is_cartesian(self, social):
        result = social.find("(a)-[e]->(b); (c)-[f]->(d)")
        assert result.count() == 25
