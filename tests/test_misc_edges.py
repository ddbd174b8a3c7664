"""Edge-case coverage for small public surfaces across the library."""

import pytest

from repro.rdf.terms import Literal, URI
from repro.spark.context import SparkContext
from repro.spark.graphx import Edge
from repro.spark.row import Row
from repro.spark.sql.ast import Distinct, Scan, Union
from repro.spark.sql.lexer import TokenStream, tokenize
from repro.sparql.results import Solution, SolutionSet


class TestRow:
    def test_access_by_index_and_name(self):
        row = Row(["a", "b"], (1, 2))
        assert row[0] == 1
        assert row["b"] == 2

    def test_unknown_accessors_raise(self):
        row = Row(["a"], (1,))
        with pytest.raises(KeyError):
            row["z"]
        with pytest.raises(AttributeError):
            row.z
        with pytest.raises(TypeError):
            row[1.5]

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            Row(["a"], (1, 2))

    def test_immutable(self):
        row = Row(["a"], (1,))
        with pytest.raises(AttributeError):
            row.a = 5

    def test_protocols(self):
        row = Row(["a", "b"], (1, 2))
        assert list(row) == [1, 2]
        assert hash(row) == hash(Row(["a", "b"], (1, 2)))


class TestGraphEdgeTypes:
    def test_edge_equality(self):
        assert Edge(1, 2, "x") == Edge(1, 2, "x")
        assert Edge(1, 2, "x") != Edge(2, 1, "x")


class TestSqlAstPretty:
    def test_union_and_distinct_describe(self):
        plan = Distinct(Union(Scan("a"), Scan("b"), dedup=True))
        text = plan.pretty()
        assert "Distinct" in text
        assert "Union(DISTINCT)" in text
        assert text.count("Scan") == 2

    def test_scan_describe_with_alias_and_columns(self):
        scan = Scan("t", alias="x", required_columns=["a", "b"])
        assert "t AS x" in scan._describe()
        assert "[a, b]" in scan._describe()


class TestTokenStream:
    def test_peek_does_not_advance(self):
        stream = TokenStream(tokenize("SELECT a"))
        assert stream.peek().value == "SELECT"
        assert stream.peek().value == "SELECT"
        stream.next()
        assert stream.peek().value == "a"

    def test_eof_is_sticky(self):
        stream = TokenStream(tokenize(""))
        assert stream.next().kind == "eof"
        assert stream.next().kind == "eof"

    def test_peek_ahead(self):
        stream = TokenStream(tokenize("SELECT a FROM t"))
        assert stream.peek(2).value == "FROM"


class TestSolutionSetProtocols:
    def test_bool_and_iter(self):
        empty = SolutionSet(["x"])
        assert not empty
        filled = SolutionSet(["x"], [Solution({"x": Literal(1)})])
        assert filled
        assert [s["x"] for s in filled] == [Literal(1)]

    def test_add(self):
        out = SolutionSet(["x"])
        out.add(Solution({"x": Literal(1)}))
        assert len(out) == 1


class TestContextGuards:
    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            SparkContext(0)
        with pytest.raises(ValueError):
            SparkContext(2, num_executors=0)

    def test_from_partitions_empty(self):
        sc = SparkContext(2)
        rdd = sc.fromPartitions([])
        assert rdd.collect() == []

    def test_repr(self):
        assert "parallelism=3" in repr(SparkContext(3))


class TestTermCorners:
    def test_literal_float_roundtrip(self):
        assert Literal(2.5).to_python() == 2.5

    def test_uri_sortable_against_literal(self):
        assert URI("http://z") < Literal("a")

    def test_triple_repr_stable(self):
        from repro.rdf.triple import Triple

        triple = Triple(URI("http://x/s"), URI("http://x/p"), Literal(1))
        assert "http://x/s" in repr(triple)
