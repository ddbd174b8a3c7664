"""Tests for the engine base: profiles, driver plumbing, helpers."""

import pytest

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.sparql.algebra import translate
from repro.sparql.parser import parse_sparql
from repro.systems import NaiveEngine, UnsupportedQueryError
from repro.systems.base import (
    compile_pattern,
    fold_join_order,
    join_binding_rdds,
    node_variables,
    pattern_variables,
)
from repro.sparql.ast import TriplePattern, Variable

EX = "http://x/"
PREFIX = "PREFIX ex: <http://x/>\n"


def uri(name):
    return URI(EX + name)


@pytest.fixture
def tiny_graph():
    return RDFGraph(
        [
            Triple(uri("a"), uri("p"), uri("b")),
            Triple(uri("b"), uri("p"), uri("c")),
            Triple(uri("a"), uri("q"), Literal(5)),
        ]
    )


class TestProfile:
    def test_fragment_property(self):
        profile = NaiveEngine.profile
        assert profile.sparql_fragment == "BGP+"

    def test_bgp_only_fragment(self):
        from repro.systems import HybridEngine

        assert HybridEngine.profile.sparql_fragment == "BGP"

    def test_all_profiles_have_citations(self):
        from repro.systems import ALL_ENGINE_CLASSES

        citations = [cls.profile.citation for cls in ALL_ENGINE_CLASSES]
        assert citations == [
            "[7]", "[13]", "[24]", "[21]", "[23]", "[16]", "[12]", "[4]", "[5]",
        ]


class TestDriverGuards:
    def test_execute_before_load_raises(self):
        engine = NaiveEngine(SparkContext(2))
        with pytest.raises(RuntimeError):
            engine.execute(PREFIX + "SELECT ?s WHERE { ?s ex:p ?o }")

    def test_unsupported_fragment_raises(self, tiny_graph):
        from repro.systems import HybridEngine

        engine = HybridEngine(SparkContext(2))
        engine.load(tiny_graph)
        with pytest.raises(UnsupportedQueryError):
            engine.execute(
                PREFIX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o = 1) }"
            )

    def test_string_queries_parsed(self, tiny_graph):
        engine = NaiveEngine(SparkContext(2))
        engine.load(tiny_graph)
        result = engine.execute(PREFIX + "SELECT ?s WHERE { ?s ex:q ?o }")
        assert len(result) == 1

    def test_ask_query(self, tiny_graph):
        engine = NaiveEngine(SparkContext(2))
        engine.load(tiny_graph)
        assert engine.execute(PREFIX + "ASK { ex:a ex:p ex:b }") is True
        assert engine.execute(PREFIX + "ASK { ex:c ex:p ex:a }") is False


class TestHelpers:
    def test_compile_pattern(self):
        match = compile_pattern(
            TriplePattern(Variable("s"), uri("p"), Variable("o"))
        )
        binding = match((uri("a"), uri("p"), uri("b")))
        assert binding == {"s": uri("a"), "o": uri("b")}
        assert match((uri("a"), uri("q"), uri("b"))) is None

    def test_compile_pattern_repeated_variable(self):
        match = compile_pattern(
            TriplePattern(Variable("x"), uri("p"), Variable("x"))
        )
        assert match((uri("a"), uri("p"), uri("b"))) is None
        assert match((uri("a"), uri("p"), uri("a"))) == {"x": uri("a")}

    def test_pattern_variables_order(self):
        patterns = [
            TriplePattern(Variable("s"), uri("p"), Variable("o")),
            TriplePattern(Variable("o"), uri("q"), Variable("z")),
        ]
        assert pattern_variables(patterns) == ["s", "o", "z"]

    def test_fold_join_order_keeps_connectivity(self):
        patterns = [
            TriplePattern(Variable("a"), uri("p"), Variable("b")),
            TriplePattern(Variable("x"), uri("q"), Variable("y")),
            TriplePattern(Variable("b"), uri("r"), Variable("x")),
        ]
        ordered = fold_join_order(patterns)
        # Second position must connect to the first pattern.
        first_vars = {v.name for v in ordered[0].variables()}
        second_vars = {v.name for v in ordered[1].variables()}
        assert first_vars & second_vars

    def test_node_variables(self):
        query = parse_sparql(
            PREFIX
            + "SELECT * WHERE { ?s ex:p ?o . OPTIONAL { ?o ex:q ?r } }"
        )
        assert node_variables(translate(query)) == {"s", "o", "r"}

    def test_join_binding_rdds_inner(self):
        sc = SparkContext(2)
        left = sc.parallelize([{"x": 1, "y": 2}, {"x": 3, "y": 4}])
        right = sc.parallelize([{"x": 1, "z": 9}])
        joined = join_binding_rdds(left, right, ["x"]).collect()
        assert joined == [{"x": 1, "y": 2, "z": 9}]

    def test_join_binding_rdds_left(self):
        sc = SparkContext(2)
        left = sc.parallelize([{"x": 1}, {"x": 2}])
        right = sc.parallelize([{"x": 1, "z": 9}])
        joined = sorted(
            join_binding_rdds(left, right, ["x"], how="left").collect(),
            key=lambda b: b["x"],
        )
        assert joined == [{"x": 1, "z": 9}, {"x": 2}]

    def test_join_binding_rdds_cartesian_when_disjoint(self):
        sc = SparkContext(2)
        left = sc.parallelize([{"a": 1}])
        right = sc.parallelize([{"b": 2}, {"b": 3}])
        joined = join_binding_rdds(left, right, [])
        assert len(joined.collect()) == 2
