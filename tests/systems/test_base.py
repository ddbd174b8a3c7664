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
    fold_joins,
    join_binding_rdds,
    node_variables,
    pattern_variables,
)
from repro.systems.bgpsql import bgp_to_sql
from repro.sparql.ast import (
    TriplePattern,
    Variable,
    connected_order,
    variables_of,
)

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
        ordered = connected_order(patterns)
        # Second position must connect to the first pattern.
        first_vars = {v.name for v in ordered[0].variables()}
        second_vars = {v.name for v in ordered[1].variables()}
        assert first_vars & second_vars

    def test_connected_order_over_groups_and_over_indices(self):
        a_b = TriplePattern(Variable("a"), uri("p"), Variable("b"))
        a_c = TriplePattern(Variable("a"), uri("q"), Variable("c"))
        x_y = TriplePattern(Variable("x"), uri("q"), Variable("y"))
        c_x = TriplePattern(Variable("c"), uri("r"), Variable("x"))
        # Groups of patterns (stars, chains): a group's variables are
        # its patterns' -- [c_x] connects through a_c, [x_y] only then.
        star, lone, link = [a_b, a_c], [x_y], [c_x]
        assert variables_of(star) == {"a", "b", "c"}
        assert connected_order([star, lone, link]) == [star, link, lone]
        # Indices into a pattern list, through names=: the first stays
        # first, then always the earliest remaining that connects.
        patterns = [a_b, x_y, c_x, a_c]
        order = connected_order(
            [1, 0, 2, 3], names=lambda i: variables_of(patterns[i])
        )
        assert order == [1, 2, 3, 0]
        # Nothing connects: the earliest remaining (a cross product).
        assert connected_order([lone, [a_b], link]) == [lone, link, [a_b]]
        assert connected_order([[a_b], lone]) == [[a_b], lone]
        assert connected_order([star]) == [star]

    def test_fold_joins_evaluates_each_unit_right_before_its_join(self):
        sc = SparkContext(2)
        calls = []
        units = [
            ("u1", {"x", "y"}, [{"x": 1, "y": 2}]),
            ("u2", {"y", "z"}, [{"y": 2, "z": 3}]),
            ("u3", {"w"}, [{"w": 4}, {"w": 5}]),
        ]

        def evaluate(unit):
            calls.append("evaluate " + unit[0])
            return sc.parallelize(unit[2])

        def join(left, right, shared):
            calls.append("join on %s" % ",".join(shared))
            return join_binding_rdds(left, right, shared)

        result = fold_joins(
            units, evaluate, names=lambda unit: unit[1], join=join
        )
        assert calls == [
            "evaluate u1",
            "evaluate u2",
            "join on y",
            "evaluate u3",
            "join on ",
        ]
        assert sorted(result.collect(), key=lambda b: b["w"]) == [
            {"x": 1, "y": 2, "z": 3, "w": 4},
            {"x": 1, "y": 2, "z": 3, "w": 5},
        ]

    def test_fold_joins_of_no_units_is_none(self):
        assert fold_joins([], lambda unit: unit) is None

    def test_fold_joins_defaults_to_patterns_and_the_traced_join(self):
        sc = SparkContext(2)
        s_o = TriplePattern(Variable("s"), uri("p"), Variable("o"))
        o_z = TriplePattern(Variable("o"), uri("q"), Variable("z"))
        rows = {s_o: [{"s": 1, "o": 2}], o_z: [{"o": 2, "z": 3}]}
        sc.tracer.enable()
        joined = fold_joins([s_o, o_z], lambda p: sc.parallelize(rows[p]))
        assert joined.collect() == [{"s": 1, "o": 2, "z": 3}]
        steps = [s for s in sc.tracer.roots if s.kind == "bgp_step"]
        assert [s.attrs["on"] for s in steps] == ["o"]

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


class TestBgpToSql:
    """The one SQL emitter S2RDF and the hybrid study's SQL strategy share."""

    IDS = {uri("p"): 1, uri("q"): 2, uri("a"): 7}

    def sql(self, patterns, tables=None):
        return bgp_to_sql(
            patterns,
            tables or ["triples"] * len(patterns),
            "triples",
            self.IDS.get,
        )

    def test_repeated_variable_in_the_first_pattern_goes_to_where(self):
        pattern = TriplePattern(Variable("x"), uri("p"), Variable("x"))
        assert self.sql([pattern]) == (
            "SELECT t0.s AS x FROM triples AS t0"
            " WHERE t0.p = 1 AND t0.o = t0.s",
            ["x"],
        )

    def test_no_shared_variable_is_a_cross_join(self):
        sql, variables = self.sql(
            [
                TriplePattern(Variable("a"), uri("p"), Variable("b")),
                TriplePattern(Variable("c"), uri("q"), Variable("d")),
            ]
        )
        assert sql == (
            "SELECT t0.s AS a, t0.o AS b, t1.s AS c, t1.o AS d"
            " FROM triples AS t0 CROSS JOIN triples AS t1"
            " WHERE t0.p = 1 AND t1.p = 2"
        )
        assert variables == ["a", "b", "c", "d"]

    def test_unknown_constant_compiles_to_none(self):
        known = TriplePattern(Variable("s"), uri("p"), Variable("o"))
        unknown = TriplePattern(Variable("s"), uri("nowhere"), Variable("z"))
        assert self.sql([known, unknown]) is None

    def test_variable_predicate_reads_the_wide_table_beside_a_vp_table(self):
        sql, variables = self.sql(
            [
                TriplePattern(uri("a"), Variable("p"), Variable("o")),
                TriplePattern(Variable("o"), uri("q"), Variable("z")),
            ],
            tables=["triples", "vp_2"],
        )
        # The VP table holds one predicate: no condition on it, no column.
        assert sql == (
            "SELECT t0.p AS p, t0.o AS o, t1.o AS z"
            " FROM triples AS t0 JOIN vp_2 AS t1 ON t1.s = t0.o"
            " WHERE t0.s = 7"
        )
        assert variables == ["p", "o", "z"]

    def test_no_variable_projects_a_constant_column(self):
        ground = TriplePattern(uri("a"), uri("p"), uri("a"))
        assert self.sql([ground]) == (
            "SELECT t0.s AS one FROM triples AS t0"
            " WHERE t0.s = 7 AND t0.p = 1 AND t0.o = 7",
            [],
        )
