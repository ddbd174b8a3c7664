"""S2RDF mechanism tests: ExtVP, SF threshold, SQL compilation."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.spark.sql.session import SparkSession
from repro.sparql.parser import parse_sparql
from repro.stats.catalog import StatsCatalog
from repro.systems.s2rdf import S2RdfEngine
from tests.systems.conftest import assert_engine_matches_reference
from tests.views.oracle import oracle_view

EX = "http://x/"
PREFIX = "PREFIX ex: <http://x/>\n"


def uri(name):
    return URI(EX + name)


@pytest.fixture
def chain_graph():
    """likes(a, b) and follows(b, c): OS correlation likes -> follows."""
    graph = RDFGraph()
    # 10 likes edges; only 3 of their objects have follows edges.
    for i in range(10):
        graph.add(Triple(uri("u%d" % i), uri("likes"), uri("v%d" % i)))
    for i in range(3):
        graph.add(Triple(uri("v%d" % i), uri("follows"), uri("w%d" % i)))
    return graph


class TestExtVPBuild:
    def test_semi_join_reduction_size(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4), sf_threshold=0.95)
        engine.load(chain_graph)
        likes = engine.dictionary.lookup_term(uri("likes"))
        follows = engine.dictionary.lookup_term(uri("follows"))
        # ExtVP_OS(likes, follows): likes rows whose object has a follows.
        name = engine._extvp_names[("os", likes, follows)]
        assert engine.table_sizes[name] == 3
        assert engine.selectivity_factors[("os", likes, follows)] == 0.3

    def test_sf_threshold_drops_large_reductions(self, chain_graph):
        tight = S2RdfEngine(SparkContext(4), sf_threshold=0.2)
        tight.load(chain_graph)
        loose = S2RdfEngine(SparkContext(4), sf_threshold=1.0)
        loose.load(chain_graph)
        assert tight.extvp_table_count() < loose.extvp_table_count()

    def test_threshold_one_keeps_everything_nonempty(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4), sf_threshold=1.0)
        engine.load(chain_graph)
        assert all(
            sf < 1.0 or key not in engine._extvp_names
            for key, sf in engine.selectivity_factors.items()
        )

    def test_storage_overhead_grows_with_threshold(self, chain_graph):
        tight = S2RdfEngine(SparkContext(4), sf_threshold=0.2)
        tight.load(chain_graph)
        loose = S2RdfEngine(SparkContext(4), sf_threshold=1.0)
        loose.load(chain_graph)
        assert loose.storage_rows() >= tight.storage_rows()
        assert tight.storage_rows(include_extvp=False) == len(chain_graph)

    def test_build_extvp_can_be_disabled(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4), build_extvp=False)
        engine.load(chain_graph)
        assert engine.extvp_table_count() == 0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            S2RdfEngine(SparkContext(2), sf_threshold=0.0)


def assert_extvp_computations_agree(graph):
    """S2RDF's tables, the view builder and the statistics catalog state
    one scheme: same rows per kept table, same factor per pair."""
    with mock.patch.object(
        SparkSession, "sql", side_effect=AssertionError("load ran SQL")
    ):
        engine = S2RdfEngine(SparkContext(4)).load(graph)
    stats = StatsCatalog.from_graph(graph)

    def n3(term_id):
        return engine.dictionary.decode_id(term_id).n3()

    for (kind, p1, p2), name in engine._extvp_names.items():
        rows = engine.session.table(name).rdd.collect()
        view = oracle_view(graph, (kind, n3(p1), n3(p2)), 0.0)
        assert sorted((n3(s), n3(o)) for s, o in rows) == [
            (s.n3(), o.n3()) for s, o in view.rows()
        ]
    for (kind, p1, p2), factor in engine.selectivity_factors.items():
        if p1 != p2:  # the catalogs keep no self-pairs (docs/VIEWS.md)
            assert round(factor, 6) == stats.selectivity(kind, n3(p1), n3(p2))
    return engine


class TestOneScheme:
    @pytest.mark.parametrize(
        "fixture", ["lubm_graph", "watdiv_graph", "chain_graph"]
    )
    def test_three_computations_agree(self, fixture, request):
        engine = assert_extvp_computations_agree(
            request.getfixturevalue(fixture)
        )
        assert engine.extvp_table_count() > 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_three_computations_agree_on_any_small_graph(self, edges):
        graph = RDFGraph()
        for s, p, o in edges:
            graph.add(Triple(uri("n%d" % s), uri("p%d" % p), uri("n%d" % o)))
        assert_extvp_computations_agree(graph)


class TestSqlCompilation:
    def test_query_uses_extvp_table(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4))
        engine.load(chain_graph)
        query = parse_sparql(
            PREFIX + "SELECT ?a ?b ?c WHERE { ?a ex:likes ?b . ?b ex:follows ?c }"
        )
        sql, _variables = engine.compile_sql(query.where.triple_patterns())
        assert "extvp_" in sql

    def test_compiled_sql_executes_correctly(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4))
        engine.load(chain_graph)
        result = assert_engine_matches_reference(
            engine,
            chain_graph,
            PREFIX + "SELECT ?a ?c WHERE { ?a ex:likes ?b . ?b ex:follows ?c }",
        )
        assert len(result) == 3

    def test_extvp_reduces_scanned_rows(self, chain_graph):
        with_extvp = S2RdfEngine(SparkContext(4))
        with_extvp.load(chain_graph)
        without = S2RdfEngine(SparkContext(4), build_extvp=False)
        without.load(chain_graph)
        query = (
            PREFIX + "SELECT ?a ?c WHERE { ?a ex:likes ?b . ?b ex:follows ?c }"
        )
        scanned = []
        for engine in (with_extvp, without):
            before = engine.ctx.metrics.get("records_scanned")
            engine.execute(query)
            scanned.append(engine.ctx.metrics.get("records_scanned") - before)
        assert scanned[0] < scanned[1]

    def test_bound_constant_in_where_clause(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4))
        engine.load(chain_graph)
        assert_engine_matches_reference(
            engine,
            chain_graph,
            PREFIX + "SELECT ?b WHERE { ex:u1 ex:likes ?b }",
        )

    def test_unknown_constant_returns_empty(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4))
        engine.load(chain_graph)
        result = engine.execute(
            PREFIX + "SELECT ?b WHERE { ex:stranger ex:likes ?b }"
        )
        assert len(result) == 0

    def test_variable_predicate_falls_back_to_alltriples(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4))
        engine.load(chain_graph)
        query = parse_sparql(PREFIX + "SELECT ?p WHERE { ex:u1 ?p ?o }")
        sql, _variables = engine.compile_sql(query.where.triple_patterns())
        assert "alltriples" in sql
        assert_engine_matches_reference(
            engine, chain_graph, PREFIX + "SELECT ?p WHERE { ex:u1 ?p ?o }"
        )

    def test_pattern_order_bound_variables_first(self, chain_graph):
        engine = S2RdfEngine(SparkContext(4))
        engine.load(chain_graph)
        query = parse_sparql(
            PREFIX
            + "SELECT * WHERE { ?a ex:likes ?b . ex:v1 ex:follows ?c }"
        )
        patterns = query.where.triple_patterns()
        order = engine._order_patterns(patterns)
        # The follows pattern has a bound subject: it must come first.
        assert patterns[order[0]].bound_count() == 2

    def test_lubm_correctness(self, lubm_graph):
        from repro.data.lubm import LubmGenerator

        engine = S2RdfEngine(SparkContext(4))
        engine.load(lubm_graph)
        for name, text in LubmGenerator.all_queries().items():
            query = parse_sparql(text)
            if engine.supports(query):
                assert_engine_matches_reference(engine, lubm_graph, text)
