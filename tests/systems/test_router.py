"""The survey's per-shape dispatch table, as served by a routed service.

``QueryService(route=True)`` is the one router: a fresh (prior-only)
:class:`repro.routing.RoutingPolicy` reproduces the survey's static
shape -> engine table, and these tests pin that table end to end --
through admission, dispatch and execution -- where
``tests/routing/test_policy.py`` pins the bare decisions.
"""

import pytest

from repro.data.lubm import LubmGenerator
from repro.routing.defaults import (
    DEFAULT_FALLBACK_CHAIN,
    DEFAULT_SHAPE_PREFERENCES,
)
from repro.server import QueryRequest, QueryService
from repro.server.protocol import canonical_json, canonical_result
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.sparql.shapes import QueryShape

PREFIX = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)


@pytest.fixture
def router(lubm_graph):
    return QueryService(lubm_graph, route=True, pool_size=1)


def routed_engine(service, text):
    outcome = service.submit(QueryRequest(text))
    assert outcome.status == "ok", outcome.error
    return outcome.engine


class TestRoutingChoices:
    def test_star_goes_to_haqwa(self, router):
        assert routed_engine(router, LubmGenerator.query_star()) == "HAQWA"

    def test_linear_goes_to_s2rdf(self, router):
        assert routed_engine(router, LubmGenerator.query_linear()) == "S2RDF"

    def test_snowflake_goes_to_hybrid(self, router):
        assert (
            routed_engine(router, LubmGenerator.query_snowflake())
            == "SPARQL-Hybrid"
        )

    def test_complex_goes_to_sparkrdf(self, router):
        assert (
            routed_engine(router, LubmGenerator.query_complex())
            == "SparkRDF"
        )

    def test_single_goes_to_sparqlgx(self, router):
        assert (
            routed_engine(
                router, PREFIX + "SELECT ?s WHERE { ?s lubm:age ?a }"
            )
            == "SPARQLGX"
        )

    def test_fragment_fallback(self, router):
        # Snowflake prefers Hybrid (BGP only); FILTER forces it out.
        query = PREFIX + """
        SELECT ?s WHERE {
          ?s rdf:type lubm:GraduateStudent .
          ?s lubm:memberOf ?d .
          ?s lubm:advisor ?p .
          ?p lubm:worksFor ?d2 .
          ?p lubm:teacherOf ?c .
          FILTER(?s != ?p)
        }
        """
        assert routed_engine(router, query) != "SPARQL-Hybrid"

    def test_optional_falls_back_past_s2rdf(self, router):
        query = PREFIX + """
        SELECT ?s ?p ?dep WHERE {
          ?s lubm:advisor ?p .
          ?p lubm:worksFor ?dep .
          OPTIONAL { ?s lubm:age ?a }
        }
        """
        # Linear shape prefers S2RDF, which lacks OPTIONAL.
        assert routed_engine(router, query) == "SPARQLGX"

    def test_custom_routing_override(self, lubm_graph):
        service = QueryService(
            lubm_graph, route=True, route_engines=["SPARQLGX"], pool_size=1
        )
        assert (
            routed_engine(service, LubmGenerator.query_star()) == "SPARQLGX"
        )


class TestRouterExecution:
    @pytest.mark.parametrize(
        "name", ["star", "linear", "snowflake", "complex", "filter", "optional"]
    )
    def test_matches_reference_everywhere(self, router, lubm_graph, name):
        text = LubmGenerator.all_queries()[name]
        query = parse_sparql(text)
        outcome = router.submit(QueryRequest(text))
        assert outcome.payload == canonical_json(
            canonical_result(evaluate(query, lubm_graph), query)
        )

    def test_last_engine_recorded(self, router):
        router.submit(QueryRequest(LubmGenerator.query_star()))
        assert router.stats()["routing"]["decisions"]["star"] == {"HAQWA": 1}

    def test_default_routing_covers_every_shape(self):
        assert set(DEFAULT_SHAPE_PREFERENCES) == set(QueryShape)


class TestSharedDefaults:
    def test_fragment_fallback_chain_is_pinned(self, router):
        """Regression: the fallback order is part of the routing contract
        -- SPARQLGX (wide fragment) before Naive (full coverage)."""
        assert DEFAULT_FALLBACK_CHAIN == ("SPARQLGX", "Naive")
        assert tuple(router.routing.fallbacks) == DEFAULT_FALLBACK_CHAIN
