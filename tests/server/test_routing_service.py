"""The routed QueryService: adaptive dispatch must never change answers.

The contract under test (docs/ROUTING.md): routing chooses *where* a
query runs, never *what* it answers -- payload bytes with ``route=True``
are identical to the fixed-engine service for every corpus query, under
every backend, for any worker count.
"""

import glob
import os

import pytest

from repro.data.lubm import LUBM
from repro.rdf.triple import Triple
from repro.server import QueryRequest, QueryService

CORPUS = sorted(
    glob.glob(
        os.path.join(
            os.path.dirname(__file__),
            "..",
            "..",
            "examples",
            "queries",
            "shapes",
            "*",
            "*.rq",
        )
    )
)
CORPUS_IDS = [os.path.basename(path) for path in CORPUS]

STAR_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "SELECT ?s ?n ?a WHERE { ?s lubm:name ?n . ?s lubm:age ?a }"
)


def read_query(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture
def routed(lubm_graph):
    return QueryService(lubm_graph, route=True, pool_size=1)


class TestConstruction:
    def test_route_engines_requires_route(self, lubm_graph):
        with pytest.raises(ValueError):
            QueryService(lubm_graph, route_engines=["SPARQLGX"])

    def test_pool_slots_hold_every_candidate(self, routed):
        slot = routed.pool[0]
        for name in routed.routing.engines:
            assert slot.engine_for(name).profile.name == name

    def test_route_enabled_property(self, routed, lubm_graph):
        assert routed.route_enabled
        assert not QueryService(lubm_graph).route_enabled


class TestDifferential:
    """Routing on == routing off, byte for byte, query by query."""

    @pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
    def test_routed_payload_matches_fixed_engine(
        self, routed, lubm_graph, path
    ):
        text = read_query(path)
        fixed = QueryService(lubm_graph, pool_size=1).submit(
            QueryRequest(text=text)
        )
        outcome = routed.submit(QueryRequest(text=text))
        assert outcome.status == "ok"
        assert outcome.payload == fixed.payload

    def test_shape_and_engine_annotations(self, routed):
        outcome = routed.submit(QueryRequest(text=STAR_QUERY))
        assert outcome.shape == "star"
        assert outcome.engine == "HAQWA"  # fresh policy: survey preference
        # The wire envelope stays routing-agnostic.
        assert "engine" not in outcome.to_response()
        assert "shape" not in outcome.to_response()


class TestResultCache:
    def test_hits_are_keyed_by_routed_engine(self, routed):
        # Pin the winner first: otherwise exploration moves the next
        # request to a different engine (a different cache key).
        routed.routing.feedback.seed_prior("HAQWA", "star", 0.0001)
        cold = routed.submit(QueryRequest(text=STAR_QUERY))
        warm = routed.submit(QueryRequest(text=STAR_QUERY))
        assert (cold.engine, warm.engine) == ("HAQWA", "HAQWA")
        assert (cold.cache, warm.cache) == ("cold", "result")
        assert warm.payload == cold.payload

    def test_engine_change_misses_then_matches_bytes(self, routed):
        """When calibration moves a shape to a new engine, the cache must
        miss (different engine key) yet the bytes must still match."""
        cold = routed.submit(QueryRequest(text=STAR_QUERY))
        assert cold.engine == "HAQWA"
        routed.routing.feedback.seed_prior("SPARQLGX", "star", 0.0001)
        moved = routed.submit(QueryRequest(text=STAR_QUERY))
        assert moved.engine == "SPARQLGX"
        assert moved.cache != "result"  # no false sharing across engines
        assert moved.payload == cold.payload  # answers never change


class TestFeedbackLoop:
    def test_observed_units_feed_calibration(self, routed):
        routed.submit(QueryRequest(text=STAR_QUERY))
        snap = routed.stats()["routing"]
        assert snap["decisions"]["star"]["HAQWA"] == 1
        assert snap["calibration"]["HAQWA"]["star"]["observations"] == 1

    def test_stats_off_without_routing(self, lubm_graph):
        assert "routing" not in QueryService(lubm_graph).stats()

    def test_route_span_and_metrics(self, routed):
        routed.tracer.clear().enable()
        routed.submit(QueryRequest(text=STAR_QUERY, id="star"))
        routed.tracer.disable()
        assert routed.metrics.snapshot()["routing_decisions"] == 1
        (request_span,) = routed.tracer.roots
        (route,) = [s for s in request_span.walk() if s.kind == "route"]
        # The attrs docs/METRICS.md and docs/ROUTING.md document.
        assert route.name == "star"
        assert route.attrs["shape"] == "star"
        assert route.attrs["engine"] == "HAQWA"
        assert route.attrs["fallback"] is False
        assert route.attrs["candidates"] >= 2
        assert route.attrs["base_cost"] > 0

    def test_calibration_survives_commit(self, routed):
        routed.submit(QueryRequest(text=STAR_QUERY))
        before = routed.stats()["routing"]["calibration"]
        triple = Triple(
            LUBM.term("StudentX"), LUBM.term("age"), LUBM.term("99")
        )
        routed.commit(additions=[triple])
        after = routed.stats()["routing"]["calibration"]
        assert after == before
        # And the policy keeps serving against the new version.
        outcome = routed.submit(QueryRequest(text=STAR_QUERY))
        assert outcome.status == "ok"


class TestCustomPools:
    def test_narrow_pool_restricts_dispatch(self, lubm_graph):
        service = QueryService(
            lubm_graph, route=True, route_engines=["SPARQLGX"], pool_size=1
        )
        outcome = service.submit(QueryRequest(text=STAR_QUERY))
        assert outcome.engine == "SPARQLGX"

    def test_fallback_outside_pool_is_still_warmed(self, lubm_graph):
        """OPTIONAL is outside HAQWA's fragment; the fallback chain must
        dispatch to a warmed engine, not crash on a missing slot."""
        service = QueryService(
            lubm_graph, route=True, route_engines=["HAQWA"], pool_size=1
        )
        outcome = service.submit(
            QueryRequest(
                text=(
                    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
                    "SELECT ?s ?p WHERE { ?s lubm:advisor ?p "
                    "OPTIONAL { ?p lubm:name ?n } }"
                )
            )
        )
        assert outcome.status == "ok"
        assert outcome.engine == "SPARQLGX"
        assert routed_stats_fallbacks(service) == 1


def routed_stats_fallbacks(service):
    return service.stats()["routing"]["fallback_decisions"]


class TestParallelBackend:
    """Routing decisions and wire bytes are backend- and worker-invariant."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_matches_oracle(self, lubm_graph, workers):
        queries = [read_query(path) for path in CORPUS[:4]]
        oracle = QueryService(lubm_graph, route=True, pool_size=1)
        parallel = QueryService(
            lubm_graph,
            route=True,
            pool_size=1,
            backend="parallel",
            workers=workers,
        )
        for text in queries:
            expected = oracle.submit(QueryRequest(text=text))
            actual = parallel.submit(QueryRequest(text=text))
            assert actual.engine == expected.engine
            assert actual.payload == expected.payload

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [4])
    def test_parallel_full_corpus(self, lubm_graph, workers):
        oracle = QueryService(lubm_graph, route=True, pool_size=1)
        parallel = QueryService(
            lubm_graph,
            route=True,
            pool_size=1,
            backend="parallel",
            workers=workers,
        )
        for path in CORPUS:
            text = read_query(path)
            expected = oracle.submit(QueryRequest(text=text))
            actual = parallel.submit(QueryRequest(text=text))
            assert actual.engine == expected.engine
            assert actual.payload == expected.payload
        assert (
            parallel.stats()["routing"]["decisions"]
            == oracle.stats()["routing"]["decisions"]
        )
