"""QueryService: warm pool, cache tiers, deadlines, version invalidation."""

import glob
import json
import os

import pytest

from repro.data.lubm import LUBM
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.runtime import RuntimeConfig, UnknownEngineError
from repro.server import QueryRequest, QueryService
from repro.server.frontend import handle_request
from repro.server.protocol import (
    WireLiteral,
    canonical_json,
    canonical_result,
    encode_response,
)
from repro.spark.deadline import DeadlineExceededError
from repro.sparql.parser import parse_sparql

SHAPE_QUERIES = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "queries", "shapes"
)
MEMBER_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "SELECT DISTINCT ?d WHERE { ?s lubm:memberOf ?d }"
)
SCAN_QUERY = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"


@pytest.fixture
def service(lubm_graph):
    return QueryService(lubm_graph, engine="SPARQLGX", pool_size=2)


class TestConstruction:
    def test_unknown_engine_fails_fast(self, lubm_graph):
        with pytest.raises(UnknownEngineError):
            QueryService(lubm_graph, engine="NoSuchEngine")

    def test_pool_is_warm(self, service):
        """Every pooled engine has its store built before the first query."""
        for engine in service.pool:
            assert engine._loaded

    def test_rejects_empty_pool(self, lubm_graph):
        with pytest.raises(ValueError):
            QueryService(lubm_graph, pool_size=0)

    def test_rejects_nonpositive_default_deadline(self, lubm_graph):
        """Regression: a zero default deadline must fail at construction,
        not crash the serve loop on the first query."""
        for bad in (0, -5):
            with pytest.raises(ValueError):
                QueryService(lubm_graph, default_deadline=bad)


class TestCaching:
    def test_result_cache_hit_is_byte_identical_to_cold_run(self, service):
        cold = service.submit(QueryRequest(text=MEMBER_QUERY, id="cold"))
        warm = service.submit(QueryRequest(text=MEMBER_QUERY, id="warm"))
        assert cold.cache == "cold"
        assert warm.cache == "result"
        assert warm.payload == cold.payload  # byte identity (bytes stored)
        # And identical to a fresh service's cold execution.
        fresh = QueryService(
            service.versions.head(), engine="SPARQLGX", pool_size=1
        ).submit(QueryRequest(text=MEMBER_QUERY))
        assert fresh.payload == cold.payload

    def test_a_hit_is_a_miss_on_the_wire(self, lubm_graph):
        """Every shape query through ``handle_request`` + ``encode_response``:
        the spliced hit differs from the miss in ``cache`` and ``units``
        only, and a commit that changes the answer brings a cold miss."""
        service = QueryService(
            lubm_graph, engine="SPARQLGX", pool_size=1, optimize=True
        )
        texts = [
            open(path).read()
            for path in sorted(glob.glob(SHAPE_QUERIES + "/*/*.rq"))
        ]
        assert len(texts) == 10

        def ask(text):
            line = encode_response(
                handle_request(service, {"op": "query", "query": text})
            )
            return line, json.loads(line)

        def accounting_removed(response):
            return {
                k: v for k, v in response.items() if k not in ("cache", "units")
            }

        before = []
        for text in texts:
            miss_line, miss = ask(text)
            hit_line, hit = ask(text)
            assert (miss["cache"], hit["cache"]) == ("cold", "result")
            assert accounting_removed(hit) == accounting_removed(miss)
            assert hit_line == miss_line.replace(
                '"cache":"cold"', '"cache":"result"'
            ).replace('"units":%d' % miss["units"], '"units":1')
            outcomes = [
                service.submit(QueryRequest(text=text)) for _ in range(2)
            ]
            assert type(outcomes[0].payload) is str
            assert outcomes[0].payload == outcomes[1].payload == miss["result"]
            before.append(miss["result"])
        entries = list(service.result_cache._entries.values())
        assert len(entries) == 10
        assert all(type(entry) is WireLiteral for entry in entries)

        # A student in every pattern: a name, an age, a department, a
        # course and its teacher as advisor, who gets one more course.
        prof, _, course = next(iter(lubm_graph.triples((None, LUBM.teacherOf, None))))
        dept = next(iter(lubm_graph.triples((prof, LUBM.worksFor, None)))).object
        new = LUBM["StudentNew"]
        service.commit(
            additions=[
                Triple(new, LUBM.name, Literal('New "Student"')),
                Triple(new, LUBM.age, Literal(21)),
                Triple(new, LUBM.memberOf, dept),
                Triple(new, LUBM.takesCourse, course),
                Triple(new, LUBM.advisor, prof),
                Triple(prof, LUBM.teacherOf, LUBM["CourseNew"]),
            ]
        )
        for text, stale in zip(texts, before):
            _, fresh = ask(text)
            assert fresh["cache"] == "cold" and fresh["version"] == 1
            assert fresh["result"] != stale

    def test_textual_variants_share_cache_entries(self, service):
        service.submit(QueryRequest(text=MEMBER_QUERY))
        variant = MEMBER_QUERY.replace("\n", "   \n") + "  # comment"
        again = service.submit(QueryRequest(text=variant))
        assert again.cache == "result"

    def test_literal_whitespace_queries_stay_distinct(self, service):
        """Regression: "a  b" and "a b" are different queries -- they
        must neither share a cache entry nor execute a rewritten text."""
        spaced = 'SELECT ?s WHERE { ?s ?p "a  b" }'
        collapsed = 'SELECT ?s WHERE { ?s ?p "a b" }'
        first = service.submit(QueryRequest(text=spaced))
        second = service.submit(QueryRequest(text=collapsed))
        assert first.status == "ok" and second.status == "ok"
        assert second.cache == "cold"  # distinct keys, no false sharing

    def test_a_filter_with_less_than_answers_what_query_answers(
        self, service, lubm_graph
    ):
        """Regression: a ``<`` comparison followed by a comment with a
        ``>`` failed to parse once normalized for the cache."""
        text = (
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT ?s ?a WHERE { ?s lubm:age ?a FILTER (?a < 40) # ?a > 0\n}"
        )
        served = service.submit(QueryRequest(text=text))
        assert served.status == "ok", served.error
        # What `repro query` answers: the engine on the text as given.
        run = RuntimeConfig().engine("SPARQLGX", lubm_graph).measure(text)
        answer = canonical_result(run.answer, parse_sparql(text))
        assert answer["rows"]
        assert served.payload == canonical_json(answer)

    def test_cache_hit_is_cheap(self, service):
        cold = service.submit(QueryRequest(text=MEMBER_QUERY))
        warm = service.submit(QueryRequest(text=MEMBER_QUERY))
        assert warm.service_units < cold.service_units

    def test_plan_cache_without_result_cache(self, lubm_graph):
        service = QueryService(
            lubm_graph, pool_size=1, enable_result_cache=False
        )
        first = service.submit(QueryRequest(text=MEMBER_QUERY))
        second = service.submit(QueryRequest(text=MEMBER_QUERY))
        assert first.cache == "cold"
        assert second.cache == "plan"  # parsed once, executed twice
        assert second.payload == first.payload
        assert service.snapshot().result_cache_hits == 0

    def test_caches_fully_disabled(self, lubm_graph):
        service = QueryService(
            lubm_graph,
            pool_size=1,
            enable_plan_cache=False,
            enable_result_cache=False,
        )
        for _ in range(2):
            assert service.submit(QueryRequest(text=MEMBER_QUERY)).cache == "cold"

    def test_counters_track_hits_and_misses(self, service):
        service.submit(QueryRequest(text=MEMBER_QUERY))
        service.submit(QueryRequest(text=MEMBER_QUERY))
        snapshot = service.snapshot()
        assert snapshot.result_cache_misses == 1
        assert snapshot.result_cache_hits == 1
        assert snapshot.plan_cache_misses == 1
        assert snapshot.result_cache_hit_rate() == 0.5


class TestVersioning:
    def test_commit_bumps_version_and_invalidates(self, service):
        stale = service.submit(QueryRequest(text=MEMBER_QUERY))
        version = service.commit(
            additions=[
                Triple(LUBM["NewStudent"], LUBM.memberOf, LUBM["DeptNew"])
            ]
        )
        assert version == 1
        assert service.snapshot().result_cache_invalidations >= 1
        fresh = service.submit(QueryRequest(text=MEMBER_QUERY))
        # Old result entry is unusable; the text-keyed plan cache survives.
        assert fresh.cache == "plan"
        assert fresh.payload != stale.payload
        assert "DeptNew" in fresh.payload

    def test_answers_reflect_deletions(self, service, lubm_graph):
        # Non-DISTINCT projection: dropping one membership drops one row.
        query = (
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }"
        )
        victim = next(iter(lubm_graph.triples((None, LUBM.memberOf, None))))
        before = service.submit(QueryRequest(text=query))
        service.commit(deletions=[victim])
        after = service.submit(QueryRequest(text=query))
        assert after.version == 1
        assert after.payload != before.payload

    def test_new_version_repopulates_cache(self, service):
        service.submit(QueryRequest(text=MEMBER_QUERY))
        service.commit(
            additions=[Triple(LUBM["S"], LUBM.memberOf, LUBM["D"])]
        )
        service.submit(QueryRequest(text=MEMBER_QUERY))
        hit = service.submit(QueryRequest(text=MEMBER_QUERY))
        assert hit.cache == "result"


class TestDeadlines:
    """Runtime deadline behavior.

    These tests disable lint admission: the static linter (QL005) would
    otherwise reject the doomed queries before execution, which is the
    subject of tests/server/test_lint_admission.py -- here the point is
    what happens when an admitted query *runs out* of budget.
    """

    @pytest.fixture
    def unlinted(self, lubm_graph):
        return QueryService(
            lubm_graph, engine="SPARQLGX", pool_size=2, lint_admission=False
        )

    def test_over_deadline_query_fails_typed_while_others_complete(
        self, unlinted
    ):
        """The acceptance scenario: one doomed query, healthy neighbours."""
        doomed = unlinted.submit(
            QueryRequest(text=SCAN_QUERY, id="doomed", deadline=5)
        )
        assert doomed.status == "deadline"
        assert "cost unit" in doomed.error
        healthy = unlinted.submit(QueryRequest(text=MEMBER_QUERY, id="ok"))
        assert healthy.status == "ok"
        assert unlinted.snapshot().deadline_aborts == 1

    def test_deadline_abort_is_not_cached(self, unlinted):
        unlinted.submit(QueryRequest(text=SCAN_QUERY, deadline=5))
        retry = unlinted.submit(QueryRequest(text=SCAN_QUERY))
        assert retry.status == "ok"
        assert retry.cache in ("cold", "plan")

    def test_default_deadline_applies(self, lubm_graph):
        service = QueryService(
            lubm_graph, pool_size=1, default_deadline=5, lint_admission=False
        )
        assert (
            service.submit(QueryRequest(text=SCAN_QUERY)).status == "deadline"
        )

    def test_request_deadline_overrides_default(self, lubm_graph):
        service = QueryService(lubm_graph, pool_size=1, default_deadline=5)
        generous = service.submit(
            QueryRequest(text=MEMBER_QUERY, deadline=10**9)
        )
        assert generous.status == "ok"

    def test_deadline_disarmed_after_abort(self, unlinted):
        unlinted.submit(QueryRequest(text=SCAN_QUERY, deadline=5))
        for engine in unlinted.pool:
            assert engine.ctx.deadline is None

    def test_deadline_error_direct_engine_access(self, service):
        """The typed error also escapes raw engine use (no service wrapper)."""
        engine = service.pool[0]
        engine.ctx.set_deadline(3, query="raw")
        try:
            with pytest.raises(DeadlineExceededError) as info:
                engine.execute(SCAN_QUERY)
            assert info.value.spent > 3
            assert info.value.query == "raw"
        finally:
            engine.ctx.set_deadline(None)


class TestErrorStatuses:
    def test_parse_error_is_reported_not_raised(self, service):
        outcome = service.submit(QueryRequest(text="SELECT WHERE oops"))
        assert outcome.status == "error"
        assert "parse error" in outcome.error

    def test_unsupported_query_status(self, lubm_graph):
        # SparkRDF publishes a BGP-only fragment: ORDER BY is out.
        service = QueryService(lubm_graph, engine="SparkRDF", pool_size=1)
        outcome = service.submit(
            QueryRequest(
                text=MEMBER_QUERY.replace("SELECT DISTINCT", "SELECT")
                + " ORDER BY ?d"
            )
        )
        assert outcome.status == "unsupported"
        assert "BGP" in outcome.error


BAD_REGEX_QUERY = 'SELECT ?s WHERE { ?s ?p ?o FILTER(REGEX(STR(?s), "(")) }'


class TestRequestBoundary:
    """One request's failure is its own response, never the service's."""

    def test_invalid_regex_answers_no_rows(self, service):
        outcome = service.submit(QueryRequest(text=BAD_REGEX_QUERY))
        assert outcome.status == "ok"
        assert json.loads(outcome.payload)["rows"] == []

    def test_engine_error_is_one_response_and_the_slot_is_rebuilt(
        self, lubm_graph
    ):
        expected = QueryService(lubm_graph, engine="SPARQLGX", pool_size=1)
        expected = expected.submit(QueryRequest(text=MEMBER_QUERY))
        service = QueryService(lubm_graph, engine="SPARQLGX", pool_size=1)
        broken = service.pool[0]

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        broken.measure = explode
        outcome = service.submit(QueryRequest(text=MEMBER_QUERY, id="x"))
        assert (outcome.status, outcome.id) == ("error", "x")
        assert outcome.error == "SPARQLGX raised RuntimeError: boom"
        assert outcome.result is None
        assert service.pool[0] is not broken
        # No answer was cached (the parse was): the rebuilt slot runs the
        # query and answers what a fresh service does.
        again = service.submit(QueryRequest(text=MEMBER_QUERY))
        assert (again.status, again.cache) == ("ok", "plan")
        assert again.payload == expected.payload


class TestFaultIntegration:
    def test_answers_survive_fault_schedule(self, lubm_graph):
        clean = QueryService(lubm_graph, pool_size=1).submit(
            QueryRequest(text=MEMBER_QUERY)
        )
        faulty = QueryService(
            lubm_graph,
            pool_size=1,
            faults="fail:p=0.3;seed=7",
            max_task_attempts=10,
        ).submit(QueryRequest(text=MEMBER_QUERY))
        assert faulty.status == "ok"
        assert faulty.payload == clean.payload


class TestPoolAndStats:
    def test_round_robin_across_pool(self, service):
        workers = {
            service.submit(QueryRequest(text=MEMBER_QUERY)).worker
            for _ in range(4)
        }
        assert workers == {0, 1}

    def test_stats_shape(self, service):
        service.submit(QueryRequest(text=MEMBER_QUERY))
        stats = service.stats()
        assert stats["engine"] == "SPARQLGX"
        assert stats["pool_size"] == 2
        assert stats["counters"]["queries_completed"] == 1

    def test_tracer_spans_when_enabled(self, service):
        service.tracer.clear().enable()
        service.submit(QueryRequest(text=MEMBER_QUERY, id="traced"))
        service.commit(
            additions=[Triple(LUBM["S"], LUBM.memberOf, LUBM["D"])]
        )
        service.tracer.disable()
        kinds = [span.kind for span in service.tracer.roots]
        assert "request" in kinds and "commit" in kinds
        request_span = service.tracer.roots[0]
        assert request_span.attrs["status"] == "ok"
