"""The harvester: exact paging, staleness, refresh, and the
differential property -- a harvested subgraph validates byte-identically
to the remote graph it was paged out of."""

import hashlib

import pytest

from repro.federation import (
    HarvestError,
    StaleSubgraphError,
    Subgraph,
    WireEndpoint,
    harvest_for_shapes,
    validate_remote_first,
)
from repro.server.service import QueryService
from repro.shacl import (
    ServiceExecutor,
    ShaclValidator,
    load_shapes_file,
)
from repro.spark.context import SparkContext

from tests.federation import pair_endpoint

LUBM = "http://repro.example.org/lubm#"
ADVISOR_HARVEST = (
    "CONSTRUCT { ?s <%(l)sadvisor> ?o } WHERE { ?s <%(l)sadvisor> ?o }"
    % {"l": LUBM}
)
NEW_TRIPLE = (
    "<http://example.org/s> <http://example.org/p> <http://example.org/o> ."
)


def sha(report) -> str:
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


class TestPaging:
    def test_pages_reassemble_the_full_answer(self, lubm_graph):
        unpaged = Subgraph(pair_endpoint(lubm_graph.copy()), page_size=10_000)
        bulk = unpaged.harvest(ADVISOR_HARVEST)
        paged = Subgraph(pair_endpoint(lubm_graph.copy()), page_size=5)
        record = paged.harvest(ADVISOR_HARVEST)
        assert bulk.pages == 1
        assert record.pages == (record.triples + 4) // 5
        assert record.pages > 1
        assert sorted(t.n3() for t in paged.head().to_list()) == sorted(
            t.n3() for t in unpaged.head().to_list()
        )

    def test_harvest_record_accounting(self, lubm_graph):
        subgraph = Subgraph(pair_endpoint(lubm_graph.copy()), page_size=7)
        record = subgraph.harvest(ADVISOR_HARVEST, id="advisors")
        assert record.id == "advisors"
        assert record.triples == record.new_triples == len(subgraph)
        assert record.units > 0
        assert record.remote_version == 0
        payload = record.to_payload()
        assert payload["pages"] == record.pages
        assert "text" not in payload

    def test_overlapping_harvests_dedupe(self, lubm_graph):
        subgraph = Subgraph(pair_endpoint(lubm_graph.copy()), page_size=16)
        first = subgraph.harvest(ADVISOR_HARVEST)
        second = subgraph.harvest(ADVISOR_HARVEST)
        assert first.new_triples == first.triples
        assert second.new_triples == 0
        assert len(subgraph) == first.triples

    def test_local_history_records_each_harvest(self, lubm_graph):
        subgraph = Subgraph(pair_endpoint(lubm_graph.copy()), page_size=16)
        assert subgraph.versions.head_version == 0
        subgraph.harvest(ADVISOR_HARVEST)
        assert subgraph.versions.head_version == 1

    def test_rejects_select_queries(self, lubm_graph):
        subgraph = Subgraph(pair_endpoint(lubm_graph.copy()))
        with pytest.raises(ValueError):
            subgraph.harvest("SELECT ?s WHERE { ?s ?p ?o }")

    def test_rejects_pre_paged_queries(self, lubm_graph):
        subgraph = Subgraph(pair_endpoint(lubm_graph.copy()))
        with pytest.raises(ValueError):
            subgraph.harvest(ADVISOR_HARVEST + " LIMIT 3")

    def test_rejects_bad_page_size(self, lubm_graph):
        with pytest.raises(ValueError):
            Subgraph(pair_endpoint(lubm_graph.copy()), page_size=0)

    def test_failed_page_raises_harvest_error(self, lubm_graph):
        # A 1-unit deadline kills the first page request.
        subgraph = Subgraph(pair_endpoint(lubm_graph.copy()), deadline=1)
        with pytest.raises(HarvestError):
            subgraph.harvest(ADVISOR_HARVEST)


class _ChurningEndpoint(WireEndpoint):
    """Commits a fresh triple under selected queries -- a writer racing
    the harvester.  ``every=0`` churns exactly once, under query 3."""

    def __init__(self, service, every: int = 0) -> None:
        super().__init__(service)
        self._every = every
        self._queries = 0

    def query(self, text, id="", tenant="federation", deadline=None):
        self._queries += 1
        churn = (
            self._queries % self._every == 0
            if self._every
            else self._queries == 3
        )
        if churn:
            self.commit(
                additions=[
                    "<http://example.org/churn%d> <http://example.org/p> "
                    '"%d" .' % (self._queries, self._queries)
                ]
            )
        return super().query(text, id=id, tenant=tenant, deadline=deadline)


class TestVersionConsistency:
    def test_mid_harvest_commit_triggers_restart(self, lubm_graph):
        # One churn under page 3: the first attempt aborts there, the
        # restart completes at the new (now stable) version.
        endpoint = _ChurningEndpoint(QueryService(lubm_graph.copy()))
        subgraph = Subgraph(endpoint, page_size=4)
        record = subgraph.harvest(ADVISOR_HARVEST)
        clean = Subgraph(pair_endpoint(lubm_graph.copy()), page_size=10_000)
        clean.harvest(ADVISOR_HARVEST)
        assert sorted(t.n3() for t in subgraph.head().to_list()) == sorted(
            t.n3() for t in clean.head().to_list()
        )
        assert record.remote_version == 1
        # The endpoint saw more page queries than the successful pass
        # kept: the discarded first attempt was real.
        assert endpoint._queries > record.pages

    def test_relentless_churn_exhausts_restarts(self, lubm_graph):
        endpoint = _ChurningEndpoint(QueryService(lubm_graph.copy()), every=2)
        subgraph = Subgraph(endpoint, page_size=4, max_restarts=1)
        with pytest.raises(HarvestError):
            subgraph.harvest(ADVISOR_HARVEST)


class TestStaleness:
    def test_unpopulated_cache_is_not_stale(self, lubm_graph):
        assert not Subgraph(pair_endpoint(lubm_graph.copy())).is_stale()

    def test_remote_commit_invalidates(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        subgraph = Subgraph(endpoint, page_size=64)
        subgraph.harvest(ADVISOR_HARVEST)
        assert not subgraph.is_stale()
        endpoint.commit(additions=[NEW_TRIPLE])
        assert subgraph.is_stale()
        with pytest.raises(StaleSubgraphError):
            subgraph.harvest(ADVISOR_HARVEST)

    def test_refresh_catches_up(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        subgraph = Subgraph(endpoint, page_size=64)
        subgraph.harvest(ADVISOR_HARVEST)
        grad = sorted(lubm_graph.to_list())[0].subject.n3()
        endpoint.commit(
            additions=["%s <%sadvisor> <%sNewAdvisor> ." % (grad, LUBM, LUBM)]
        )
        outcome = subgraph.refresh()
        assert outcome["refreshed"]
        assert outcome["added"] == 1
        assert outcome["remote_version"] == 1
        assert not subgraph.is_stale()
        # And harvesting is legal again at the new version.
        subgraph.harvest(ADVISOR_HARVEST, id="again")

    def test_refresh_removes_dropped_triples(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        subgraph = Subgraph(endpoint, page_size=64)
        before = subgraph.harvest(ADVISOR_HARVEST).triples
        dropped = sorted(
            subgraph.head().to_list(), key=lambda t: t.n3()
        )[0]
        endpoint.commit(deletions=[dropped.n3()])
        outcome = subgraph.refresh()
        assert outcome["removed"] == 1
        assert len(subgraph) == before - 1

    def test_noop_refresh(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        subgraph = Subgraph(endpoint, page_size=64)
        subgraph.harvest(ADVISOR_HARVEST)
        outcome = subgraph.refresh()
        assert outcome == {
            "refreshed": False,
            "remote_version": 0,
            "added": 0,
            "removed": 0,
            "pages": 0,
            "units": 0,
        }


class _FailingEndpoint(WireEndpoint):
    """Answers every page query until armed: ``fail_after = n`` lets n
    more page queries through, then fails each later one with an error
    response, as a remote that dies mid-harvest does."""

    def __init__(self, service) -> None:
        super().__init__(service)
        self.fail_after = None

    def query(self, text, id="", tenant="federation", deadline=None):
        if self.fail_after is not None:
            if self.fail_after == 0:
                return {"status": "error", "error": "injected page failure"}
            self.fail_after -= 1
        return super().query(text, id=id, tenant=tenant, deadline=deadline)


MEMBER_HARVEST = (
    "CONSTRUCT { ?s <%(l)smemberOf> ?o } WHERE { ?s <%(l)smemberOf> ?o }"
    % {"l": LUBM}
)


def cache_state(subgraph):
    """What a failed harvest or refresh must leave as it was."""
    return (
        sorted(t.n3() for t in subgraph.head().to_list()),
        subgraph.versions.head_version,
        subgraph.remote_version,
        list(subgraph.harvests),
    )


class TestFailedHarvestLeavesTheCache:
    """A harvest or refresh that raises changes nothing: no triple of the
    failed pages reaches the head, no version is committed, no harvest
    is recorded -- never a half-extended subgraph."""

    def test_failed_later_page_of_a_harvest(self, lubm_graph):
        endpoint = _FailingEndpoint(QueryService(lubm_graph.copy()))
        subgraph = Subgraph(endpoint, page_size=4)
        subgraph.harvest(ADVISOR_HARVEST, id="advisors")
        before = cache_state(subgraph)
        endpoint.fail_after = 1  # the second page of the next harvest
        with pytest.raises(HarvestError, match="page 1 of members failed"):
            subgraph.harvest(MEMBER_HARVEST, id="members")
        assert cache_state(subgraph) == before
        endpoint.fail_after = None
        record = subgraph.harvest(MEMBER_HARVEST, id="members")
        assert record.pages > 1 and record.new_triples > 0
        assert subgraph.versions.head_version == before[1] + 1

    def test_refresh_failing_on_its_second_harvest(self, lubm_graph):
        endpoint = _FailingEndpoint(QueryService(lubm_graph.copy()))
        subgraph = Subgraph(endpoint, page_size=64)
        first = subgraph.harvest(ADVISOR_HARVEST, id="advisors")
        subgraph.harvest(MEMBER_HARVEST, id="members")
        endpoint.commit(additions=[NEW_TRIPLE])
        before = cache_state(subgraph)
        endpoint.fail_after = first.pages  # re-fetch the first, then fail
        with pytest.raises(HarvestError, match="page 0 of members failed"):
            subgraph.refresh()
        assert cache_state(subgraph) == before
        assert subgraph.is_stale()
        endpoint.fail_after = None
        assert subgraph.refresh()["refreshed"]
        assert not subgraph.is_stale()
        assert subgraph.versions.head_version == before[1] + 1


class TestRemoteFirstValidation:
    @pytest.mark.parametrize(
        "fixture", ["lubm_clean", "lubm_violating"]
    )
    def test_harvested_equals_direct_remote_validation(
        self, lubm_graph, fixture
    ):
        shapes = load_shapes_file("examples/shapes/%s.json" % fixture)
        direct = ShaclValidator(
            ServiceExecutor(QueryService(lubm_graph.copy()))
        ).validate(shapes)
        harvested, subgraph = validate_remote_first(
            pair_endpoint(lubm_graph.copy()), shapes, page_size=9
        )
        assert sha(harvested) == sha(direct)
        assert harvested.to_json() == direct.to_json()
        # The harvest is shape-scoped: far fewer triples than the graph.
        assert 0 < len(subgraph) < len(lubm_graph)
        accounting = harvested.accounting["harvest"]
        assert accounting["remote_units"] > 0
        assert accounting["pages"] > 0
        assert accounting["remote_version"] == 0

    def test_harvest_for_shapes_one_record_per_harvest_query(
        self, lubm_graph
    ):
        from repro.shacl.compile import harvest_queries

        shapes = load_shapes_file("examples/shapes/lubm_clean.json")
        subgraph, records = harvest_for_shapes(
            pair_endpoint(lubm_graph.copy()), shapes, page_size=16
        )
        assert [r.id for r in records] == [
            c.id for c in harvest_queries(shapes)
        ]
        assert len(subgraph) == sum(r.new_triples for r in records)

    def test_local_query_needs_no_endpoint(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        subgraph = Subgraph(endpoint, page_size=64)
        subgraph.harvest(ADVISOR_HARVEST)
        before = endpoint.requests
        payload = subgraph.query(
            "SELECT ?s WHERE { ?s <%sadvisor> ?o }" % LUBM
        )
        assert payload["type"] == "bindings"
        assert payload["rows"]
        assert endpoint.requests == before

    def test_harvest_spans(self, lubm_graph):
        tracer = SparkContext(default_parallelism=2).tracer.enable()
        subgraph = Subgraph(
            pair_endpoint(lubm_graph.copy()), page_size=5, tracer=tracer
        )
        record = subgraph.harvest(ADVISOR_HARVEST, id="advisors")
        tracer.disable()
        spans = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.kind == "harvest"
        ]
        assert len(spans) == 1
        assert spans[0].name == "advisors"
        assert spans[0].attrs["pages"] == record.pages
        assert spans[0].attrs["triples"] == record.triples
