"""The wire endpoint: everything crosses as canonical JSON lines."""

import json

import pytest

from repro.federation import EndpointError, WireEndpoint
from repro.server.protocol import canonical_json
from repro.server.service import QueryRequest, QueryService

from tests.federation import pair_endpoint

MEMBER_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }"
)


class TestQueries:
    def test_wire_payload_equals_direct_submission(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        wire = endpoint.query(MEMBER_QUERY, id="q1", tenant="t")
        direct = QueryService(lubm_graph.copy()).submit(
            QueryRequest(text=MEMBER_QUERY, tenant="t", id="q1")
        )
        assert wire["status"] == "ok"
        assert wire["result"] == direct.payload
        assert wire["units"] == direct.service_units

    def test_response_is_json_clean(self, lubm_graph):
        response = pair_endpoint(lubm_graph.copy()).query(
            MEMBER_QUERY, id="q"
        )
        assert json.loads(canonical_json(response)) == response

    def test_error_status_passes_through(self, lubm_graph):
        response = pair_endpoint(lubm_graph.copy()).query("SELECT nope {")
        assert response["status"] != "ok"
        assert response.get("error")


class TestLifecycle:
    def test_requests_counter_counts_every_round_trip(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        assert endpoint.requests == 0
        endpoint.query(MEMBER_QUERY, id="q")
        endpoint.stats()
        _ = endpoint.version
        assert endpoint.requests == 3

    def test_commit_bumps_the_remote_version(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        before = endpoint.version
        endpoint.commit(
            additions=[
                "<http://example.org/s> <http://example.org/p> "
                "<http://example.org/o> ."
            ]
        )
        assert endpoint.version == before + 1

    def test_bad_commit_raises(self, lubm_graph):
        endpoint = pair_endpoint(lubm_graph.copy())
        with pytest.raises(EndpointError):
            endpoint.commit(additions=["this is not n-triples"])

    def test_malformed_request_raises(self, lubm_graph):
        endpoint = WireEndpoint(QueryService(lubm_graph.copy()))
        with pytest.raises(EndpointError):
            endpoint.request({"op": "no-such-op"})
