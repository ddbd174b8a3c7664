"""Canonical result serialization and the JSON-lines protocol.

The canonical-ordering regression suite: serialized results at the
service boundary must be byte-identical regardless of which engine
produced them (for unordered queries) and across repeated runs, or the
result cache's byte-identity guarantee is vacuous.
"""

import io
import json

import pytest
from hypothesis import given, strategies as st

from repro.runtime import build_engine
from repro.server import QueryService
from repro.server.frontend import serve_lines
from repro.server.protocol import (
    ProtocolError,
    WireLiteral,
    canonical_json,
    canonical_result,
    decode_request,
    encode_response,
)
from repro.sparql.parser import parse_sparql

MEMBER_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }"
)


class TestCanonicalOrdering:
    def test_unordered_select_sorts_rows(self, lubm_graph):
        engine = build_engine("Naive", lubm_graph)
        result = engine.execute(MEMBER_QUERY)
        payload = canonical_result(result, parse_sparql(MEMBER_QUERY))
        assert payload["type"] == "bindings"
        assert payload["ordered"] is False
        assert payload["rows"] == sorted(payload["rows"])

    def test_engines_agree_byte_for_byte(self, lubm_graph):
        """Different engines, different internal row orders -- one wire form."""
        renders = []
        for name in ("Naive", "SPARQLGX", "S2RDF"):
            engine = build_engine(name, lubm_graph)
            result = engine.execute(MEMBER_QUERY)
            renders.append(
                canonical_json(
                    canonical_result(result, parse_sparql(MEMBER_QUERY))
                )
            )
        assert renders[0] == renders[1] == renders[2]

    def test_repeated_runs_are_byte_identical(self, lubm_graph):
        engine = build_engine("SPARQLGX", lubm_graph)
        plan = parse_sparql(MEMBER_QUERY)
        first = canonical_json(canonical_result(engine.execute(plan), plan))
        second = canonical_json(canonical_result(engine.execute(plan), plan))
        assert first == second

    def test_order_by_is_preserved_not_sorted(self, lubm_graph):
        query = (
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT ?d WHERE { ?s lubm:memberOf ?d } ORDER BY DESC(?d)"
        )
        engine = build_engine("Naive", lubm_graph)
        plan = parse_sparql(query)
        payload = canonical_result(engine.execute(plan), plan)
        assert payload["ordered"] is True
        # Descending order: the serializer must NOT have re-sorted ascending.
        assert payload["rows"] == sorted(payload["rows"], reverse=True)
        assert payload["rows"] != sorted(payload["rows"])

    def test_ask_and_construct_forms(self, lubm_graph):
        engine = build_engine("Naive", lubm_graph)
        ask = engine.execute(
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "ASK { ?s lubm:memberOf ?d }"
        )
        assert canonical_result(ask) == {"type": "boolean", "value": True}
        construct = engine.execute(
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "CONSTRUCT { ?d lubm:hasMember ?s } WHERE { ?s lubm:memberOf ?d }"
        )
        payload = canonical_result(construct)
        assert payload["type"] == "graph"
        assert payload["triples"] == sorted(payload["triples"])

    def test_unbound_optional_variables_render_empty(self, lubm_graph):
        query = (
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT ?s ?x WHERE { ?s lubm:memberOf ?d "
            "OPTIONAL { ?s lubm:noSuchPredicate ?x } }"
        )
        engine = build_engine("Naive", lubm_graph)
        plan = parse_sparql(query)
        payload = canonical_result(engine.execute(plan), plan)
        assert all(row[1] == "" for row in payload["rows"])


class TestCanonicalJson:
    def test_sorted_compact_deterministic(self):
        payload = {"b": 1, "a": [1, 2]}
        assert canonical_json(payload) == '{"a":[1,2],"b":1}'


class TestRequestDecoding:
    def test_query_defaults(self):
        payload = decode_request('{"query": "SELECT ?s WHERE { ?s ?p ?o }"}')
        assert payload["op"] == "query"

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            decode_request("{nope")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_request("[1, 2]")

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            decode_request('{"op": "explode"}')

    def test_rejects_query_without_text(self):
        with pytest.raises(ProtocolError):
            decode_request('{"op": "query"}')

    def test_rejects_empty_line(self):
        with pytest.raises(ProtocolError):
            decode_request("   \n")

    @pytest.mark.parametrize(
        "line",
        [
            '{"op": "query", "query": 123}',
            '{"op": "query", "query": ["SELECT"]}',
            '{"op": "commit", "additions": 5}',
            '{"op": "commit", "additions": [1, 2]}',
            '{"op": "commit", "additions": "<s> <p> <o> ."}',
            '{"op": "commit", "deletions": null}',
            '{"query": "ASK { ?s ?p ?o }", "deadline": true}',
            '{"query": "ASK { ?s ?p ?o }", "deadline": 0}',
            '{"query": "ASK { ?s ?p ?o }", "deadline": 2.5}',
            '{"query": "ASK { ?s ?p ?o }", "deadline": "9"}',
        ],
    )
    def test_rejects_mistyped_fields(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_a_bad_field_names_its_request(self):
        with pytest.raises(ProtocolError) as caught:
            decode_request('{"id": "q7", "query": "ASK {}", "deadline": -3}')
        assert caught.value.id == "q7" and "deadline" in str(caught.value)

    @pytest.mark.parametrize("tenant", ["[1]", "null", "7", '{"t": 0}', "true"])
    def test_a_non_string_tenant_is_malformed(self, lubm_graph, tenant):
        """Not stringified into a tenant of its own ("[1]", "None")."""
        line = '{"id": "q3", "tenant": %s, "query": "ASK { ?s ?p ?o }"}' % tenant
        with pytest.raises(ProtocolError) as caught:
            decode_request(line)
        assert caught.value.id == "q3" and "tenant" in str(caught.value)
        out = io.StringIO()
        serve_lines(QueryService(lubm_graph, pool_size=1), io.StringIO(line), out)
        response = json.loads(out.getvalue())
        assert (response["id"], response["status"]) == ("q3", "error")

    @pytest.mark.parametrize("request_id", ["null", "7", '["x"]', '{"n": 1}', "true"])
    @pytest.mark.parametrize(
        "rest",
        [
            '"query": "ASK { ?s ?p ?o }"',
            '"op": "commit", "additions": []',
            '"op": "stats"',
        ],
    )
    def test_a_non_string_id_is_malformed(self, lubm_graph, request_id, rest):
        """Answered under no id, never under one the client did not send
        ("None", "7", "['x']") nor echoed raw by one op and not another."""
        line = '{"id": %s, %s}' % (request_id, rest)
        with pytest.raises(ProtocolError) as caught:
            decode_request(line)
        assert caught.value.id == "" and "id must be a string" in str(caught.value)
        out = io.StringIO()
        serve_lines(QueryService(lubm_graph, pool_size=1), io.StringIO(line), out)
        assert out.getvalue() == (
            '{"error":"id must be a string","id":"","status":"error"}\n'
        )

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "q9"}',
            '{"id": "q9", "op": "query", "query": ""}',
            '{"id": "q9", "op": "explode"}',
            '{"id": "q9", "op": ["query"]}',
        ],
    )
    def test_every_error_of_an_addressed_line_names_it(self, lubm_graph, line):
        with pytest.raises(ProtocolError) as caught:
            decode_request(line)
        assert caught.value.id == "q9"
        out = io.StringIO()
        serve_lines(QueryService(lubm_graph, pool_size=1), io.StringIO(line), out)
        response = json.loads(out.getvalue())
        assert (response["id"], response["status"]) == ("q9", "error")

    def test_a_string_id_is_echoed_by_every_op(self, lubm_graph):
        lines = [
            '{"id": "7", "query": "ASK { ?s ?p ?o }"}',
            '{"id": "7", "op": "commit", "additions": []}',
            '{"id": "7", "op": "stats"}',
            '{"query": "ASK { ?s ?p ?o }"}',
        ]
        out = io.StringIO()
        service = QueryService(lubm_graph, pool_size=1)
        serve_lines(service, io.StringIO("\n".join(lines)), out)
        ids = [json.loads(line)["id"] for line in out.getvalue().splitlines()]
        assert ids == ["7", "7", "7", ""]

    @pytest.mark.parametrize(
        "line, field",
        [
            ('{"op": "commit", "id": "e", "add": ["<a> <b> <c> ."]}', "'add'"),
            ('{"id": "e", "query": "ASK { ?s ?p ?o }", "deadline_ms": 5}', "'deadline_ms'"),
            ('{"id": "e", "op": "stats", "tenant": "t0"}', "'tenant'"),
            ('{"id": "e", "op": "commit", "deadline": 5}', "'deadline'"),
            ('{"id": "e", "op": "stats", "query": "ASK {}", "z": 0}', "'query', 'z'"),
        ],
    )
    def test_an_unknown_field_is_malformed(self, lubm_graph, line, field):
        """Not dropped: a mistyped ``additions`` committed nothing and
        still advanced the version."""
        with pytest.raises(ProtocolError) as caught:
            decode_request(line)
        assert caught.value.id == "e"
        assert str(caught.value).startswith("unknown field %s in a " % field)
        service = QueryService(lubm_graph, pool_size=1)
        out = io.StringIO()
        serve_lines(service, io.StringIO(line), out)
        response = json.loads(out.getvalue())
        assert (response["id"], response["status"]) == ("e", "error")
        assert service.version == 0

    def test_well_typed_fields_pass(self):
        decode_request('{"query": "ASK { ?s ?p ?o }", "deadline": 9}')
        decode_request('{"op": "commit", "additions": ["<s> <p> <o> ."]}')
        decode_request('{"op": "commit"}')
        # Every field each op takes, at once.
        decode_request(
            '{"op": "query", "id": "q", "tenant": "t", "query": "ASK {}", "deadline": 9}'
        )
        decode_request('{"op": "commit", "id": "c", "additions": [], "deletions": []}')
        decode_request('{"op": "stats", "id": "s"}')

    def test_encode_response_is_canonical(self):
        assert (
            encode_response({"status": "ok", "id": "x"})
            == '{"id":"x","status":"ok"}'
        )


#: What JSON escapes (quotes, backslashes, controls, U+2028, non-BMP) and
#: what would fool a textual splice (the word ``"result"`` itself).
wire_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from('\\"\n\t\x00\u2028é日\U0001d11e'),
    ),
    max_size=30,
) | st.sampled_from(['"result":', '{"result":"x"}', ',"result"'])


@given(
    text=wire_text,
    envelope=st.fixed_dictionaries(
        {"status": st.sampled_from(["ok", "error"])},
        optional={
            "id": wire_text,
            "cache": st.sampled_from(["cold", "plan", "result"]),
            "units": st.integers(0, 10**6),
            "version": st.integers(0, 9),
            "error": wire_text,
            "diagnostics": st.lists(
                st.dictionaries(wire_text, wire_text | st.integers(), max_size=3),
                max_size=2,
            ),
        },
    ),
)
def test_a_spliced_literal_is_the_escaped_text(text, envelope):
    plain = dict(envelope, result=text)
    marked = dict(envelope, result=WireLiteral.of(text))
    line = encode_response(marked)
    assert line == canonical_json(plain) == encode_response(plain)
    assert json.loads(line)["result"] == text == json.loads(marked["result"])


class TestStablePaging:
    """The stable-paging contract for CONSTRUCT wire forms.

    Graph payloads are totally ordered (sorted N-Triples lines) and
    LIMIT/OFFSET slicing happens *after* the sort, at this layer only:
    at a fixed graph version, pages are disjoint, exhaustive, and
    reassemble the unpaged payload byte-identically.  The federation
    harvester's exactness rests on this class.
    """

    CONSTRUCT = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "CONSTRUCT { ?s lubm:advisor ?o } WHERE { ?s lubm:advisor ?o }"
    )

    def _unpaged(self, lubm_graph):
        engine = build_engine("Naive", lubm_graph)
        plan = parse_sparql(self.CONSTRUCT)
        return canonical_result(engine.execute(plan), plan)

    def _page(self, lubm_graph, limit, offset):
        text = "%s LIMIT %d OFFSET %d" % (self.CONSTRUCT, limit, offset)
        engine = build_engine("Naive", lubm_graph)
        plan = parse_sparql(text)
        return canonical_result(engine.execute(plan), plan)

    def test_unpaged_payload_has_no_page_key(self, lubm_graph):
        assert "page" not in self._unpaged(lubm_graph)

    def test_pages_are_disjoint_and_exhaustive(self, lubm_graph):
        full = self._unpaged(lubm_graph)
        total = len(full["triples"])
        limit = 5
        reassembled = []
        offset = 0
        while offset < total:
            page = self._page(lubm_graph, limit, offset)
            assert page["page"] == {
                "limit": limit,
                "offset": offset,
                "total": total,
            }
            assert len(page["triples"]) <= limit
            assert not set(reassembled) & set(page["triples"])
            reassembled.extend(page["triples"])
            offset += limit
        # Byte-identical reassembly of the unpaged form.
        assert reassembled == full["triples"]

    def test_page_boundaries_are_engine_independent(self, lubm_graph):
        text = self.CONSTRUCT + " LIMIT 4 OFFSET 4"
        plan = parse_sparql(text)
        payloads = {
            canonical_json(
                canonical_result(
                    build_engine(name, lubm_graph).execute(plan), plan
                )
            )
            for name in ["Naive", "SPARQLGX", "S2RDF", "HAQWA"]
        }
        assert len(payloads) == 1

    def test_offset_past_the_end_is_an_empty_page(self, lubm_graph):
        full = self._unpaged(lubm_graph)
        total = len(full["triples"])
        page = self._page(lubm_graph, 5, total + 10)
        assert page["triples"] == []
        assert page["page"]["total"] == total

    def test_pure_offset_slices_the_tail(self, lubm_graph):
        full = self._unpaged(lubm_graph)
        text = self.CONSTRUCT + " OFFSET 3"
        engine = build_engine("Naive", lubm_graph)
        plan = parse_sparql(text)
        payload = canonical_result(engine.execute(plan), plan)
        assert payload["triples"] == full["triples"][3:]
        assert payload["page"]["limit"] is None


#: JSON values whose strings hold what an answer's text may: quotes,
#: backslashes, control characters, DEL and non-ASCII.
json_strings = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\x00\x1f\n\t\x7f\x80\u2028\ufeffé日𝄞/'),
        st.characters(),
    )
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | json_strings,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=12,
)


@given(payload=json_values)
def test_a_payload_literal_is_the_literal_of_its_canonical_text(payload):
    literal = WireLiteral.of_payload(payload)
    assert literal == WireLiteral.of(canonical_json(payload))
    assert isinstance(literal, WireLiteral)
    assert json.loads(json.loads(literal)) == payload
