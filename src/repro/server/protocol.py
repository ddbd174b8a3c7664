"""Wire protocol: JSON-lines requests/responses and canonical results.

Canonical result serialization (the service-boundary determinism fix)
=====================================================================

Engines are free to produce solutions in any order -- SPARQL's bag
semantics does not prescribe one, and the simulated engines genuinely
differ (hash partitioning vs vertical partitioning vs graph traversal
emit rows in different orders).  A result *cache* that stored whatever
order the first execution happened to produce would then return answers
that differ from a fresh execution byte-for-byte, making cache hits
observable and run-to-run output unstable.

:func:`canonical_result` therefore defines one documented ordering at
the service boundary:

* **SELECT without ORDER BY** (and CONSTRUCT/DESCRIBE): rows are sorted
  lexicographically by their tuple of N3-rendered terms (unbound
  variables render as ``""`` and sort first).  N3 rendering is already
  deterministic, so the sort is total and stable.
* **SELECT with ORDER BY**: the query prescribed the order; the
  serializer preserves it exactly (sorting would violate SPARQL
  semantics).  Ties left open by ORDER BY keep the engine's order,
  which is deterministic for a given engine and graph -- exactly what
  the cache's byte-identity guarantee needs (it compares hits against
  cold executions of the *same* engine).
* **ASK**: a boolean; nothing to order.

Stable paging (the federated-harvest contract)
==============================================

Because CONSTRUCT/DESCRIBE wire forms are *totally ordered* (sorted
N-Triples lines), a ``CONSTRUCT ... LIMIT n OFFSET m`` slices that
sorted list **after** the sort: at a fixed graph version, pages taken at
successive offsets are disjoint and exhaustive, and concatenating them
reassembles the unpaged form byte-identically (regression-tested in
``tests/server/test_protocol.py``).  Paged graph payloads additionally
carry a ``page`` object -- ``{"limit", "offset", "total"}`` where
``total`` is the full pre-slice triple count -- so a harvester
(:mod:`repro.federation`) knows when it has drained the result without
issuing a trailing empty page.  Unpaged graph payloads are unchanged
(no ``page`` key).  The slice happens here at the serialization
boundary, never in the engines, so every engine -- BGP-only profiles
included -- serves identical pages.

:func:`canonical_json` renders any payload with sorted keys, compact
separators, and no trailing whitespace.  A result-cache entry is the
:class:`WireLiteral` of that text -- the JSON string literal that
follows ``"result":`` on the wire, escaped once, on the miss, the only
form kept -- and a hit costs :func:`encode_response` the envelope's
other keys and one splice: byte-identical to the cold execution
(``tests/server/test_protocol.py``, ``tests/server/test_service.py``).

Request / response lines
========================

One JSON object per line.  Requests::

    {"op": "query", "id": "q1", "tenant": "t0", "query": "SELECT ...",
     "deadline": 50000}
    {"op": "commit", "additions": ["<s> <p> <o> ."], "deletions": []}
    {"op": "stats"}

``op`` defaults to ``query`` when omitted.  Each op takes the fields
shown and no others (:data:`REQUEST_FIELDS`): ``query`` takes ``op``,
``id``, ``tenant``, ``query``, ``deadline``; ``commit`` takes ``op``,
``id``, ``additions``, ``deletions``; ``stats`` takes ``op``, ``id``.
A field outside its op's set, or of the wrong type, makes the line
malformed (``status: "error"``), an ``id`` that is not a string
included.  Responses echo the request ``id`` and carry
``status`` (``ok`` / ``rejected`` / ``deadline`` / ``error`` /
``unsupported``), the canonical ``result`` for ``ok``, and
accounting fields (``units``, ``cache``, ``version``).  ``rejected``
means the request never executed: either admission control turned it
away or the static plan linter (:mod:`repro.analysis.query`) found an
error-severity diagnostic, in which case the response also carries a
``diagnostics`` list (the linter's sorted findings, each with ``code``,
``severity``, ``message``, and location fields).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Union

from repro.rdf.graph import RDFGraph
from repro.sparql.ast import ConstructQuery, Query, SelectQuery
from repro.sparql.results import SolutionSet

#: Bumped when the canonical result layout changes incompatibly.
PROTOCOL_VERSION = 1

#: The fields each op may carry; any other field makes the line malformed.
REQUEST_FIELDS = {
    "query": frozenset(("op", "id", "tenant", "query", "deadline")),
    "commit": frozenset(("op", "id", "additions", "deletions")),
    "stats": frozenset(("op", "id")),
}


class ProtocolError(ValueError):
    """A request line is not a well-formed protocol object; *id* is the
    request's own when a field of an otherwise addressed request is bad."""

    def __init__(self, message: str, id: Any = "") -> None:
        super().__init__(message)
        self.id = id


def canonical_json(payload: Any) -> str:
    """The one true JSON rendering: sorted keys, compact, ASCII-safe."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def canonical_result(
    result: Union[SolutionSet, bool, RDFGraph],
    query: Optional[Query] = None,
) -> Dict[str, Any]:
    """JSON-ready canonical form of one query answer (see module doc)."""
    if isinstance(result, bool):
        return {"type": "boolean", "value": result}
    if isinstance(result, SolutionSet):
        table = result.to_table()
        ordered = bool(
            query is not None
            and isinstance(query, SelectQuery)
            and query.order_by
        )
        if not ordered:
            table.sort()
        return {
            "type": "bindings",
            "vars": list(result.variables),
            "rows": table,
            "ordered": ordered,
        }
    # CONSTRUCT / DESCRIBE -> a graph; N-Triples lines, sorted.  The
    # sort is total, which is what makes LIMIT/OFFSET paging stable
    # (see the module docstring): slice *after* sorting, and report the
    # pre-slice total so harvesters can detect the last page.
    triples = sorted(triple.n3() for triple in result.to_list())
    payload: Dict[str, Any] = {"type": "graph", "triples": triples}
    if isinstance(query, ConstructQuery) and (
        query.limit is not None or query.offset
    ):
        total = len(triples)
        page = triples[query.offset:]
        if query.limit is not None:
            page = page[: query.limit]
        payload["triples"] = page
        payload["page"] = {
            "limit": query.limit,
            "offset": query.offset,
            "total": total,
        }
    return payload


def decode_request(line: str) -> Dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` on junk."""
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("request is not valid JSON: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    request_id = payload.get("id", "")
    if not isinstance(request_id, str):
        # Echoed as it came, a number or a list would answer under an id
        # the client never sent ("7", "None", "['x']").
        raise ProtocolError("id must be a string")
    payload.setdefault("op", "query")
    op = payload["op"]
    if not isinstance(op, str) or op not in REQUEST_FIELDS:
        raise ProtocolError("unknown op %r" % (op,), request_id)
    unknown = sorted(set(payload) - REQUEST_FIELDS[op])
    if unknown:
        # A mistyped field ("add", "deadline_ms") would otherwise be
        # dropped, and the request run without it.
        raise ProtocolError(
            "unknown field %s in a %s request"
            % (", ".join(repr(name) for name in unknown), op),
            request_id,
        )
    if op == "query":
        query, deadline = payload.get("query"), payload.get("deadline")
        if not (isinstance(query, str) and query):
            raise ProtocolError(
                "query op requires a non-empty 'query' field", request_id
            )
        if not isinstance(payload.get("tenant", ""), str):
            raise ProtocolError("tenant must be a string", request_id)
        if deadline is not None and (
            type(deadline) is not int or deadline <= 0  # True is no budget
        ):
            raise ProtocolError(
                "deadline must be a positive integer of cost units", request_id
            )
    elif op == "commit":
        for name in ("additions", "deletions"):
            lines = payload.get(name, [])
            if not isinstance(lines, list) or not all(
                isinstance(line, str) for line in lines
            ):
                raise ProtocolError(
                    "'%s' must be a list of N-Triples lines" % name, request_id
                )
    return payload


class WireLiteral(str):
    """A JSON string literal, quotes and escapes included, that is
    already canonical: :func:`encode_response` splices it as it is."""

    __slots__ = ()

    @classmethod
    def of(cls, text: str) -> "WireLiteral":
        return cls(canonical_json(text))

    @classmethod
    def of_payload(cls, payload: Any) -> "WireLiteral":
        """``of(canonical_json(payload))``, with one encoder pass: canonical
        JSON is compact and ASCII-safe, so it holds printable ASCII only,
        where ``json.dumps`` escapes ``\\`` and ``"`` and nothing else."""
        text = canonical_json(payload)
        return cls('"%s"' % text.replace("\\", "\\\\").replace('"', '\\"'))


def encode_response(payload: Dict[str, Any]) -> str:
    """One canonical response line (no newline appended)."""
    result = payload.get("result")
    if not isinstance(result, WireLiteral):
        return canonical_json(payload)
    # The keys sorting before and after "result"; the literal between.
    before = canonical_json(
        {k: v for k, v in payload.items() if k < "result"}
    )[1:-1]
    after = canonical_json(
        {k: v for k, v in payload.items() if k > "result"}
    )[1:-1]
    return '{%s%s"result":%s%s%s}' % (
        before, "," if before else "", result, "," if after else "", after
    )
