"""The JSON-lines request loop behind ``repro serve``.

Reads one request object per line from an input stream, applies it to a
:class:`~repro.server.service.QueryService`, and writes one canonical
response line per request to an output stream.  Malformed lines, and
commits that fail, produce ``status: "error"`` responses rather than
killing the loop -- a serving process must outlive bad clients.

Kept free of argparse and file handling so tests can drive it with
``io.StringIO`` pairs.
"""

from __future__ import annotations

from typing import IO, Any, Dict, Iterable, List

from repro._gc import paused_collector
from repro.rdf.ntriples import parse_ntriples
from repro.server.protocol import (
    ProtocolError,
    decode_request,
    encode_response,
)
from repro.server.service import CommitFailedError, QueryRequest, QueryService


def _parse_change_set(lines: Iterable[str]) -> List:
    """N-Triples lines -> Triple list (the commit op's change format)."""
    return list(parse_ntriples("\n".join(lines)))


@paused_collector()
def handle_request(service: QueryService, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Apply one decoded request object; returns the response object.
    The request is one unit of work: the cyclic collector is paused for
    it (:mod:`repro._gc`)."""
    op = payload.get("op", "query")
    if op == "query":
        outcome = service.submit(
            QueryRequest(
                text=payload["query"],
                tenant=payload.get("tenant", "default"),
                id=payload.get("id", ""),
                deadline=payload.get("deadline"),
            )
        )
        return outcome.to_response()
    if op == "commit":
        try:
            additions = _parse_change_set(payload.get("additions", ()))
            deletions = _parse_change_set(payload.get("deletions", ()))
        except ValueError as exc:
            return {
                "id": payload.get("id", ""),
                "status": "error",
                "error": "bad change set: %s" % exc,
            }
        # The counter is cumulative; diff it across the commit so the
        # response reports only the entries *this* commit dropped.
        before = service.snapshot().result_cache_invalidations
        try:
            version = service.commit(additions, deletions)
        except CommitFailedError as exc:
            # Nothing moved: the service still answers at its version.
            return {
                "id": payload.get("id", ""),
                "status": "error",
                "error": str(exc),
            }
        after = service.snapshot().result_cache_invalidations
        return {
            "id": payload.get("id", ""),
            "status": "ok",
            "version": version,
            "invalidated": after - before,
        }
    # op == "stats" (decode_request rejects anything else)
    response = {"id": payload.get("id", ""), "status": "ok"}
    response.update(service.stats())
    return response


def serve_lines(
    service: QueryService, in_stream: IO[str], out_stream: IO[str]
) -> int:
    """The request loop: one response line per input line.

    Returns the number of requests processed (including errored ones).
    Blank lines are skipped; EOF ends the loop.
    """
    processed = 0
    for line in in_stream:
        if not line.strip():
            continue
        processed += 1
        try:
            payload = decode_request(line)
        except ProtocolError as exc:
            response: Dict[str, Any] = {
                "id": exc.id,
                "status": "error",
                "error": str(exc),
            }
        else:
            response = handle_request(service, payload)
        out_stream.write(encode_response(response) + "\n")
        if hasattr(out_stream, "flush"):
            out_stream.flush()
    return processed
