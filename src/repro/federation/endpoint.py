"""The wire-protocol boundary around a "remote" query service.

A :class:`WireEndpoint` wraps a :class:`~repro.server.service.QueryService`
so that *every* interaction -- queries, commits, stats -- round-trips
through :func:`~repro.server.protocol.decode_request` /
:func:`~repro.server.protocol.encode_response` as canonical JSON lines.
Nothing crosses as live Python objects: the harvester sees exactly what
a process on the other end of a socket would see, which is what makes
the in-process pairing an honest stand-in for a remote SPARQL endpoint.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.server.frontend import handle_request
from repro.server.protocol import (
    ProtocolError,
    canonical_json,
    decode_request,
    encode_response,
)
from repro.server.service import QueryService


class EndpointError(RuntimeError):
    """The endpoint returned a non-ok response to a required operation."""


class WireEndpoint:
    """An in-process endpoint that only speaks canonical wire lines."""

    def __init__(self, service: QueryService) -> None:
        self._service = service
        #: Wire-crossing request count (queries + commits + stats).
        self.requests = 0

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip through the wire encoding."""
        line = canonical_json(payload)
        try:
            decoded = decode_request(line)
        except ProtocolError as exc:
            raise EndpointError("bad request: %s" % exc) from exc
        self.requests += 1
        response_line = encode_response(
            handle_request(self._service, decoded)
        )
        return json.loads(response_line)

    def query(
        self,
        text: str,
        id: str = "",
        tenant: str = "federation",
        deadline: Optional[int] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "op": "query",
            "query": text,
            "id": id,
            "tenant": tenant,
        }
        if deadline is not None:
            payload["deadline"] = deadline
        return self.request(payload)

    def commit(
        self,
        additions: Sequence[str] = (),
        deletions: Sequence[str] = (),
    ) -> Dict[str, Any]:
        """Apply a change set of N-Triples lines; returns the response."""
        response = self.request(
            {
                "op": "commit",
                "additions": list(additions),
                "deletions": list(deletions),
            }
        )
        if response.get("status") != "ok":
            raise EndpointError(
                "commit failed: %s" % response.get("error", "unknown")
            )
        return response

    def stats(self) -> Dict[str, Any]:
        response = self.request({"op": "stats"})
        if response.get("status") != "ok":
            raise EndpointError(
                "stats failed: %s" % response.get("error", "unknown")
            )
        return response

    @property
    def version(self) -> int:
        """The remote graph version (one stats round trip)."""
        return int(self.stats()["version"])
