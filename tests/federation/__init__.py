"""Tests of :mod:`repro.federation`, over the paired in-process remote."""

from repro.federation.endpoint import WireEndpoint
from repro.server import QueryService


def pair_endpoint(graph, **service_kwargs) -> WireEndpoint:
    """The paired in-process remote: a service behind the wire."""
    return WireEndpoint(QueryService(graph, **service_kwargs))
