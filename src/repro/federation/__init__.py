"""Federated subgraph harvesting (docs/FEDERATION.md).

A "remote" endpoint is a second in-process
:class:`~repro.server.service.QueryService` wrapped so that every
interaction crosses the JSON wire protocol (:class:`WireEndpoint`).  A
:class:`Subgraph` pages CONSTRUCT results out of it -- LIMIT/OFFSET over
the protocol's totally-ordered graph wire form, the shaclAPI harvesting
loop of SNIPPETS.md -- into a local
:class:`~repro.evolution.versioned.VersionedGraph` tagged with the
remote graph version it was harvested at.  A remote commit makes the
local cache *stale* (:meth:`Subgraph.is_stale`); :meth:`Subgraph.refresh`
re-harvests and records the delta as a local commit.

Remote-first validation (:func:`validate_remote_first`) harvests exactly
the triples a shape set's compiled queries touch and validates locally
-- byte-identical to validating against the remote directly
(the differential property ``tests/federation/test_subgraph.py`` pins).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.federation.endpoint": ("EndpointError", "WireEndpoint"),
        "repro.federation.subgraph": (
            "DEFAULT_PAGE_SIZE",
            "HarvestError",
            "HarvestRecord",
            "StaleSubgraphError",
            "Subgraph",
            "harvest_for_shapes",
            "validate_remote_first",
        ),
    },
)
