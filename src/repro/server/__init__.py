"""The concurrent SPARQL query service (see docs/SERVER.md).

Converts the batch-shaped reproduction into a serving system: a
:class:`~repro.server.service.QueryService` owns a pool of warmed
engines behind a plan cache, a version-keyed result cache, bounded-queue
admission control with per-tenant fair share, and per-query cost-unit
deadlines.  :mod:`repro.server.loadgen` drives it closed-loop over
deterministic virtual time; :mod:`repro.server.frontend` exposes it as a
JSON-lines request loop (``repro serve``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.server.admission": ("AdmissionRejectedError", "FairShareQueue"),
        "repro.server.cache": ("PlanCache", "ResultCache", "normalize_query"),
        "repro.server.frontend": ("handle_request", "serve_lines"),
        "repro.server.loadgen": (
            "LoadGenerator",
            "LoadReport",
            "SHAPE_NAMES",
            "build_federated_workload",
            "build_shacl_workload",
            "build_shape_workload",
            "build_workload",
            "grouped_tenant_profiles",
            "percentile",
        ),
        "repro.server.protocol": (
            "PROTOCOL_VERSION",
            "ProtocolError",
            "canonical_json",
            "canonical_result",
            "decode_request",
            "encode_response",
        ),
        "repro.server.service": (
            "CACHE_HIT_UNITS",
            "CommitFailedError",
            "QueryOutcome",
            "QueryRequest",
            "QueryService",
        ),
    },
)
