"""SHACL: validation as a serving workload + federated harvest ablation.

The validator (docs/SHACL.md) fans a shape set into many small SELECT/ASK
queries and submits each one to the query service as its own billed
request.  That framing makes two claims measurable:

1. **Plan-cache warm validation is cheaper than cold.**  The second
   validation pass over an unchanged service re-uses every compiled
   query's parsed plan: its plan-cache hit rate must exceed 0.5 (the
   acceptance bar; it is 1.0 here) and its total service units must not
   exceed the cold pass's.

2. **Harvest-then-validate equals validate-remote, then amortizes.**
   Remote-first federated validation (docs/FEDERATION.md) pages the
   shape-relevant subgraph through the wire protocol and validates the
   local copy: the report must be byte-identical to validating directly
   against the remote service, and *re*-validating the harvested copy
   costs zero further remote units -- the harvest is the one-time price
   of independence from the endpoint.

Run as a script for the deterministic JSON artifact::

    PYTHONPATH=src python benchmarks/bench_shacl.py --output BENCH_shacl.json

or under pytest (the test asserts both claims on the smoke payload).
All numbers are simulated-cluster cost units; fixed seed,
byte-reproducible.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.bench import artifact_main, format_table, report
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.federation import WireEndpoint, validate_remote_first
from repro.server.service import QueryService
from repro.shacl import (
    LocalGraphExecutor,
    ServiceExecutor,
    ShaclValidator,
    default_shapes_for,
)


#: The acceptance bar for the warm pass's plan-cache hit rate.
WARM_HIT_RATE_BOUND = 0.5

#: Harvested CONSTRUCT page size (full runs page more finely than the
#: smoke run so the loop is exercised across many pages).
PAGE_SIZE = 8
SMOKE_PAGE_SIZE = 32


def _pass_record(validation_report) -> Dict[str, object]:
    accounting = validation_report.accounting
    executed = accounting["executed"]
    return {
        "executed": executed,
        "units": accounting["units"],
        "plan_hits": accounting["plan_hits"],
        "plan_hit_rate": (
            round(accounting["plan_hits"] / executed, 6) if executed else 0.0
        ),
        "conforms": validation_report.conforms,
        "violations": len(validation_report.violations),
        "report_sha": _sha(validation_report),
    }


def _sha(validation_report) -> str:
    import hashlib

    return hashlib.sha256(
        validation_report.to_json().encode("utf-8")
    ).hexdigest()[:16]


def run_bench(smoke: bool = False) -> Dict[str, object]:
    """Both ablations; returns the JSON-ready payload."""
    graph = LubmGenerator(num_universities=1, seed=42).generate()
    shapes = default_shapes_for(
        graph, max_classes=2 if smoke else 3, max_properties=2
    )
    page_size = SMOKE_PAGE_SIZE if smoke else PAGE_SIZE

    # -- claim 1: cold vs plan-cache-warm validation ---------------------
    # The result cache is disabled so the second pass *executes* every
    # query again and the plan tier is the one measured (with it on, the
    # warm pass would answer from stored result bytes instead).
    service = QueryService(graph.copy(), enable_result_cache=False)
    executor = ServiceExecutor(service)
    cold = ShaclValidator(executor).validate(shapes)
    warm = ShaclValidator(executor).validate(shapes)

    # -- claim 2: harvest-then-validate vs validate-remote ---------------
    direct_service = QueryService(graph.copy())
    direct = ShaclValidator(ServiceExecutor(direct_service)).validate(shapes)
    endpoint = WireEndpoint(QueryService(graph.copy()))
    requests_before_harvest = endpoint.requests
    harvested, subgraph = validate_remote_first(
        endpoint, shapes, page_size=page_size
    )
    harvest = harvested.accounting["harvest"]
    # Re-validating the local copy touches the endpoint zero times.
    requests_before = endpoint.requests
    revalidated = ShaclValidator(
        LocalGraphExecutor(subgraph.head())
    ).validate(shapes)

    return {
        "benchmark": "shacl-validation",
        "dataset": {"generator": "lubm", "scale": 1, "seed": 42},
        "shapes": {
            "source": "default_shapes_for",
            "count": len(shapes),
            "names": [shape.name for shape in shapes],
        },
        "validation": {"cold": _pass_record(cold), "warm": _pass_record(warm)},
        "federation": {
            "page_size": page_size,
            "remote_direct_units": direct.accounting["units"],
            "harvest_pages": harvest["pages"],
            "harvest_triples": harvest["triples"],
            "harvest_remote_units": harvest["remote_units"],
            "harvest_wire_requests": requests_before - requests_before_harvest,
            "remote_version": harvest["remote_version"],
            "harvested_report_sha": _sha(harvested),
            "direct_report_sha": _sha(direct),
            "revalidation_remote_requests": endpoint.requests
            - requests_before,
            "revalidation_report_sha": _sha(revalidated),
        },
        "smoke": smoke,
    }


def check_payload(payload: Dict[str, object]) -> ClaimResult:
    """The headline claims, verified against *payload*."""
    validation = payload["validation"]
    federation = payload["federation"]
    warm_hit_rate = validation["warm"]["plan_hit_rate"]
    warm_wins = (
        warm_hit_rate > WARM_HIT_RATE_BOUND
        and validation["warm"]["units"] <= validation["cold"]["units"]
    )
    reports_agree = (
        federation["harvested_report_sha"] == federation["direct_report_sha"]
        and federation["revalidation_report_sha"]
        == federation["direct_report_sha"]
        and validation["cold"]["report_sha"] == validation["warm"]["report_sha"]
    )
    revalidation_free = federation["revalidation_remote_requests"] == 0
    return ClaimResult(
        "SHACL-serving",
        holds=warm_wins and reports_agree and revalidation_free,
        evidence={
            "warm_plan_hit_rate": warm_hit_rate,
            "warm_units": validation["warm"]["units"],
            "cold_units": validation["cold"]["units"],
            "reports_agree": reports_agree,
            "harvest_remote_units": federation["harvest_remote_units"],
            "remote_direct_units": federation["remote_direct_units"],
            "revalidation_remote_requests": federation[
                "revalidation_remote_requests"
            ],
        },
    )


def _table(payload) -> str:
    validation = payload["validation"]
    federation = payload["federation"]
    rows = [
        [
            "validate (cold)",
            validation["cold"]["executed"],
            validation["cold"]["units"],
            validation["cold"]["plan_hit_rate"],
        ],
        [
            "validate (warm)",
            validation["warm"]["executed"],
            validation["warm"]["units"],
            validation["warm"]["plan_hit_rate"],
        ],
        [
            "validate remote (direct)",
            validation["cold"]["executed"],
            federation["remote_direct_units"],
            "-",
        ],
        [
            "harvest %d page(s)" % federation["harvest_pages"],
            "-",
            federation["harvest_remote_units"],
            "-",
        ],
        ["re-validate harvested copy", validation["cold"]["executed"], 0, "-"],
    ]
    return format_table(
        ["step", "queries", "service units", "plan hit rate"], rows
    )


def test_shacl_serving(benchmark):
    payload = benchmark.pedantic(
        lambda: run_bench(smoke=True), rounds=1, iterations=1
    )
    result = check_payload(payload)
    report(
        "SHACL: cold vs warm validation + federated harvest (LUBM)",
        _table(payload) + "\n" + result.summary(),
    )
    assert result.holds


def main(argv: Optional[List[str]] = None) -> int:
    return artifact_main(
        "SHACL validation / federated harvest benchmark",
        "BENCH_shacl.json",
        "tiny fixed-size run for CI (fewer shapes, coarser pages)",
        run_bench,
        check_payload,
        _table,
        argv,
    )


if __name__ == "__main__":
    sys.exit(main())
