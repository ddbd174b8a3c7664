"""SRV: the concurrent query service under closed-loop load.

The paper's Section V calls for "concurrent query answering" as a
next-generation requirement: a service answering many tenants at once
rather than one batch query at a time.  ``repro.server`` implements that
on the simulated substrate; this benchmark measures the two levers it
adds on top of plain execution.

Measured: (1) plan+result caching -- throughput and tail latency with
both caches on vs both off over a repetitive workload; (2) admission
control -- a bounded queue trades a rejection rate for bounded queue
depth and wait time, vs an effectively unbounded queue that accepts
everything and lets waiting grow.

All times are virtual cost units (see docs/METRICS.md); the load
schedule is a seeded discrete-event simulation, so every number here is
byte-reproducible.

Wall-clock execution under the executor backends (docs/PARALLEL.md) is
measured by the ``parallel_exec`` workload of ``benchmarks/wallclock``.
"""

from repro.bench import format_table
from repro.core.assessment import ClaimResult
from repro.server import LoadGenerator, QueryService, build_workload

from conftest import report


def _run(graph, service_kwargs, gen_kwargs):
    service = QueryService(graph, engine="SPARQLGX", **service_kwargs)
    workload = build_workload(graph, size=4, seed=42)
    return LoadGenerator(service, workload, seed=42, **gen_kwargs).run()


def test_cache_ablation(benchmark, lubm_small):
    gen_kwargs = {
        "clients": 6,
        "tenants": 2,
        "requests_per_client": 6,
        "think_units": 20,
    }

    def sweep():
        cached = _run(lubm_small, {"pool_size": 2}, gen_kwargs)
        uncached = _run(
            lubm_small,
            {
                "pool_size": 2,
                "enable_plan_cache": False,
                "enable_result_cache": False,
            },
            gen_kwargs,
        )
        return cached, uncached

    cached, uncached = benchmark.pedantic(sweep, rounds=1, iterations=1)
    c_lat = cached.to_payload()["latency_units"]
    u_lat = uncached.to_payload()["latency_units"]
    result = ClaimResult(
        "SRV-cache",
        holds=cached.throughput_per_kilounit()
        > uncached.throughput_per_kilounit()
        and c_lat["p50"] <= u_lat["p50"]
        and cached.cache["result_hits"] > 0
        and uncached.cache["result_hits"] == 0,
        evidence={
            "throughput_cached": cached.throughput_per_kilounit(),
            "throughput_uncached": uncached.throughput_per_kilounit(),
            "p95_cached": c_lat["p95"],
            "p95_uncached": u_lat["p95"],
            "result_hit_rate": cached.cache["result_hit_rate"],
        },
    )
    rows = [
        [
            label,
            r.completed,
            r.throughput_per_kilounit(),
            lat["p50"],
            lat["p95"],
            lat["p99"],
            r.cache["result_hits"],
        ]
        for label, r, lat in (
            ("caches on", cached, c_lat),
            ("caches off", uncached, u_lat),
        )
    ]
    report(
        "SRV: plan+result caching vs none (closed loop, 6 clients)",
        format_table(
            [
                "config",
                "completed",
                "tput/ku",
                "p50",
                "p95",
                "p99",
                "result hits",
            ],
            rows,
        )
        + "\n" + result.summary(),
    )
    assert result.holds


def test_admission_ablation(benchmark, lubm_small):
    # One worker, zero think time: every client is always either running
    # or waiting, so the queue policy is the whole story.
    gen_kwargs = {
        "clients": 8,
        "tenants": 2,
        "requests_per_client": 4,
        "think_units": 0,
    }
    service_kwargs = {"pool_size": 1, "enable_result_cache": False}

    def sweep():
        bounded = _run(
            lubm_small, dict(service_kwargs, queue_limit=2), gen_kwargs
        )
        unbounded = _run(
            lubm_small, dict(service_kwargs, queue_limit=10**6), gen_kwargs
        )
        return bounded, unbounded

    bounded, unbounded = benchmark.pedantic(sweep, rounds=1, iterations=1)
    b_queue = bounded.to_payload()["queue"]
    u_queue = unbounded.to_payload()["queue"]
    result = ClaimResult(
        "SRV-admission",
        holds=bounded.rejected > 0
        and unbounded.rejected == 0
        and b_queue["max_depth"] <= 2
        and b_queue["max_depth"] < u_queue["max_depth"]
        and b_queue["mean_wait_units"] < u_queue["mean_wait_units"],
        evidence={
            "rejected_bounded": bounded.rejected,
            "rejected_unbounded": unbounded.rejected,
            "max_depth_bounded": b_queue["max_depth"],
            "max_depth_unbounded": u_queue["max_depth"],
            "mean_wait_bounded": b_queue["mean_wait_units"],
            "mean_wait_unbounded": u_queue["mean_wait_units"],
        },
    )
    rows = [
        [
            label,
            r.completed,
            r.rejected,
            queue["max_depth"],
            queue["mean_wait_units"],
            r.to_payload()["latency_units"]["p95"],
        ]
        for label, r, queue in (
            ("bounded (limit=2)", bounded, b_queue),
            ("unbounded", unbounded, u_queue),
        )
    ]
    report(
        "SRV: bounded admission queue vs unbounded (1 worker, no think)",
        format_table(
            [
                "config",
                "completed",
                "rejected",
                "max depth",
                "mean wait",
                "p95 latency",
            ],
            rows,
        )
        + "\n" + result.summary(),
    )
    assert result.holds
