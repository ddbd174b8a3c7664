"""Run one workload once: set-up, timed loop, oracle, metrics.

End-to-end numbers come from an untraced pass.  A traced pass is a
separate, shorter run of the same loop with spans on every other cycle
(the cycles between them, unspanned, price the tracing), followed by the
substrate probes and the workload's replay; it yields the per-layer
numbers.  A per-layer metric of 0 means the workload never called that
layer.

Every time is the mean of its samples divided by the host's speed factor
for that phase (``probes.HostClock``): the sizing host's speed wanders by
up to 1.4x for longer than a run lasts.
"""

import gc
import os
import re
import resource
import shutil
import time
from statistics import mean
import probes
import workloads
from inputs import SHAPES
from oracle import Checker
from spans import SpanRecorder, check_tree, self_time_by, self_times

#: Untraced passes set up this many times and report the median.
SETUP_REPEATS = 3

END_TO_END = ("setup_s", "query_geomean_ms", "queries_per_s", "cpu_ms_per_query", "peak_rss_mb")

PER_LAYER = (
    [
        "cli.startup_s", "cli.import_s",
        "rdf.ntriples.parse_s", "rdf.ntriples.triples_per_s",
        "rdf.graph.add_s", "rdf.terms.hash_ns",
        "rdf.terms.pickle_us_per_triple", "rdf.terms.pickle_bytes_per_triple",
        "stats.from_graph_s", "sparql.parse_ms",
    ]
    + ["systems.%s.build_s" % workloads.slug(e) for e in workloads.SIX_ENGINES]
    + ["systems.SPARQLGX.first_execute_ms", "cli.render_ms", "cold_cli.unaccounted_share"]
    + [
        "systems.%s.execute_ms.%s" % (workloads.slug(e), shape)
        for e in workloads.SIX_ENGINES
        for shape in SHAPES
    ]
    + [
        "spark.rdd.shuffle_ms", "spark.rdd.join_ms",
        "spark.metrics.records_scanned", "spark.metrics.shuffle_records",
        "spark.metrics.join_comparisons",
        "spark.parallel.stage_overhead_ms", "spark.parallel.speedup",
        "server.protocol.decode_ms", "server.protocol.serialize_ms",
        "server.protocol.encode_ms", "server.service.build_s",
        "server.service.submit_ms.result", "server.service.submit_ms.plan",
        "server.service.submit_ms.cold", "server.service.commit_ms",
        "server.cache.result_hit_rate", "server.cache.plan_hit_rate",
        "server.cache.invalidated_per_commit",
        "evolution.commit_ms", "optimizer.build_s", "optimizer.plan_ms",
        "views.build_s", "views.apply_delta_ms",
        "data.lubm.generate_s", "host.spin_ms", "bench.trace_overhead_share",
    ]
)


def peak_rss_mb(children_only):
    """High-water RSS in MiB of the program under test.

    That is this process or its largest reaped child -- or, where the
    program only ever runs in children (``cold_cli``), the largest child
    alone, so the benchmark's own copy of the graph cannot mask it.
    """
    who = [resource.RUSAGE_CHILDREN] + ([] if children_only else [resource.RUSAGE_SELF])
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def _span_group(span):
    """Which per-layer metric a span's self time belongs to."""
    name, attrs = span["name"], span["attrs"]
    if name == "server.service.handle":
        if attrs["op"] == "commit":
            return "server.service.commit", None
        return "server.service.submit", attrs.get("cache")
    return name, attrs.get("shape")


def span_metrics(spans):
    """Per-layer metrics read off span self times (means, as clocked).

    A span named ``layer.function`` feeds ``layer.function_s`` or
    ``layer.function_ms`` -- whichever ``PER_LAYER`` declares -- with its
    qualifier (query shape, cache tier) appended where the declared name
    has one.
    """
    out = {}
    for (name, qualifier), values in self_time_by(spans, _span_group).items():
        for metric, scale in ((name + "_s", 1.0), (name + "_ms", 1e3)):
            for candidate in (metric, "%s.%s" % (metric, qualifier)):
                if candidate in PER_LAYER:
                    out[candidate] = mean(values) * scale
    return out


def _accounted_share(spans, traced_wall):
    """Layer self time inside request trees / the spanned operations' time."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    layers = 0.0
    for s in spans:
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if root["name"] == "request" and s is not root:
            layers += own[s["id"]]
    return layers / traced_wall if traced_wall else 0.0


_TIME = re.compile(r"_(s|ms|ns)(\.|$)|_us_per_")


def at_nominal_speed(name, value, factor):
    """*value* of metric *name* on a host of nominal speed.

    Times shrink by the host's speed *factor*, rates grow by it, and
    counts, sizes and shares stay as they are.
    """
    if name.endswith("_per_s"):
        return value * factor
    if _TIME.search(name):
        return value / factor
    return value


def _timed_loop(workload, state, rec, clock, checker, seconds, trace):
    """Whole cycles until *seconds* have passed (two at least when tracing).

    Returns ``(cycles, spanned flags, first-cycle counter deltas, peak RSS
    after the first cycle)``.  RSS is read there and not at the end: the
    loop runs for a time, not a count, and version history grows with
    every commit.
    """
    cycles, spanned = [], []
    gc.collect()
    start = time.perf_counter()
    while True:
        rec.enabled = trace and len(cycles) % 2 == 0
        before = workload.counters(state) if not cycles else None
        cycle = workloads.Cycle(rec, clock)
        workload.cycle(state, cycle)
        spanned.append(rec.enabled)
        cycles.append(cycle)
        workload.settle(state, cycle.outputs, checker)
        cycle.outputs = None
        if before is not None:
            counters = [b - a for a, b in zip(before, workload.counters(state))]
            rss = peak_rss_mb(workload.runs_in_children)
        done = time.perf_counter() - start >= seconds
        if done and (len(cycles) >= 2 or not trace):
            break
    rec.enabled = trace
    return cycles, spanned, counters, rss


def _ledger(workload, state, rec, clock, cycle_wall_s, counters, workdir, src, smoke):
    """The per-layer metrics of a traced pass, at nominal host speed.

    *cycle_wall_s* is the loop's mean unspanned cycle, already at nominal
    speed.  Everything measured here is divided by one factor for the
    whole pass -- its numbers are a ledger of shares, not a gate.
    """
    layer = dict.fromkeys(PER_LAYER, 0.0)
    clock.tick(burst=3)
    layer.update(
        probes.substrate(
            state.graph, list(workload.texts.values()), workdir, src, clock, smoke
        )
    )
    context = dict(layer, cycle_wall_s=cycle_wall_s, clock=clock)
    layer.update(workload.ledger(state, rec, context))
    layer.update(span_metrics(rec.spans))
    for metric, value in zip(("records_scanned", "shuffle_records", "join_comparisons"), counters):
        layer["spark.metrics." + metric] = value
    factor = clock.factor()
    layer = {k: at_nominal_speed(k, v, factor) for k, v in layer.items()}
    layer["host.spin_ms"] = mean(clock.samples) * 1e3
    return layer, factor


def run(name, seed, seconds, trace, smoke, root):
    """One pass of workload *name*; returns ``(result, detail)``.

    *result* is the driver's object (``correct``, ``attempted``,
    ``failed``, ``metrics``); *detail* is everything else worth keeping.
    """
    src = os.path.join(root, "src")
    build_dir = os.path.join(root, ".bench_build", "wallclock")
    workdir = os.path.join(build_dir, "tmp-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.build(name, smoke, src)
    rec = SpanRecorder(enabled=trace)
    clock = probes.HostClock()
    checker = Checker()
    state = None
    try:
        setups = []
        for attempt in range(1 if trace or smoke else SETUP_REPEATS):
            state = None
            gc.collect()
            clock.tick(burst=3)
            start = time.perf_counter()
            with rec.span("setup", request="setup-%d" % attempt):
                state = workload.setup(seed, rec, workdir)
            setups.append(time.perf_counter() - start)
        clock.tick(burst=3)
        setup_factor = clock.factor()

        loop_samples = len(clock.samples)
        loop_start = time.perf_counter()
        cycles, spanned, counters, rss = _timed_loop(
            workload, state, rec, clock, checker, seconds / 2.0 if trace else seconds, trace
        )
        loop_wall = time.perf_counter() - loop_start
        loop_factor = clock.factor(loop_samples)
        checker.judge(workload.expectation(state))

        plain = probes.mean_cycle([c for c, t in zip(cycles, spanned) if not t])
        metrics = {
            "setup_s": mean(setups) / setup_factor,
            "query_geomean_ms": plain["query_geomean_s"] * 1e3 / loop_factor,
            "queries_per_s": plain["queries"] / plain["wall_s"] * loop_factor,
            "cpu_ms_per_query": plain["cpu_s"] / plain["queries"] * 1e3 / loop_factor,
            "peak_rss_mb": rss,
        }
        latencies = sorted(w for c in cycles for _k, q, w, _c in c.ops if q)
        commits = sorted(w for c in cycles for _k, q, w, _c in c.ops if not q)
        detail = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "smoke": smoke, "lubm_scale": workload.scale,
            "triples": len(state.graph),
            "cycles": len(cycles), "queries": len(latencies),
            "commits": len(commits), "loop_wall_s": loop_wall,
            "setup_samples_s": setups,
            "host_speed": {
                "setup_factor": setup_factor, "loop_factor": loop_factor,
                "kernel_samples": len(clock.samples),
                "loop_drift": clock.drift(loop_samples),
            },
            "noisy": abs(clock.drift(loop_samples)) > 0.1,
            # As the clock read them: no speed factor, every sample.
            "raw": {
                "query_p50_ms": latencies[len(latencies) // 2] * 1e3,
                "query_p90_ms": latencies[int(0.9 * len(latencies))] * 1e3,
                "commit_p50_ms": commits[len(commits) // 2] * 1e3 if commits else None,
                "queries_per_s": len(latencies) / (sum(latencies) + sum(commits)),
            },
            "failed_share": checker.failed_share,
        }
        if trace:
            end_to_end = metrics
            metrics, factor = _ledger(
                workload, state, rec, clock, plain["wall_s"] / loop_factor, counters,
                workdir, src, smoke,
            )
            with_spans = probes.mean_cycle([c for c, t in zip(cycles, spanned) if t])
            metrics["bench.trace_overhead_share"] = with_spans["wall_s"] / plain["wall_s"] - 1.0
            trace_file = os.path.join(build_dir, "trace-%s-seed%d.json" % (name, seed))
            rec.dump(trace_file, workload=name, seed=seed, host_speed_factor=factor)
            detail.update(
                trace_file=os.path.relpath(trace_file, root),
                spans=len(rec.spans),
                span_problems=check_tree(rec.spans),
                accounted_share=_accounted_share(
                    rec.spans,
                    sum(w for c, t in zip(cycles, spanned) if t for _k, _q, w, _c in c.ops),
                ),
                end_to_end_traced=end_to_end,
            )
            detail["host_speed"]["pass_factor"] = factor
        detail["metrics"] = metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return result, detail
