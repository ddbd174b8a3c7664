"""The four workloads: closed loops with one client.

Each workload is a class with the same small surface, driven by
``measure.run``:

``setup(seed, rec, workdir)``
    Everything a user waits for before the first answer -- data
    generation, file write, engine or service construction, one untimed
    warm-up cycle (none for ``cold_cli``: its users pay that cost on
    every run).  Returns the state the other methods take.
``cycle(state, out)``
    One fixed unit of work, filed in *out* (a :class:`Cycle`): each
    operation timed on its own under ``out.op``, spans under
    ``out.span``, raw answers in ``out.outputs`` -- nothing is checked
    while the clock runs.
``settle(state, outputs, checker)``
    Between cycles: file each output with the :class:`oracle.Checker`.
``expectation(state)``
    ``key -> canonical text`` from the reference evaluator, for
    ``Checker.judge`` after the loop.
``counters(state)``
    ``(records_scanned, shuffle_records, join_comparisons)`` so far.
``ledger(state, rec, context)``
    Traced passes only: replays that reach layers the loop's own spans
    cannot.  Records more spans and returns the per-layer metrics that
    are not a span's self time; *context* holds the probe results (as
    clocked), ``cycle_wall_s`` (the loop's mean unspanned cycle at
    nominal host speed) and ``clock`` (the pass's
    :class:`probes.HostClock`, to tick between steps and to price the
    replay's own stretch of time).

Span names are ``<layer>.<function>``; ``measure`` maps them to the
per-layer metric names of ``BENCHMARK.json``.
"""

import json
import os
import re
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from statistics import mean
from types import SimpleNamespace

from repro.evolution.versioned import VersionedGraph
from repro.optimizer import Optimizer
from repro.rdf.ntriples import save_ntriples_file
from repro.runtime import build_engine
from repro.server import QueryService
from repro.server.frontend import handle_request
from repro.server.protocol import decode_request, encode_response
from repro.sparql.parser import parse_sparql
from repro.views import DEFAULT_VIEW_THRESHOLD, ViewCatalog

import inputs
import oracle
import probes
from inputs import SHAPES
from spans import SpanRecorder

#: One engine per Spark abstraction in the survey's Table I (S2X, at
#: seconds per query, is left out).
SIX_ENGINES = ("Naive", "SPARQLGX", "S2RDF", "HAQWA", "SPARQL-Hybrid", "Spar(k)ql")
PARALLEL_ENGINES = ("Naive", "SPARQLGX")

#: LUBM universities per workload: ``(full, --smoke)``.  Sized so that
#: three set-ups, the timed loop and the oracle fit the driver's budget
#: per run (README, "Sizes").
SCALES = {
    "cold_cli": (50, 5),
    "warm_engines": (25, 5),
    "serve_mixed": (25, 5),
    "parallel_exec": (50, 5),
}

_OFF = SpanRecorder(enabled=False)
_COST_LINE = re.compile(r"^cost: scanned=(\d+) shuffled=(\d+) remote=\d+ comparisons=(\d+)$", re.M)


def slug(engine):
    """An engine name as a metric-name part (``Spar(k)ql`` -> ``Sparkql``)."""
    return re.sub(r"[^A-Za-z0-9_.-]", "", engine)


class Cycle:
    """One cycle's instruments and what they recorded.

    ``ops`` holds ``(kind, is_query, wall seconds, cpu seconds)`` per
    operation.  *kind* names the operation among those of its cycle (a
    shape, an engine and a shape, a pool query asked first or again);
    every cycle of a workload holds the same kinds the same number of
    times.  ``outputs`` holds the raw answers, unchecked.
    """

    def __init__(self, rec=_OFF, clock=None):
        self.span = rec.span
        self.clock = clock
        self.ops = []
        self.outputs = []

    @contextmanager
    def op(self, kind, is_query=True):
        """Time the body as one operation of *kind*."""
        if self.clock is not None:
            self.clock.tick()
        cpu = probes.cpu_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            self.ops.append((kind, is_query, wall, probes.cpu_seconds() - cpu))


class ColdCli:
    """Sequential ``python -m repro query`` subprocesses, one per shape."""

    name = "cold_cli"
    #: The program never runs in the benchmark's own process.
    runs_in_children = True

    def __init__(self, smoke=False, src=None):
        self.scale = SCALES[self.name][smoke]
        self.src = src
        self.texts = inputs.shape_queries()

    def setup(self, seed, rec, workdir):
        with rec.span("data.lubm.generate"):
            graph = inputs.generate_graph(self.scale, seed)
        path = os.path.join(workdir, "cold_cli-%d.nt" % seed)
        with rec.span("rdf.ntriples.save"):
            save_ntriples_file(path, graph)
        return SimpleNamespace(
            graph=graph, path=path, cycles=0, cost=[0, 0, 0],
            env=probes.child_env(self.src),
        )

    def _argv(self, state, shape):
        return [
            sys.executable, "-m", "repro", "query", state.path,
            self.texts[shape], "--engine", "SPARQLGX",
        ]

    def cycle(self, state, out):
        for shape in SHAPES:
            argv = self._argv(state, shape)
            request = "c%d-%s" % (state.cycles, shape)
            with out.op(shape), out.span("request", request=request):
                with out.span("cli.query", shape=shape):
                    proc = subprocess.run(
                        argv, env=state.env, capture_output=True, text=True
                    )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            out.outputs.append((shape, proc.stdout if proc.returncode == 0 else None))
        state.cycles += 1

    def settle(self, state, outputs, checker):
        for shape, stdout in outputs:
            checker.record(shape, None if stdout is None else oracle.cli_answer(stdout))
            cost = _COST_LINE.search(stdout or "")
            if cost:
                for slot, value in enumerate(cost.groups()):
                    state.cost[slot] += int(value)

    def expectation(self, state):
        return lambda shape: oracle.reference_cli_answer(state.graph, self.texts[shape])

    def counters(self, state):
        return tuple(state.cost)

    def ledger(self, state, rec, context):
        """Per shape, the CLI and then ``replay.py``: the same calls,
        clocked one by one.  The two run back to back because their
        ratio is wanted and the host's speed wanders."""
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "replay.py")
        whole = accounted = 0.0
        for shape in SHAPES:
            context["clock"].tick()
            with rec.span("replay", request="replay-%s" % shape):
                with rec.span("replay.cli") as span:
                    subprocess.run(
                        self._argv(state, shape), env=state.env,
                        capture_output=True, check=True,
                    )
                proc = subprocess.run(
                    [sys.executable, script, state.path, self.texts[shape]],
                    env=state.env, capture_output=True, text=True, check=True,
                )
                for name, start, end in json.loads(proc.stdout):
                    rec.add(name, start, end)
                    accounted += end - start
            whole += span["end"] - span["start"]
        return {"cold_cli.unaccounted_share": 1.0 - accounted / whole}


class Engines:
    """``engine.execute`` -> canonical bytes, every engine x every shape."""

    runs_in_children = False

    def __init__(self, name, engines, smoke=False, **engine_kwargs):
        self.name = name
        self.scale = SCALES[name][smoke]
        self.engines = engines
        self.engine_kwargs = engine_kwargs
        self.texts = inputs.shape_queries()
        self.parsed = {shape: parse_sparql(text) for shape, text in self.texts.items()}

    def _build(self, graph, rec, **kwargs):
        engines = {}
        for name in self.engines:
            with rec.span("systems.%s.build" % slug(name)):
                engines[name] = build_engine(name, graph, **kwargs)
            for shape, query in self.parsed.items():
                if not engines[name].supports(query):
                    raise SystemExit(
                        "benchmark bug: %s does not support the %s query" % (name, shape)
                    )
        return engines

    def setup(self, seed, rec, workdir):
        with rec.span("data.lubm.generate"):
            graph = inputs.generate_graph(self.scale, seed)
        state = SimpleNamespace(
            graph=graph, cycles=0,
            engines=self._build(graph, rec, **self.engine_kwargs),
        )
        with rec.span("warmup"):
            self.cycle(state, Cycle())
        return state

    def cycle(self, state, out, engines=None):
        for name, engine in (engines or state.engines).items():
            span_name = "systems.%s.execute" % slug(name)
            for shape in SHAPES:
                query = self.parsed[shape]
                request = "c%d-%s-%s" % (state.cycles, slug(name), shape)
                answer = None
                with out.op("%s/%s" % (name, shape)):
                    try:
                        with out.span("request", request=request):
                            with out.span(span_name, shape=shape):
                                result = engine.execute(query)
                            with out.span("server.protocol.serialize"):
                                answer = oracle.canonical_answer(result, query)
                    except Exception:  # a failed query is a sample, not a crash
                        traceback.print_exc()
                out.outputs.append((shape, answer))
        state.cycles += 1

    def settle(self, state, outputs, checker):
        for shape, answer in outputs:
            checker.record(shape, answer)

    def expectation(self, state):
        return lambda shape: oracle.reference_answer(state.graph, self.texts[shape])

    def counters(self, state):
        snapshots = [e.ctx.metrics.snapshot() for e in state.engines.values()]
        return tuple(
            sum(getattr(s, field) for s in snapshots)
            for field in ("records_scanned", "shuffle_records", "join_comparisons")
        )

    def ledger(self, state, rec, context):
        """In-process twins of the parallel engines: what forking buys."""
        if "backend" not in self.engine_kwargs:
            return {}
        twins = self._build(state.graph, _OFF, parallelism=self.engine_kwargs["parallelism"])
        clock = context["clock"]
        since = len(clock.samples)
        cycles = [Cycle(clock=clock) for _ in range(4)]
        for out in cycles:
            self.cycle(state, out, twins)
        clock.tick()
        serial = probes.mean_cycle(cycles[1:])["wall_s"] / clock.factor(since)
        return {"spark.parallel.speedup": serial / context["cycle_wall_s"]}


class ServeMixed:
    """One QueryService over the wire protocol: reads beside writes."""

    name = "serve_mixed"
    runs_in_children = False

    def __init__(self, smoke=False):
        self.scale = SCALES[self.name][smoke]
        self.pool = inputs.serve_pool()
        self.texts = dict(self.pool)

    def setup(self, seed, rec, workdir):
        with rec.span("data.lubm.generate"):
            graph = inputs.generate_graph(self.scale, seed)
        with rec.span("server.service.build"):
            service = QueryService(
                graph, engine="SPARQLGX", pool_size=1, optimize=True, enable_views=True
            )
        engine = service.pool[0]
        for name, text in self.pool:
            if not engine.supports(parse_sparql(text)):
                raise SystemExit("benchmark bug: SPARQLGX does not support %s" % name)
        state = SimpleNamespace(
            graph=graph, seed=seed, service=service, cycles=0,
            changes=inputs.ChangeSets(graph, seed),
        )
        with rec.span("warmup"):
            self.cycle(state, Cycle())
        return state

    def _request(self, state, out, request, line, op):
        with out.span("request", request=request):
            with out.span("server.protocol.decode"):
                payload = decode_request(line)
            with out.span("server.service.handle", op=op) as span:
                response = handle_request(state.service, payload)
                if span is not None:
                    span["attrs"]["cache"] = response.get("cache")
            with out.span("server.protocol.encode"):
                return encode_response(response)

    def cycle(self, state, out):
        """Epoch ``state.cycles``: 40 queries, then one commit."""
        epoch = state.cycles
        requests = inputs.epoch_requests(state.seed, epoch, self.pool)
        commit = state.changes.commit_line(epoch)
        asked = set()
        for position, (index, line) in enumerate(requests):
            # Each commit empties the result cache, so a query's first
            # asking in an epoch executes and every later one is a hit.
            kind = "q%d/%s" % (index, "again" if index in asked else "first")
            asked.add(index)
            with out.op(kind):
                text = self._request(
                    state, out, "e%d-r%d" % (epoch, position), line, "query"
                )
            out.outputs.append((index, text))
        with out.op("commit", is_query=False):
            text = self._request(state, out, "e%d-commit" % epoch, commit, "commit")
        out.outputs.append((None, text))
        state.cycles += 1

    def settle(self, state, outputs, checker):
        for index, text in outputs:
            response = json.loads(text)
            ok = response.get("status") == "ok"
            if index is None:
                checker.tally(ok)
            else:
                key = (response.get("version", -1), index)
                checker.record(key, response.get("result") if ok else None)

    def expectation(self, state):
        """Replay the change sets on a mirror graph, version by version."""
        mirror = state.graph.copy()
        at = 0

        def expected(key):
            nonlocal at
            version, index = key
            while at < version:
                additions, deletions = state.changes.change(at)
                added = [t for t in set(additions) if t not in mirror]
                for triple in set(deletions):
                    mirror.remove(triple)
                for triple in added:
                    mirror.add(triple)
                at += 1
            return oracle.reference_answer(mirror, self.pool[index][1])

        return expected

    def counters(self, state):
        snapshot = state.service.pool[0].ctx.metrics.snapshot()
        return (snapshot.records_scanned, snapshot.shuffle_records, snapshot.join_comparisons)

    def ledger(self, state, rec, context):
        """Shadow one commit's steps, and one miss per pool query, on
        separate objects -- inside the service they are one opaque call."""
        versions = VersionedGraph(state.graph)
        with rec.span("shadow", request="shadow-build"):
            with rec.span("optimizer.build"):
                optimizer = Optimizer.for_graph(versions.head(), version=0)
            with rec.span("views.build"):
                views = ViewCatalog.build(
                    versions.head(), optimizer.catalog,
                    threshold=DEFAULT_VIEW_THRESHOLD, version=0,
                )
        for epoch in range(3):
            additions, deletions = state.changes.change(epoch)
            context["clock"].tick()
            with rec.span("shadow", request="shadow-commit-%d" % epoch):
                with rec.span("evolution.commit"):
                    version = versions.commit(additions, deletions)
                head = versions.head()
                with rec.span("optimizer.build"):
                    optimizer = Optimizer.for_graph(head, version=version)
                with rec.span("views.apply_delta"):
                    views.apply_delta(versions.delta(version), head, version)
                optimizer.set_view_catalog(views)
                with rec.span("systems.SPARQLGX.build"):
                    engine = build_engine("SPARQLGX", head)
                engine.set_optimizer(optimizer)
        for name, text in self.pool:
            shape = name.rstrip("0123456789")
            context["clock"].tick()
            with rec.span("shadow", request="shadow-%s" % name):
                query = parse_sparql(text)
                with rec.span("optimizer.plan"):
                    optimizer.plan_bgp(query.where.triple_patterns())
                with rec.span("systems.SPARQLGX.execute", shape=shape):
                    result = engine.execute(query)
                with rec.span("server.protocol.serialize"):
                    oracle.canonical_answer(result, query)
        counters = state.service.stats()["counters"]

        def rate(tier):
            hits = counters.get(tier + "_cache_hits", 0)
            return hits / max(hits + counters.get(tier + "_cache_misses", 0), 1)

        return {
            "server.cache.result_hit_rate": rate("result"),
            "server.cache.plan_hit_rate": rate("plan"),
            "server.cache.invalidated_per_commit": counters.get(
                "result_cache_invalidations", 0
            ) / max(state.service.version, 1),
        }


def build(name, smoke, src):
    """The workload called *name*."""
    if name == "cold_cli":
        return ColdCli(smoke, src)
    if name == "warm_engines":
        return Engines(name, SIX_ENGINES, smoke)
    if name == "serve_mixed":
        return ServeMixed(smoke)
    if name == "parallel_exec":
        return Engines(
            name, PARALLEL_ENGINES, smoke,
            backend="parallel", workers=probes.worker_count(), parallelism=8,
        )
    raise SystemExit("unknown workload %r" % name)
