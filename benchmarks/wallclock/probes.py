"""Host speed, and substrate probes: layers no outside span can bracket.

**Host speed.**  The sizing host's speed wanders: ten-second to
minute-long stretches up to 1.4x slower than others, on top of
second-to-second flips (README, "Noise").  No statistic taken inside an
18 s run removes a slow stretch that outlasts the run.  So the run keeps
a :class:`HostClock`: a fixed pure-Python kernel, run between operations
every 150 ms or so, whose mean time over a phase -- relative to
``KERNEL_NOMINAL_S`` -- is the phase's *speed factor*.  Every time this
benchmark reports is the mean of its samples divided by that factor:
seconds on a host where the kernel takes its nominal 10 ms.  On the
sizing host it takes about that, so the numbers read as plain seconds
there.  The kernel is part of the benchmark, not of the program,
so no change to the program moves it.

**Probes.**  Term hashing, the N-Triples parser, the shuffle and the
hash join run *inside* every engine call, so a span around
``engine.execute`` cannot split them out.  Each probe here drives one
such layer alone, on the workload's own graph, and runs in every traced
pass.
"""

import gc
import os
import pickle
import resource
import subprocess
import sys
import time
from collections import defaultdict
from operator import add
from statistics import geometric_mean, mean, median

from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import iter_ntriples, save_ntriples_file
from repro.runtime import build_context
from repro.sparql.parser import parse_sparql
from repro.stats.catalog import StatsCatalog

#: What one kernel run takes, about, on the sizing host.
KERNEL_NOMINAL_S = 0.010
#: Operation time bought by one kernel sample (sampling is <= 7 % of a loop).
SAMPLE_EVERY_S = 0.150
#: Pairs pushed through the shuffle and the join probes.
RDD_PAIRS = 100_000
RDD_PARTITIONS = 8
#: Triples pickled by the worker-pipe probe.
PICKLE_TRIPLES = 10_000

_KEYS = tuple("<http://example.org/resource/%d>" % i for i in range(16_000))
_TABLE = {key: (index, key) for index, key in enumerate(_KEYS)}


def kernel():
    """Fixed work shaped like the program's: arithmetic, then dict and
    string traffic.  About 10 ms."""
    total = 0
    for i in range(120_000):
        total += i * i % 7
    groups = {}
    for key in _KEYS:
        index, _key = _TABLE[key]
        groups.setdefault(index % 97, []).append(key)
    return total + len(groups)


class HostClock:
    """Samples :func:`kernel`; says how slow the host ran in a phase."""

    def __init__(self):
        self.samples = []
        self._last = 0.0

    def tick(self, burst=0):
        """Sample if the last sample is old enough: one kernel run per
        :data:`SAMPLE_EVERY_S` gone by (eight at most), so that sampling
        takes the same share of a loop of long operations as of a loop
        of short ones.  *burst* forces that many runs (a phase boundary).
        """
        gone = time.perf_counter() - self._last
        for _ in range(burst or min(int(gone / SAMPLE_EVERY_S), 8)):
            start = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    def factor(self, since=0):
        """Mean kernel time of ``samples[since:]`` over the nominal."""
        return mean(self.samples[since:]) / KERNEL_NOMINAL_S

    def drift(self, since=0):
        """Second half's mean kernel time over the first half's, minus 1."""
        samples = self.samples[since:]
        half = len(samples) // 2
        return mean(samples[half:]) / mean(samples[:half]) - 1.0 if half else 0.0


def mean_cycle(cycles):
    """One cycle of a workload, from the mean time of each operation.

    Every cycle holds the same kinds of operation the same number of
    times; each operation counts with the mean of its kind over all
    *cycles*.  Returns the number of queries in a cycle, the geometric
    mean of their latencies, and the cycle's wall and CPU seconds
    (commits included) -- as the clock read them, not yet divided by the
    host's speed factor.
    """
    walls, cpus = defaultdict(list), defaultdict(list)
    for cycle in cycles:
        for kind, _is_query, wall, cpu in cycle.ops:
            walls[kind].append(wall)
            cpus[kind].append(cpu)
    ops = cycles[0].ops
    queries = [mean(walls[kind]) for kind, is_query, _w, _c in ops if is_query]
    return {
        "queries": len(queries),
        "query_geomean_s": geometric_mean(queries),
        "wall_s": sum(mean(walls[kind]) for kind, _q, _w, _c in ops),
        "cpu_s": sum(mean(cpus[kind]) for kind, _q, _w, _c in ops),
    }


def cpu_seconds():
    """User+sys CPU of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def child_env(src):
    """The environment every child interpreter gets."""
    return dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")


def worker_count():
    """Workers of the parallel backend: ``min(2, cores we may run on)``."""
    return min(2, len(os.sched_getaffinity(0)))


def substrate(graph, texts, workdir, src, clock, quick=False):
    """Every substrate metric, measured on *graph* and query *texts*.

    Times are as the clock read them; *clock* is ticked between samples
    so the caller can divide by the host's speed factor.  *quick*
    (``--smoke``) takes one sample of each and shrinks the RDD probes
    tenfold.
    """
    # The workload's engines and graphs are still alive, and a full
    # collection walks every one of them: parsing 42 k triples took 1.6x
    # as long here as in a fresh interpreter.  Freezing hides what is
    # alive now from the collector, which is what a fresh process sees.
    gc.collect()
    gc.freeze()
    try:
        return _substrate(graph, texts, workdir, child_env(src), clock, quick)
    finally:
        gc.unfreeze()


def _substrate(graph, texts, workdir, env, clock, quick):
    pairs = RDD_PAIRS // 10 if quick else RDD_PAIRS
    once = 1 if quick else 3
    several = 1 if quick else 5

    def timed(func, repeats=once):
        """Mean wall seconds of ``func()`` over *repeats* calls."""
        samples = []
        for _ in range(repeats):
            clock.tick()
            start = time.perf_counter()
            func()
            samples.append(time.perf_counter() - start)
        return mean(samples)

    def interpreter_s(code):
        return timed(
            lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True),
            several,
        )

    out = {}
    out["cli.startup_s"] = interpreter_s("pass")
    out["cli.import_s"] = max(
        interpreter_s("import repro.cli") - out["cli.startup_s"], 0.0
    )

    path = os.path.join(workdir, "probe.nt")
    save_ntriples_file(path, graph)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    os.remove(path)
    out["rdf.ntriples.parse_s"] = timed(lambda: list(iter_ntriples(lines)))
    out["rdf.ntriples.triples_per_s"] = len(lines) / out["rdf.ntriples.parse_s"]
    triples = list(iter_ntriples(lines))
    out["rdf.graph.add_s"] = timed(lambda: RDFGraph(triples))

    terms = [term for triple in triples for term in triple]
    out["rdf.terms.hash_ns"] = timed(lambda: list(map(hash, terms))) / len(terms) * 1e9
    sample = triples[:PICKLE_TRIPLES]
    blob = pickle.dumps(sample, pickle.HIGHEST_PROTOCOL)
    out["rdf.terms.pickle_us_per_triple"] = (
        timed(lambda: pickle.loads(pickle.dumps(sample, pickle.HIGHEST_PROTOCOL)))
        / len(sample)
        * 1e6
    )
    out["rdf.terms.pickle_bytes_per_triple"] = len(blob) / len(sample)

    out["stats.from_graph_s"] = timed(lambda: StatsCatalog.from_graph(graph))
    out["sparql.parse_ms"] = (
        median(timed(lambda text=text: parse_sparql(text), 9) for text in texts) * 1e3
    )

    serial = build_context(parallelism=RDD_PARTITIONS)
    keyed = [(i % 1000, i) for i in range(pairs)]
    left = [(i, i) for i in range(pairs)]
    right = [(i, -i) for i in range(pairs)]
    out["spark.rdd.shuffle_ms"] = (
        timed(
            lambda: serial.parallelize(keyed, RDD_PARTITIONS).reduceByKey(add).collect()
        )
        * 1e3
    )
    out["spark.rdd.join_ms"] = (
        timed(
            lambda: serial.parallelize(left, RDD_PARTITIONS)
            .join(serial.parallelize(right, RDD_PARTITIONS))
            .collect()
        )
        * 1e3
    )

    forked = build_context(
        parallelism=RDD_PARTITIONS, backend="parallel", workers=worker_count()
    )
    trivial = list(range(RDD_PARTITIONS))

    def stage(ctx):
        return timed(
            lambda: ctx.parallelize(trivial, RDD_PARTITIONS).map(abs).collect(),
            several,
        )

    out["spark.parallel.stage_overhead_ms"] = (stage(forked) - stage(serial)) * 1e3
    return out
