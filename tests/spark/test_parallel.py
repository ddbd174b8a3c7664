"""Unit tests for the parallel executor backend (repro.spark.parallel).

The differential suites prove end-to-end byte-identity; this file pins
the individual mechanisms that identity rests on: backend construction
and validation, genuinely out-of-driver execution, the deterministic
merge protocol (metrics, accumulators), typed error shipping across the
process boundary, deadline aborts, and cache installation.
"""

import gc
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.process import BaseProcess

import pytest

from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.spark.deadline import DeadlineExceededError
from repro.spark import parallel as parallel_module
from repro.spark.faults import FaultRule, TaskFailedError
from repro.spark.metrics import MetricsCollector
from repro.spark.parallel import (
    BackendConfigError,
    InProcessBackend,
    ParallelBackend,
    WorkerCrashError,
    _fault_state,
    build_backend,
    parallel_available,
)
from repro.spark.partitioner import HashPartitioner
from repro.spark.row import Row
from repro.sparql.ast import Variable
from repro.sparql.results import Solution

needs_fork = pytest.mark.skipif(
    not parallel_available(),
    reason="parallel backend needs the fork start method",
)


# ----------------------------------------------------------------------
# Backend construction and validation
# ----------------------------------------------------------------------


def test_build_backend_inprocess_default():
    backend = build_backend("inprocess", None)
    assert isinstance(backend, InProcessBackend)
    assert backend.name == "inprocess"
    assert backend.workers == 1


@needs_fork
def test_build_backend_parallel():
    backend = build_backend("parallel", 3)
    assert isinstance(backend, ParallelBackend)
    assert backend.name == "parallel"
    assert backend.workers == 3


def test_unknown_backend_rejected():
    with pytest.raises(BackendConfigError):
        build_backend("yarn", None)


def test_zero_workers_rejected():
    with pytest.raises(BackendConfigError):
        build_backend("parallel", 0)


def test_workers_ignored_by_inprocess_backend():
    # Documented contract (--workers help text): the serial oracle has
    # exactly one executor regardless of the requested pool size.
    backend = build_backend("inprocess", 4)
    assert isinstance(backend, InProcessBackend)
    assert backend.workers == 1


def test_context_exposes_backend_knobs():
    sc = SparkContext(4)
    assert sc.backend == "inprocess"
    assert sc.workers == 1


# ----------------------------------------------------------------------
# Real out-of-driver execution
# ----------------------------------------------------------------------


@needs_fork
def test_tasks_actually_run_in_worker_processes():
    sc = SparkContext(default_parallelism=4, backend="parallel", workers=2)
    driver_pid = os.getpid()
    pids = set(
        sc.parallelize(list(range(8)), 4).map(lambda _: os.getpid()).collect()
    )
    assert pids and driver_pid not in pids


@needs_fork
def test_workers_inherit_a_frozen_heap_and_the_driver_keeps_none():
    """Forks are bracketed by ``gc.freeze``/``gc.unfreeze``: a worker's
    collections skip the heap it inherited (no walk, no copy-on-write of
    every page), and the driver is back to an unfrozen heap right after
    -- also when a task raises."""
    def frozen(ctx):
        return ctx.parallelize(list(range(8)), 4).map(
            lambda _: (os.getpid(), gc.get_freeze_count())
        )

    sc = SparkContext(default_parallelism=4, backend="parallel", workers=2)
    assert gc.get_freeze_count() == 0
    seen = frozen(sc).collect()
    assert all(pid != os.getpid() and count > 0 for pid, count in seen)
    assert gc.get_freeze_count() == 0

    def boom(x):
        if gc.get_freeze_count() > 0:
            raise ValueError("raised under a frozen heap")
        return x

    with pytest.raises(ValueError, match="under a frozen heap"):
        sc.parallelize(list(range(8)), 4).map(boom).collect()
    assert gc.get_freeze_count() == 0
    # Shuffle map stages fork too (the failed job took the pool along).
    counts = sc.parallelize([(i % 3, 1) for i in range(12)], 4).reduceByKey(
        lambda a, b: a + b
    )
    assert sorted(counts.collect()) == [(0, 4), (1, 4), (2, 4)]
    assert gc.get_freeze_count() == 0
    # A caller that froze its own heap first (a pre-fork server) keeps
    # it: the process-wide freeze does not nest, so the bracket stands
    # aside -- also when a task raises.  Fresh contexts, so that both
    # jobs fork under the caller's freeze.  (The count only falls as
    # frozen objects are freed; nothing is added to it and it never
    # reaches 0.)
    gc.freeze()
    try:
        held = gc.get_freeze_count()
        seen = frozen(SparkContext(4, backend="parallel", workers=2)).collect()
        assert all(0 < count <= held for _, count in seen)
        assert 0 < gc.get_freeze_count() <= held
        caller = SparkContext(4, backend="parallel", workers=2)
        with pytest.raises(ValueError, match="under a frozen heap"):
            caller.parallelize(list(range(8)), 4).map(boom).collect()
        assert 0 < gc.get_freeze_count() <= held
    finally:
        gc.unfreeze()


@needs_fork
def test_single_partition_stage_stays_in_the_driver():
    # One task cannot benefit from a pool; the backend runs it on the
    # oracle path instead of paying a pointless fork.
    sc = SparkContext(default_parallelism=4, backend="parallel", workers=2)
    driver_pid = os.getpid()
    pids = set(
        sc.parallelize([1, 2, 3], 1).map(lambda _: os.getpid()).collect()
    )
    assert pids == {driver_pid}


@needs_fork
def test_shuffle_results_match_inprocess():
    data = [(i % 5, i) for i in range(40)]
    serial = (
        SparkContext(4)
        .parallelize(data, 4)
        .reduceByKey(lambda a, b: a + b)
        .collect()
    )
    parallel = (
        SparkContext(4, backend="parallel", workers=4)
        .parallelize(data, 4)
        .reduceByKey(lambda a, b: a + b)
        .collect()
    )
    assert parallel == serial


# ----------------------------------------------------------------------
# Deterministic metrics merge
# ----------------------------------------------------------------------


def test_merge_delta_is_order_independent():
    # Workers report in completion order, which is nondeterministic; the
    # merged collector must not depend on it -- including the counter
    # *insertion* order, which leaks into every snapshot iteration.
    deltas = [
        [("shuffle_records", 3), ("records_scanned", 7)],
        [("join_comparisons", 2)],
        [("records_scanned", 1), ("broadcast_bytes", 5)],
    ]
    first = MetricsCollector()
    for delta in deltas:
        first.merge_delta(delta)
    second = MetricsCollector()
    for delta in reversed(deltas):
        second.merge_delta(delta)
    assert dict(first.snapshot()) == dict(second.snapshot())
    assert list(first.snapshot()) == list(second.snapshot())


def test_merge_delta_accepts_mappings_and_skips_zeros():
    collector = MetricsCollector()
    collector.merge_delta({"records_scanned": 4, "shuffle_records": 0})
    flat = {name: value for name, value in collector.snapshot() if value}
    assert flat == {"records_scanned": 4}


@needs_fork
def test_parallel_metrics_equal_serial_metrics():
    def job(sc):
        return (
            sc.parallelize([(i % 3, i) for i in range(30)], 6)
            .reduceByKey(lambda a, b: a + b)
            .collect()
        )

    serial_sc = SparkContext(4)
    parallel_sc = SparkContext(4, backend="parallel", workers=3)
    assert job(parallel_sc) == job(serial_sc)
    assert dict(parallel_sc.metrics.snapshot()) == dict(
        serial_sc.metrics.snapshot()
    )


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------


@needs_fork
def test_accumulator_updates_cross_the_process_boundary():
    sc = SparkContext(4, backend="parallel", workers=2)
    acc = sc.accumulator(0)
    sc.parallelize(list(range(20)), 4).foreach(lambda x: acc.add(x))
    assert acc.value == sum(range(20))


@needs_fork
def test_accumulator_merge_matches_serial():
    def job(sc):
        acc = sc.accumulator(0)
        sc.parallelize(list(range(12)), 4).foreach(lambda x: acc.add(1))
        return acc.value

    assert job(SparkContext(4, backend="parallel", workers=4)) == job(
        SparkContext(4)
    )


# ----------------------------------------------------------------------
# Error shipping
# ----------------------------------------------------------------------


@needs_fork
def test_worker_exceptions_arrive_typed():
    sc = SparkContext(4, backend="parallel", workers=2)

    def boom(x):
        if x == 5:
            raise ValueError("bad record %d" % x)
        return x

    with pytest.raises(ValueError, match="bad record 5"):
        sc.parallelize(list(range(8)), 4).map(boom).collect()


@needs_fork
def test_task_failed_error_crosses_the_boundary():
    sc = SparkContext(
        4,
        backend="parallel",
        workers=2,
        faults="fail:p=1.0;seed=1",
        max_task_attempts=2,
    )
    with pytest.raises(TaskFailedError):
        sc.parallelize(list(range(8)), 4).map(lambda x: x).collect()


def test_fault_and_deadline_errors_pickle_round_trip():
    task_error = TaskFailedError(stage="map", partition=3, attempts=4)
    copy = pickle.loads(pickle.dumps(task_error))
    assert isinstance(copy, TaskFailedError)
    assert (copy.stage, copy.partition, copy.attempts) == ("map", 3, 4)

    deadline_error = DeadlineExceededError(budget=10, spent=12, query="q")
    copy = pickle.loads(pickle.dumps(deadline_error))
    assert isinstance(copy, DeadlineExceededError)
    assert (copy.budget, copy.spent, copy.query) == (10, 12, "q")


def test_immutable_rdf_terms_pickle_round_trip():
    # The raising __setattr__ on terms breaks default slots unpickling;
    # __reduce__ reconstructs through __init__ instead.  Workers ship
    # these in every result payload, so a regression here bricks the
    # whole backend.
    for term in (
        URI("http://example.org/x"),
        BNode("b0"),
        Literal("42", datatype=URI("http://www.w3.org/2001/XMLSchema#int")),
        Literal("chat", language="fr"),
    ):
        copy = pickle.loads(pickle.dumps(term))
        assert copy == term and hash(copy) == hash(term)
    triple = Triple(
        URI("http://example.org/s"),
        URI("http://example.org/p"),
        Literal("o"),
    )
    assert pickle.loads(pickle.dumps(triple)) == triple


def test_row_pickle_round_trip():
    row = Row(("a", "b"), (1, "x"))
    copy = pickle.loads(pickle.dumps(row))
    assert copy == row
    assert copy["a"] == 1 and copy["b"] == "x"


def test_variable_and_solution_pickle_round_trip():
    # Closures capture both (a FILTER's expression, a bound solution);
    # a job sent to a pool forked before it pickles them by value.
    variable = Variable("age")
    copy = pickle.loads(pickle.dumps(variable))
    assert copy == variable and hash(copy) == hash(variable)
    solution = Solution({"x": URI("http://example.org/x"), "n": Literal("7")})
    copy = pickle.loads(pickle.dumps(solution))
    assert copy == solution and copy[Variable("x")] == solution["x"]


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


@needs_fork
def test_deadline_abort_matches_serial_semantics():
    def run(backend, workers=None):
        sc = SparkContext(4, backend=backend, workers=workers)
        data = sc.parallelize(list(range(400)), 8)
        sc.set_deadline(5)
        try:
            data.map(lambda x: x).collect()
        except DeadlineExceededError as exc:
            return type(exc).__name__
        return None

    assert run("parallel", 2) == run("inprocess") == "DeadlineExceededError"


# ----------------------------------------------------------------------
# Cache installation
# ----------------------------------------------------------------------


@needs_fork
def test_cached_partitions_install_on_the_driver():
    sc = SparkContext(4, backend="parallel", workers=2)
    rdd = sc.parallelize(list(range(16)), 4).map(lambda x: x * 2).cache()
    first = rdd.collect()
    scanned_after_first = sc.metrics.snapshot().records_scanned
    second = rdd.collect()
    assert second == first
    # The second collect served from the driver-installed cache: no new
    # scan work, exactly like the serial backend.
    assert sc.metrics.snapshot().records_scanned == scanned_after_first


@needs_fork
def test_cache_contents_match_serial_backend():
    def job(sc):
        rdd = sc.parallelize(list(range(10)), 4).map(lambda x: x + 1).cache()
        rdd.collect()
        return rdd.collect()

    assert job(SparkContext(4, backend="parallel", workers=2)) == job(
        SparkContext(4)
    )


# ----------------------------------------------------------------------
# The pool's life: one fork set per context
# ----------------------------------------------------------------------


def span_charges(roots):
    """Every span of a trace as (kind, name, attrs, own charges), sorted.

    ``normalize_spans`` without the nesting, for jobs of several
    shuffles: the oracle opens a shuffle's span inside the span of the
    stage that first reads it, the staged backend resolves the barriers
    deepest-first, side by side (docs/PARALLEL.md).  What each span is
    and what it was charged itself must still agree.
    """
    return sorted(
        json.dumps(
            [span.kind, span.name, span.attrs, span.self_metrics], sort_keys=True
        )
        for root in roots
        for span in root.walk()
    )


def oracle_and_pool(job, workers=2, **knobs):
    """Run ``job(sc)`` on a fresh in-process context and on a fresh
    forked one, traced; return the two contexts after asserting that the
    answers (as bytes), the counters and the spans' charges agree."""
    serial = SparkContext(4, **knobs)
    forked = SparkContext(4, backend="parallel", workers=workers, **knobs)
    answers = []
    for sc in (serial, forked):
        sc.tracer.enable()
        answers.append(repr(job(sc)).encode())
    assert answers[1] == answers[0]
    assert dict(forked.metrics.snapshot()) == dict(serial.metrics.snapshot())
    assert span_charges(forked.tracer.roots) == span_charges(serial.tracer.roots)
    return serial, forked


@pytest.fixture
def process_starts(monkeypatch):
    """Every ``Process.start`` made while the test runs, as pids."""
    started = []
    start = BaseProcess.start

    def counting_start(self):
        start(self)
        started.append(self.pid)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    return started


def three_stage_job(sc, seen):
    """Two shuffles and a final stage; every task of every stage notes
    ``(stage, partition, pid)`` in the accumulator *seen*."""

    def noting(stage):
        def note(index, part):
            seen.add(frozenset([(stage, index, os.getpid())]))
            return part

        return note

    return (
        sc.parallelize([(i % 5, i) for i in range(40)], 4)
        .mapPartitionsWithIndex(noting("map 1"))
        .reduceByKey(lambda a, b: a + b)
        .mapPartitionsWithIndex(noting("map 2"))
        .map(lambda kv: (kv[1] % 3, kv[0]))
        .reduceByKey(lambda a, b: a + b)
        .mapPartitionsWithIndex(noting("final"))
    )


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_job_forks_once_and_its_workers_serve_every_stage(
    process_starts, workers
):
    def union_accumulator(ctx):
        return ctx.accumulator(frozenset(), lambda a, b: a | b)

    serial = SparkContext(4)
    expected = three_stage_job(serial, union_accumulator(serial)).collect()
    sc = SparkContext(4, backend="parallel", workers=workers)
    seen = union_accumulator(sc)
    assert three_stage_job(sc, seen).collect() == expected
    assert len(process_starts) == workers
    assert {(stage, index) for stage, index, _pid in seen.value} == {
        (stage, index)
        for stage in ("map 1", "map 2", "final")
        for index in range(4)
    }
    pids = {pid for _stage, _index, pid in seen.value}
    assert pids <= set(process_starts) and os.getpid() not in pids
    # The next job -- new lineage, new closures, a new accumulator --
    # is sent to the same workers: nothing forks.
    again = union_accumulator(sc)
    assert three_stage_job(sc, again).collect() == expected
    assert len(process_starts) == workers
    assert {pid for _stage, _index, pid in again.value} == pids
    assert set(process_starts) <= live_children()


@needs_fork
def test_a_pool_is_no_wider_than_the_widest_stage_and_absent_without_one(
    process_starts,
):
    sc = SparkContext(4, backend="parallel", workers=4)
    # A single-stage job forks for its one stage, as it always did.
    assert sc.parallelize(list(range(6)), 2).map(abs).collect() == list(range(6))
    assert len(process_starts) == 2
    # A job of single-task stages runs in the driver and forks nothing.
    single = sc.parallelize([(i % 3, i) for i in range(9)], 1)
    assert sorted(single.reduceByKey(lambda a, b: a + b, 1).collect()) == [
        (0, 9), (1, 12), (2, 15)
    ]
    assert len(process_starts) == 2
    # A job wider than the pool forks one as wide as it; a narrower job
    # after it runs on that one.
    narrow = set(process_starts)
    assert sc.parallelize(list(range(8)), 4).map(abs).collect() == list(range(8))
    assert len(process_starts) == 6
    assert not narrow & live_children()
    assert sc.parallelize(list(range(6)), 2).map(abs).collect() == list(range(6))
    assert len(process_starts) == 6


def live_children():
    """Pids of this process's live children."""
    return {child.pid for child in multiprocessing.active_children()}


def assert_nothing_left_behind(pids):
    """None of *pids* alive, and the caller's ``gc.freeze`` count (none)."""
    assert not set(pids) & live_children()
    assert gc.get_freeze_count() == 0


@needs_fork
@pytest.mark.parametrize("failure", ["task error", "deadline", "killed worker"])
def test_a_failed_job_leaves_no_worker_and_the_context_usable(
    failure, process_starts
):
    """After a job that raised, the pool is gone -- also the workers that
    were blocked sending results nobody will read (each task's output is
    larger than a pipe buffer) -- and the context's next job forks a
    fresh one and is the oracle's, bytes and counters."""
    sc = SparkContext(4, backend="parallel", workers=2)
    driver = os.getpid()

    def bulky(x):
        if failure == "task error" and x == 0:
            raise ValueError("first task fails")
        if failure == "killed worker" and x == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return "x" * 400000

    raised = {
        "task error": ValueError,
        "deadline": DeadlineExceededError,
        "killed worker": WorkerCrashError,
    }[failure]
    # A pool that served a job before the failed one goes with it too.
    assert sc.parallelize(list(range(4)), 4).map(abs).collect() == list(range(4))
    if failure == "deadline":
        sc.set_deadline(1)
    with pytest.raises(raised):
        sc.parallelize(list(range(8)), 8).map(bulky).collect()
    assert os.getpid() == driver
    assert process_starts and len(process_starts) == 2
    assert_nothing_left_behind(process_starts)
    sc.set_deadline(None)

    def next_job(ctx):
        pairs = ctx.parallelize([(i % 4, i) for i in range(32)], 4)
        summed = pairs.reduceByKey(lambda a, b: a + b)
        return summed.map(lambda kv: (kv[0], str(kv[1]))).collect()

    before = sc.metrics.snapshot()
    answer = next_job(sc)
    serial = SparkContext(4)
    assert repr(answer) == repr(next_job(serial))
    assert dict(sc.metrics.snapshot() - before) == dict(serial.metrics.snapshot())
    assert len(process_starts) == 4
    fresh = process_starts[2:]
    assert set(fresh) <= live_children()
    del sc
    gc.collect()
    assert_nothing_left_behind(fresh)


@needs_fork
def test_a_task_that_never_returns_is_a_worker_crash(monkeypatch, process_starts):
    """Liveness polling sees dead workers only; silence from every live
    one is counted in polls and, past the limit, ends the job."""
    monkeypatch.setattr(parallel_module, "_STALL_POLLS", 2)
    sc = SparkContext(4, backend="parallel", workers=2)

    def spin(x):
        while True:
            pass

    with pytest.raises(WorkerCrashError, match="no parallel worker reported"):
        sc.parallelize(list(range(8)), 4).map(spin).collect()
    assert_nothing_left_behind(process_starts)
    assert sc.parallelize(list(range(8)), 4).map(abs).collect() == list(range(8))
    assert len(process_starts) == 4


@needs_fork
def test_an_idle_worker_killed_between_jobs_is_replaced(process_starts):
    def job(ctx):
        pairs = ctx.parallelize([(i % 5, "v%d" % i) for i in range(40)], 4)
        return pairs.reduceByKey(lambda a, b: a + b).collect()

    serial = SparkContext(4)
    expected = [repr(job(serial)).encode() for _ in range(2)]
    sc = SparkContext(4, backend="parallel", workers=2)
    got = [repr(job(sc)).encode()]
    first = list(process_starts)
    os.kill(first[0], signal.SIGKILL)
    while first[0] in live_children():
        time.sleep(0.01)
    got.append(repr(job(sc)).encode())
    assert got == expected
    assert dict(sc.metrics.snapshot()) == dict(serial.metrics.snapshot())
    assert len(process_starts) == 4
    assert_nothing_left_behind(first)
    assert set(process_starts[2:]) <= live_children()


@needs_fork
def test_no_worker_outlives_its_collected_context(process_starts):
    sc = SparkContext(4, backend="parallel", workers=2)
    assert sc.parallelize(list(range(8)), 4).map(abs).collect() == list(range(8))
    assert set(process_starts) <= live_children()
    del sc
    gc.collect()
    assert_nothing_left_behind(process_starts)


@needs_fork
def test_a_job_that_does_not_pickle_runs_on_a_fresh_fork(process_starts):
    """A later job is pickled for the pool; one whose closure captures
    what pickle refuses (a lock) is inherited by a new fork instead, as
    every job was before pools lived on."""
    lock = threading.Lock()

    def job(ctx):
        return ctx.parallelize(list(range(8)), 4).map(lambda x: (x, lock.locked())).collect()

    serial = SparkContext(4)
    sc = SparkContext(4, backend="parallel", workers=2)
    for _ in range(2):
        assert job(sc) == job(serial)
    assert len(process_starts) == 4
    assert_nothing_left_behind(process_starts[:2])
    assert set(process_starts[2:]) <= live_children()


SCRIPT_THAT_CHANGES_BETWEEN_JOBS = """
import sys
from multiprocessing.process import BaseProcess
from repro.spark.context import SparkContext

starts = []
start = BaseProcess.start

def counting_start(self):
    start(self)
    starts.append(self.pid)

BaseProcess.start = counting_start
sc = SparkContext(4, backend=sys.argv[1], workers=2)
k = 1
print(sc.parallelize(range(8), 4).map(lambda x: x * k).collect())
k = 10
print(sc.parallelize(range(8), 4).map(lambda x: x * k).collect())

def scaled(x):
    return x * k + offset

offset = 3
print(sc.parallelize(range(8), 4).map(scaled).collect())
print(len(starts), file=sys.stderr)

class Box:
    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Box(%d)" % self.value

print(sc.parallelize(range(8), 4).map(Box).collect())
print(len(starts), file=sys.stderr)
"""


@needs_fork
def test_a_script_that_changes_between_jobs_reads_as_the_oracle():
    """A script's functions and the globals they read go by value with
    each job: a global rebound and a function defined after the fork are
    the driver's, not the fork's.  A class defined after the fork cannot
    be loaded by the pool's workers; the job runs on a fresh fork."""
    runs = {
        backend: subprocess.run(
            [sys.executable, "-c", SCRIPT_THAT_CHANGES_BETWEEN_JOBS, backend],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True,
            timeout=60,
        )
        for backend in ("inprocess", "parallel")
    }
    assert runs["inprocess"].returncode == 0, runs["inprocess"].stderr
    assert runs["parallel"].returncode == 0, runs["parallel"].stderr
    assert runs["parallel"].stdout == runs["inprocess"].stdout
    assert b"[0, 10, 20," in runs["inprocess"].stdout
    assert runs["parallel"].stderr.split() == [b"2", b"4"]


# ----------------------------------------------------------------------
# What a later stage is sent instead of inheriting
# ----------------------------------------------------------------------


def cached_and_read_by_another_worker(sc):
    """A cached RDD whose partitions are computed in one stage and read
    again in the next two, behind a one-partition ``union`` that shifts
    them to tasks of other indices -- so to the other worker of a pool
    of two."""
    base = (
        sc.parallelize([(i % 5, i) for i in range(40)], 4)
        .map(lambda kv: (kv[0], kv[1] + 1))
        .cache()
    )
    spread = base.partitionBy(HashPartitioner(4))
    folded = sc.emptyRDD().union(base).partitionBy(HashPartitioner(3))
    return base, spread.union(folded).union(base)


@needs_fork
def test_a_fault_rule_fired_in_one_stage_is_spent_in_the_next():
    """``times=N`` budgets and seeded loss draws are scheduler state a
    worker used to inherit with each fork: the rule that fired twice in
    the first stage must read as exhausted when a lost partition is
    rebuilt by another worker, and a loss draw must continue the count."""

    def job(sc):
        base, result = cached_and_read_by_another_worker(sc)
        sc.faults.add_rule(FaultRule("fail", stage=base.id, partition=1, times=2))
        return result.collect()

    serial, forked = oracle_and_pool(job, faults="lose:p=0.6;seed=5")
    assert serial.metrics.get("tasks_failed") == 2
    assert serial.metrics.get("partitions_recomputed") > 2
    assert _fault_state(forked.faults) == _fault_state(serial.faults)


@needs_fork
def test_a_fault_rule_added_between_jobs_fires_in_the_pool():
    def job(sc):
        pairs = sc.parallelize([(i % 5, i) for i in range(40)], 4)
        shifted = pairs.map(lambda kv: (kv[0], kv[1] + 1))
        answers = [shifted.count()]
        sc.faults.add_rule(FaultRule("fail", stage=shifted.id, partition=1, times=2))
        answers.append(shifted.reduceByKey(lambda a, b: a + b).collect())
        return answers

    serial, forked = oracle_and_pool(job, faults="lose:p=0.6;seed=5")
    assert serial.metrics.get("tasks_failed") == 2
    assert _fault_state(forked.faults) == _fault_state(serial.faults)


@needs_fork
def test_a_partition_cached_by_one_worker_is_read_by_another():
    serial, forked = oracle_and_pool(
        lambda sc: cached_and_read_by_another_worker(sc)[1].collect()
    )
    # Nothing was computed twice: four scans, four cached partitions,
    # eight reads of them that were not tasks.
    assert forked.metrics.get("tasks") == serial.metrics.get("tasks")


@needs_fork
def test_a_driver_run_stage_that_caches_between_two_forked_ones():
    def job(sc):
        pairs = sc.parallelize([(i % 7, i) for i in range(60)], 4)
        summed = pairs.reduceByKey(lambda a, b: a + b, 4)
        single = summed.partitionBy(HashPartitioner(1)).cache()
        regrouped = single.map(lambda kv: (kv[1] % 3, kv[0])).partitionBy(
            HashPartitioner(2)
        )
        return regrouped.union(single).collect()

    serial, forked = oracle_and_pool(job)
    assert forked.metrics.get("tasks") == serial.metrics.get("tasks")


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_aggregated_shuffles_feed_a_second_shuffle_in_the_same_job(workers):
    def job(sc):
        pairs = sc.parallelize([(i % 6, i % 4) for i in range(48)], 4)
        summed = pairs.reduceByKey(lambda a, b: a + b)
        unique = summed.map(lambda kv: kv[1] % 5).distinct()
        return unique.map(lambda x: (x % 2, x)).reduceByKey(max).collect()

    oracle_and_pool(job, workers=workers)


@needs_fork
def test_a_later_job_finds_what_the_driver_did_between_jobs():
    """A pool outlives its first job: what the driver did since to RDDs
    the workers already hold -- a cache requested after the fork, a
    shuffle resolved by the driver alone -- reaches them
    with the next job, as a fresh fork would have found it."""

    def job(sc):
        pairs = sc.parallelize([(i % 5, i) for i in range(40)], 4)
        summed = pairs.reduceByKey(lambda a, b: a + b, 4)
        doubled = summed.map(lambda kv: (kv[0], 2 * kv[1]))
        single = sc.parallelize([(i % 3, i) for i in range(9)], 1).partitionBy(
            HashPartitioner(1)
        )
        answers = [doubled.collect()]
        doubled.cache()
        answers.append(doubled.map(lambda kv: kv).collect())
        answers.append(doubled.count())
        answers.append(doubled.keys().collect())
        answers.append(single.collect())
        answers.append(single.union(doubled).collect())
        return answers

    oracle_and_pool(job)


DRIVER_THAT_DIES_BETWEEN_STAGES = """
import os, signal, sys
from repro.spark.context import SparkContext

driver = os.getpid()

def note_pid(part):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    return part

def die_in_the_driver(a, b):
    # The reduce-side combine runs in the driver, between two stages:
    # every worker is idle, waiting for its next command.
    if os.getpid() == driver:
        os.kill(driver, signal.SIGKILL)
    return a + b

sc = SparkContext(4, backend="parallel", workers=2)
pairs = sc.parallelize([(i % 3, i) for i in range(24)], 4).mapPartitions(note_pid)
pairs.reduceByKey(die_in_the_driver).map(lambda kv: kv).collect()
"""


DRIVER_THAT_DIES_BETWEEN_JOBS = """
import os, signal, sys
from repro.spark.context import SparkContext

def note_pid(part):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    return part

# Two contexts, each with an idle pool: the second pool's workers were
# forked holding copies of the first pool's pipe ends.
contexts = [SparkContext(4, backend="parallel", workers=2) for _ in range(2)]
for sc in contexts:
    sc.parallelize(list(range(8)), 4).mapPartitions(note_pid).collect()
os.kill(os.getpid(), signal.SIGKILL)
"""


def running(pid):
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def assert_workers_of_a_killed_driver_exit(script, tmp_path, count):
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        timeout=60,
    )
    assert proc.returncode == -signal.SIGKILL
    workers = [int(name) for name in os.listdir(str(tmp_path))]
    assert len(workers) == count
    try:
        for _ in range(100):
            if not any(map(running, workers)):
                break
            time.sleep(0.1)
        assert not any(map(running, workers))
    finally:
        for pid in filter(running, workers):
            os.kill(pid, signal.SIGKILL)


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_of_a_driver_that_died_do_not_wait_for_it(tmp_path):
    """A worker holds forked copies of the driver's pipe ends; it closes
    them, so a driver killed while its workers sit idle reads as
    end-of-file and they exit instead of waiting for ever."""
    assert_workers_of_a_killed_driver_exit(
        DRIVER_THAT_DIES_BETWEEN_STAGES, tmp_path, 2
    )


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_driver_killed_while_two_contexts_hold_idle_pools_leaves_no_worker(
    tmp_path,
):
    assert_workers_of_a_killed_driver_exit(
        DRIVER_THAT_DIES_BETWEEN_JOBS, tmp_path, 4
    )
