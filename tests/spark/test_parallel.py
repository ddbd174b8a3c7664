"""Unit tests for the parallel executor backend (repro.spark.parallel).

The differential suites prove end-to-end byte-identity; this file pins
the individual mechanisms that identity rests on: backend construction
and validation, genuinely out-of-driver execution, the deterministic
merge protocol (metrics, accumulators), typed error shipping across the
process boundary, deadline aborts, and cache installation.
"""

import gc
import os
import pickle

import pytest

from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.spark.deadline import DeadlineExceededError
from repro.spark.faults import TaskFailedError
from repro.spark.metrics import MetricsCollector
from repro.spark.parallel import (
    BackendConfigError,
    InProcessBackend,
    ParallelBackend,
    build_backend,
    parallel_available,
)
from repro.spark.row import Row

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
    sc = SparkContext(default_parallelism=4, backend="parallel", workers=2)
    assert gc.get_freeze_count() == 0
    frozen = sc.parallelize(list(range(8)), 4).map(
        lambda _: (os.getpid(), gc.get_freeze_count())
    )
    seen = frozen.collect()
    assert all(pid != os.getpid() and count > 0 for pid, count in seen)
    assert gc.get_freeze_count() == 0

    def boom(x):
        if gc.get_freeze_count() > 0:
            raise ValueError("raised under a frozen heap")
        return x

    with pytest.raises(ValueError, match="under a frozen heap"):
        sc.parallelize(list(range(8)), 4).map(boom).collect()
    assert gc.get_freeze_count() == 0
    # Shuffle map stages fork too.
    counts = sc.parallelize([(i % 3, i) for i in range(12)], 4).groupByKey()
    assert sorted(counts.mapValues(len).collect()) == [(0, 4), (1, 4), (2, 4)]
    assert gc.get_freeze_count() == 0
    # A caller that froze its own heap first (a pre-fork server) keeps
    # it: the process-wide freeze does not nest, so the bracket stands
    # aside -- also when a task raises.  (The count only falls as frozen
    # objects are freed; nothing is added to it and it never reaches 0.)
    gc.freeze()
    try:
        held = gc.get_freeze_count()
        seen = frozen.collect()
        assert all(0 < count <= held for _, count in seen)
        assert 0 < gc.get_freeze_count() <= held
        with pytest.raises(ValueError, match="under a frozen heap"):
            sc.parallelize(list(range(8)), 4).map(boom).collect()
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
    assert copy.a == 1 and copy["b"] == "x"


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
