"""Executor backends: serial in-process oracle vs. multi-process parallel.

The mini-Spark in :mod:`repro.spark.rdd` evaluates partition-parallel
stages with a plain Python loop -- perfect for determinism, useless for
wall-clock speed.  This module makes the loop pluggable.  Every
:class:`~repro.spark.context.SparkContext` owns an *executor backend*
with one entry point, ``materialize(rdd)``, and two implementations:

:class:`InProcessBackend`
    The original serial loop, byte-for-byte.  It stays the **oracle**:
    the differential suites compare every engine's canonical output and
    metrics under the parallel backend against this one.

:class:`ParallelBackend`
    Runs partition tasks on forked worker processes (``fork`` start
    method, so RDD lineage and closures are inherited copy-on-write and
    never pickled).  Execution is staged like real Spark:

    1. **Shuffle map stages.**  Pending :class:`~repro.spark.rdd.ShuffledRDD`
       barriers in the lineage are resolved deepest-first.  Each map
       task computes the bucket *fragments* of one parent partition
       (scan -> combine -> route, the same per-partition pipeline the
       serial shuffle runs) and streams them to the driver over a pipe.
    2. **Final stage.**  The target RDD's partitions are computed by the
       pool and streamed back the same way.

    The driver is the reduce end of the queue pipeline: it merges task
    messages **in ascending task order regardless of arrival order**, so
    bucket contents, metric counters, accumulators, fault-scheduler
    state and cache installs are identical no matter how the workers
    interleave.  That ordering discipline -- not luck -- is what makes
    the canonical wire output byte-identical to the oracle.

Determinism contract (see ``docs/PARALLEL.md`` for the full statement):

* Canonical results are byte-identical to the in-process backend for
  every engine; driver-side merged metrics are invariant to the worker
  count for shuffle/scan/join work without cross-task cache reuse.
* Traces still satisfy conservation (per-span ``self_metrics`` sum to
  the flat totals).  Two fields are concurrency-nondeterministic and
  normalized before comparison: span ``seq`` numbers and the order of
  sibling spans merged from different tasks
  (:func:`repro.spark.tracing.normalize_spans`).
* Deadlines are driver-authoritative: workers run with the deadline
  disarmed and the driver polls after each merged task, so the abort
  point is deterministic; the overshoot bound grows from one task's
  charges to one task *subtree*'s charges.

Known, documented divergences from the oracle (results stay identical;
only cost accounting differs): cross-task reuse of a partition cached
*during* the same stage (e.g. a cached cartesian build side) is
per-worker rather than global, and untargeted ``times=N`` fault rules
fire in task order, which is interleaving-dependent under concurrency.
"""

from __future__ import annotations

import gc
import os
import pickle
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.spark import accumulator as accumulator_module
from repro.spark.rdd import RDD, ShuffledRDD
from repro.spark.tracing import Span

#: Backend names accepted by every ``backend=`` knob.
BACKEND_NAMES = ("inprocess", "parallel")

#: Default worker-pool size when ``workers`` is not given.  Two keeps the
#: default deterministic across machines (results never depend on the
#: worker count anyway; this only caps default concurrency).
DEFAULT_WORKERS = 2

#: Seconds between liveness checks while waiting on worker pipes.
_POLL_INTERVAL = 0.25

#: Process-wide flag: true inside a forked worker.  Any nested
#: materialization in a worker falls back to the serial loop -- the
#: oracle semantics are always safe.
_WORKER_STATE = {"active": False}


class BackendConfigError(ValueError):
    """A ``backend=``/``workers=`` knob combination is unusable."""


class WorkerCrashError(RuntimeError):
    """A parallel worker process died without completing its protocol."""


def parallel_available() -> bool:
    """Whether this platform can run the parallel backend (needs ``fork``)."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def build_backend(backend: str, workers: Optional[int]):
    """Construct an executor backend from the shared knob pair."""
    if backend == "inprocess":
        return InProcessBackend()
    if backend == "parallel":
        return ParallelBackend(workers)
    raise BackendConfigError(
        "unknown executor backend %r (expected one of %s)"
        % (backend, ", ".join(BACKEND_NAMES))
    )


def _serial_materialize(rdd: RDD) -> List[List[Any]]:
    """The oracle loop: evaluate every partition in index order."""
    return [rdd._iterate(i) for i in range(rdd.num_partitions)]


def _maybe_verify(rdd: RDD) -> None:
    """Opt-in closure verification at job submission.

    When the context was built with ``verify_closures=True``, every
    closure in the lineage is checked against the worker-boundary
    rules (CL000..CL007) before any partition computes; a violating
    closure raises :exc:`repro.analysis.closures.ClosureAnalysisError`
    instead of silently diverging between backends.  Never runs inside
    a worker (the driver already cleared the lineage), and already-
    verified code objects are memoized on the context.
    """
    if _WORKER_STATE["active"]:
        return
    if not getattr(rdd.ctx, "verify_closures", False):
        return
    # Imported lazily: repro.analysis pulls in the optimizer/sparql
    # stack, which must not load during repro.spark's own import.
    from repro.analysis.closures import verify_rdd

    verify_rdd(rdd)


class InProcessBackend:
    """The serial, single-process oracle backend."""

    name = "inprocess"
    workers = 1

    def materialize(self, rdd: RDD) -> List[List[Any]]:
        _maybe_verify(rdd)
        return _serial_materialize(rdd)

    def __repr__(self) -> str:
        return "InProcessBackend()"


# ----------------------------------------------------------------------
# Lineage inspection
# ----------------------------------------------------------------------


def lineage(rdd: RDD) -> List[RDD]:
    """Every distinct RDD reachable from *rdd*, parents before children.

    Narrow and wide dependencies are both followed (``parent`` /
    ``left`` / ``right`` attributes cover every RDD kind in
    :mod:`repro.spark.rdd`); shared sub-lineages are visited once.
    """
    seen: Dict[int, RDD] = {}
    order: List[RDD] = []
    stack: List[Tuple[RDD, bool]] = [(rdd, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.append((node, True))
        for attr in ("right", "left", "parent"):
            child = getattr(node, attr, None)
            if isinstance(child, RDD) and id(child) not in seen:
                stack.append((child, False))
    return order


def pending_shuffles(nodes: List[RDD]) -> List[ShuffledRDD]:
    """Unresolved shuffle barriers in *nodes*, deepest first."""
    return [
        node
        for node in nodes
        if isinstance(node, ShuffledRDD) and node._buckets is None
    ]


# ----------------------------------------------------------------------
# Worker-side protocol helpers
# ----------------------------------------------------------------------


def _encode_error(exc: BaseException):
    """A picklable description of a worker-task exception.

    Typed substrate errors round-trip exactly (they define
    ``__reduce__``); anything else falls back to an opaque summary that
    the driver re-raises as :class:`WorkerCrashError`.
    """
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)  # some exceptions pickle but cannot unpickle
        return ("pickled", blob)
    except Exception:
        return (
            "opaque",
            (type(exc).__name__, str(exc), traceback.format_exc()),
        )


def _decode_error(spec) -> BaseException:
    form, payload = spec
    if form == "pickled":
        return pickle.loads(payload)
    name, message, trace = payload
    return WorkerCrashError(
        "worker task raised %s: %s\n%s" % (name, message, trace)
    )


def _fault_state(faults):
    """Copy of the mutable scheduler state, for delta computation."""
    if faults is None:
        return None
    return (
        [rule.fired for rule in faults.rules],
        dict(faults._loss_draws),
        dict(faults._losses_fired),
    )


def _fault_delta(faults, base):
    """What this worker's tasks added to the scheduler state."""
    if faults is None or base is None:
        return None
    fired = [rule.fired - before for rule, before in zip(faults.rules, base[0])]
    draws = {
        key: count - base[1].get(key, 0)
        for key, count in faults._loss_draws.items()
        if count - base[1].get(key, 0)
    }
    losses = {
        key: count - base[2].get(key, 0)
        for key, count in faults._losses_fired.items()
        if count - base[2].get(key, 0)
    }
    return (fired, sorted(draws.items()), sorted(losses.items()))


def merge_fault_delta(faults, delta) -> None:
    """Fold one worker's scheduler-state delta into the driver scheduler."""
    if faults is None or delta is None:
        return
    fired, draws, losses = delta
    for rule, increment in zip(faults.rules, fired):
        rule.fired += increment
    for key, count in draws:
        faults._loss_draws[key] = faults._loss_draws.get(key, 0) + count
    for key, count in losses:
        faults._losses_fired[key] = faults._losses_fired.get(key, 0) + count


def _cache_bases(nodes: List[RDD]) -> Dict[int, frozenset]:
    """Which partitions of each lineage RDD were cached before the fork."""
    return {
        node.id: frozenset(node._cached or ())
        for node in nodes
    }


def _cache_delta(nodes: List[RDD], bases: Dict[int, frozenset]):
    """Partitions this worker cached that the driver does not have yet."""
    out = []
    for node in nodes:
        if node._cached is None:
            continue
        base = bases.get(node.id, frozenset())
        fresh = sorted(
            (index, data)
            for index, data in node._cached.items()
            if index not in base
        )
        if fresh:
            out.append((node.id, fresh))
    return out


def merge_cache_delta(nodes: List[RDD], delta) -> None:
    """Install worker-cached partitions on the driver's RDD objects.

    ``setdefault`` keeps the first installed copy; partition data is a
    deterministic function of the pre-fork state, so any worker's copy
    is identical.
    """
    by_id = {node.id: node for node in nodes}
    for rdd_id, items in delta:
        node = by_id.get(rdd_id)
        if node is None:
            continue
        if node._cached is None:
            node._cached = {}
        for index, data in items:
            node._cached.setdefault(index, data)


def _worker_main(worker_id, task_indices, ctx, nodes, run_one, conn):
    """Body of one forked worker: run assigned tasks, stream results.

    Everything the driver must merge rides in per-task messages:
    partition data, the marginal metrics delta, completed trace spans,
    and the accumulator journal.  Scheduler-state and cache deltas are
    batched into the final ``done`` message (they are commutative /
    idempotent, unlike the per-task streams).
    """
    try:
        _WORKER_STATE["active"] = True
        # The driver is the only deadline authority under this backend.
        ctx.deadline = None
        tracer = ctx.tracer
        faults = ctx.faults
        fault_base = _fault_state(faults)
        cache_base = _cache_bases(nodes)
        journal: List[Tuple[int, Any]] = []
        accumulator_module._WORKER_JOURNAL = journal
        for index in task_indices:
            if tracer.enabled:
                # Worker spans root at task level; the driver reattaches
                # them under its currently open span and renumbers seq.
                tracer.roots = []
                tracer._stack = []
            del journal[:]
            before = ctx.metrics.snapshot()
            data = None
            error = None
            try:
                data = run_one(index)
            except Exception as exc:  # shipped to the driver, re-raised there
                error = _encode_error(exc)
            delta = ctx.metrics.snapshot() - before
            payload = {
                "data": data,
                "metrics": [(name, value) for name, value in delta if value],
                "spans": (
                    [span.to_dict() for span in tracer.roots]
                    if tracer.enabled
                    else []
                ),
                "accums": list(journal),
                "error": error,
            }
            conn.send(("task", index, payload))
            if error is not None:
                # Mirror the serial loop: no work past a failed task.
                break
        conn.send(
            (
                "done",
                worker_id,
                _cache_delta(nodes, cache_base),
                _fault_delta(faults, fault_base),
            )
        )
    except BaseException:
        try:
            conn.send(("fatal", worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        # Skip atexit/teardown inherited from the forked driver image.
        os._exit(0)


# ----------------------------------------------------------------------
# The parallel backend
# ----------------------------------------------------------------------


class ParallelBackend:
    """Multi-process executor: forked workers, deterministic driver merge."""

    name = "parallel"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = DEFAULT_WORKERS
        if workers < 1:
            raise BackendConfigError(
                "workers must be >= 1, got %d" % workers
            )
        if not parallel_available():
            raise BackendConfigError(
                "the parallel backend needs the 'fork' start method, "
                "which this platform does not provide"
            )
        self.workers = workers
        self._in_flight = False

    def __repr__(self) -> str:
        return "ParallelBackend(workers=%d)" % self.workers

    # -- entry point ----------------------------------------------------

    def materialize(self, rdd: RDD) -> List[List[Any]]:
        _maybe_verify(rdd)
        if _WORKER_STATE["active"] or self._in_flight:
            # Nested materialization (inside a worker task or a stage
            # already being driven) always takes the oracle path.
            return _serial_materialize(rdd)
        self._in_flight = True
        try:
            nodes = lineage(rdd)
            for shuffled in pending_shuffles(nodes):
                self._resolve_shuffle(shuffled, nodes)
            if isinstance(rdd, ShuffledRDD):
                # Buckets are resolved; reading them is trivial driver
                # work and keeps the task charges on the oracle path.
                return _serial_materialize(rdd)
            return self._final_stage(rdd, nodes)
        finally:
            self._in_flight = False

    # -- stages ---------------------------------------------------------

    def _resolve_shuffle(self, shuffled: ShuffledRDD, nodes: List[RDD]) -> None:
        """Resolve one shuffle barrier with a parallel map stage.

        Mirrors ``ShuffledRDD._ensure_shuffled`` exactly: same span, same
        bucket construction order, same single ``record_shuffle`` charge.
        """
        ctx = shuffled.ctx
        if ctx.tracer.enabled:
            with ctx.tracer.span(
                "shuffle",
                name="rdd%d" % shuffled.id,
                partitions=shuffled.partitioner.num_partitions,
                aggregated=shuffled.aggregator is not None,
            ) as span:
                buckets = self._shuffle_buckets(shuffled, nodes, span)
        else:
            buckets = self._shuffle_buckets(shuffled, nodes, None)
        shuffled._buckets = buckets

    def _shuffle_buckets(
        self, shuffled: ShuffledRDD, nodes: List[RDD], span
    ) -> List[List[Any]]:
        num_out = shuffled.partitioner.num_partitions
        buckets: List[List[Any]] = [[] for _ in range(num_out)]
        records = remote = nbytes = 0
        fragments = self._run_stage(
            shuffled.ctx,
            nodes,
            shuffled._map_fragments,
            shuffled.parent.num_partitions,
        )
        # Ascending map-index concatenation reproduces the serial bucket
        # order byte-for-byte.
        for task_fragments, task_records, task_remote, task_bytes in fragments:
            for reduce_index, fragment in enumerate(task_fragments):
                buckets[reduce_index].extend(fragment)
            records += task_records
            remote += task_remote
            nbytes += task_bytes
        shuffled._finish_shuffle(buckets, records, remote, nbytes, span)
        return buckets

    def _final_stage(self, rdd: RDD, nodes: List[RDD]) -> List[List[Any]]:
        results = self._run_stage(rdd.ctx, nodes, rdd._iterate, rdd.num_partitions)
        if rdd._cache_requested:
            if rdd._cached is None:
                rdd._cached = {}
            for index, data in enumerate(results):
                rdd._cached.setdefault(index, data)
        return results

    # -- the stage engine -----------------------------------------------

    def _run_stage(
        self,
        ctx,
        nodes: List[RDD],
        run_one: Callable[[int], Any],
        num_tasks: int,
    ) -> List[Any]:
        """Run tasks ``0..num_tasks-1`` on the pool; merge in task order.

        A single-task stage runs on the driver directly -- that is the
        oracle path, so it is always semantically safe and skips a
        pointless fork.
        """
        if num_tasks <= 0:
            return []
        ctx.check_deadline()
        if num_tasks == 1:
            return [run_one(0)]
        # Loaded by the first forked stage, in the driver: an in-process
        # run never needs them.
        import multiprocessing
        from multiprocessing import connection as mp_connection

        workers = min(self.workers, num_tasks)
        if workers == 1 and self.workers == 1:
            # One worker still forks: the workers=1 configuration is the
            # honest single-worker baseline of the parallel backend.
            pass
        assigned = [list(range(w, num_tasks, workers)) for w in range(workers)]
        mp_ctx = multiprocessing.get_context("fork")
        conns = []
        procs = []
        # Workers are forked with the driver's heap frozen: a worker's
        # collections then pass over what it inherited instead of walking
        # it -- and, by touching every object header, copying its pages.
        # ``gc.freeze`` is process-wide and does not nest, so a caller
        # that already holds a frozen heap (a pre-fork server) keeps it
        # exactly as it was: no freeze here, and above all no unfreeze.
        ours = gc.get_freeze_count() == 0
        if ours:
            gc.freeze()
        try:
            for worker_id in range(workers):
                recv_end, send_end = mp_ctx.Pipe(duplex=False)
                proc = mp_ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        assigned[worker_id],
                        ctx,
                        nodes,
                        run_one,
                        send_end,
                    ),
                )
                proc.daemon = True
                proc.start()
                send_end.close()
                conns.append(recv_end)
                procs.append(proc)
        finally:
            if ours:
                gc.unfreeze()
        results: List[Any] = [None] * num_tasks
        buffered: Dict[int, Dict[str, Any]] = {}
        done_msgs: Dict[int, Tuple[Any, Any]] = {}
        next_merge = 0
        try:
            live = list(conns)
            finished = set()
            while live:
                ready = mp_connection.wait(live, timeout=_POLL_INTERVAL)
                if not ready:
                    self._check_liveness(procs, conns, live, finished)
                    continue
                for conn in ready:
                    try:
                        message = conn.recv()
                    except EOFError:
                        live.remove(conn)
                        worker_id = conns.index(conn)
                        if worker_id not in finished:
                            raise WorkerCrashError(
                                "parallel worker %d exited before "
                                "completing its tasks (exit code %s)"
                                % (worker_id, procs[worker_id].exitcode)
                            )
                        continue
                    kind = message[0]
                    if kind == "task":
                        _, index, payload = message
                        buffered[index] = payload
                        next_merge = self._merge_ready(
                            ctx, results, buffered, next_merge
                        )
                    elif kind == "done":
                        _, worker_id, cache_delta, fault_delta = message
                        finished.add(worker_id)
                        done_msgs[worker_id] = (cache_delta, fault_delta)
                    else:  # fatal
                        _, worker_id, trace = message
                        raise WorkerCrashError(
                            "parallel worker %d crashed:\n%s" % (worker_id, trace)
                        )
            if next_merge != num_tasks:
                raise WorkerCrashError(
                    "parallel stage lost tasks: merged %d of %d"
                    % (next_merge, num_tasks)
                )
            # Batched, commutative state: merged only on full success, in
            # worker-id order for determinism.
            for worker_id in sorted(done_msgs):
                cache_delta, fault_delta = done_msgs[worker_id]
                merge_cache_delta(nodes, cache_delta)
                merge_fault_delta(ctx.faults, fault_delta)
            return results
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=2.0)
            for conn in conns:
                try:
                    conn.close()
                except Exception:
                    pass

    def _merge_ready(self, ctx, results, buffered, next_merge) -> int:
        """Merge buffered payloads while the next task index is present.

        This is the determinism keystone: metric deltas, spans,
        accumulator journals, errors and deadline polls are applied in
        ascending task order no matter which worker finished first.
        """
        while next_merge in buffered:
            payload = buffered.pop(next_merge)
            ctx.metrics.merge_delta(payload["metrics"])
            if ctx.tracer.enabled and payload["spans"]:
                self._attach_spans(ctx.tracer, payload["spans"])
            for uid, amount in payload["accums"]:
                accumulator = ctx._accumulators.get(uid)
                if accumulator is not None:
                    accumulator.add(amount)
            if payload["error"] is not None:
                raise _decode_error(payload["error"])
            results[next_merge] = payload["data"]
            next_merge += 1
            # The driver poll mirrors the serial per-task kill point:
            # checking after merging task i equals the oracle's check on
            # entry to task i+1.
            ctx.check_deadline()
        return next_merge

    def _attach_spans(self, tracer, span_dicts) -> None:
        """Reattach worker spans under the driver's open span.

        ``seq`` is renumbered from the driver's counter in depth-first
        order -- one of the two documented concurrency-normalized trace
        fields (the other is sibling order across tasks).
        """
        parent = tracer.current
        for data in span_dicts:
            span = Span.from_dict(data)
            for node in span.walk():
                node.seq = tracer._seq
                tracer._seq += 1
            if parent is not None:
                parent.children.append(span)
            else:
                tracer.roots.append(span)

    def _check_liveness(self, procs, conns, live, finished) -> None:
        """Detect workers that died without closing their pipe cleanly."""
        for worker_id, proc in enumerate(procs):
            if (
                conns[worker_id] in live
                and worker_id not in finished
                and not proc.is_alive()
                and proc.exitcode not in (0, None)
            ):
                raise WorkerCrashError(
                    "parallel worker %d died (exit code %s)"
                    % (worker_id, proc.exitcode)
                )
