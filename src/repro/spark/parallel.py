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
    method).  A context forks its pool once, at its first stage with
    more than one task, and keeps it for its life: the workers inherit
    everything that existed then copy-on-write, and each later job sends
    them its new lineage, pickled by :class:`_JobPickler` (what they
    already hold is named, the rest goes by value, functions included),
    with the driver state a fresh fork would have found.  Each stage is
    a command to the same workers, carrying what a worker forked after
    the previous stage would have inherited.  Execution is staged like
    real Spark:

    1. **Shuffle map stages.**  Pending :class:`~repro.spark.rdd.ShuffledRDD`
       barriers in the lineage are resolved deepest-first.  Each map
       task computes the bucket *fragments* of one parent partition
       (scan -> combine -> route, the same per-partition pipeline the
       serial shuffle runs) and streams them to the driver over a pipe,
       pickled per reduce partition.  The driver routes those blocks to
       the workers as the bytes they are
       (:class:`~repro.spark.rdd.ShuffleBlocks`); the reduce task that
       reads a partition decodes it.  A fragment for a partition the
       map task's own worker reads (:func:`aligned_shuffles`) stays in
       that worker, unpickled, until a later reader fetches it.
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
per-worker rather than global, untargeted ``times=N`` fault rules
fire in task order, which is interleaving-dependent under concurrency,
and a shuffle whose kept fragments went with a lost pool runs again.
"""

from __future__ import annotations

import builtins
import gc
import importlib
import io
import marshal
import os
import sys
import traceback
import types
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.spark import accumulator as accumulator_module
from repro.rdf.terms import Term
from repro.spark.rdd import (
    RDD,
    CoGroupedRDD,
    MapPartitionsRDD,
    ParallelCollectionRDD,
    PrePartitionedRDD,
    ShuffleBlocks,
    ShuffledRDD,
    TermPickler,
    TermTable,
)
from repro.spark.tracing import Span

#: Backend names accepted by every ``backend=`` knob.
BACKEND_NAMES = ("inprocess", "parallel")

#: Default worker-pool size when ``workers`` is not given.  Two keeps the
#: default deterministic across machines (results never depend on the
#: worker count anyway; this only caps default concurrency).
DEFAULT_WORKERS = 2

#: Seconds between liveness checks while waiting on worker pipes.
_POLL_INTERVAL = 0.25

#: Consecutive polls in which no worker of a stage said anything before
#: the stage counts as hung (five minutes): a task that never returns
#: would otherwise block the driver forever.
_STALL_POLLS = 1200

#: Process-wide flag: true inside a forked worker.  Any nested
#: materialization in a worker falls back to the serial loop -- the
#: oracle semantics are always safe.  ``ctx`` is the worker's context,
#: what :func:`_named` resolves a job's names against.
_WORKER_STATE: Dict[str, Any] = {"active": False, "ctx": None}

#: The driver ends of every live pool's pipes in this process (keys; a
#: dict keeps their order).  A worker closes the forked copies of all of
#: them: while any is open, a dead driver does not read as end-of-file
#: to that pool's workers.
_DRIVER_ENDS: Dict[Any, None] = {}


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


def aligned_shuffles(rdd: RDD, pending: List[ShuffledRDD]) -> set:
    """Ids of the shuffles the job that materializes *rdd* reads only as
    partition *i* in task *i* of a stage of more than one task.

    A stage is the map stage of a pending shuffle, whose task *i* reads
    partition *i* of the shuffle's parent, or the final stage on *rdd*
    (not run when *rdd* is a shuffle: the driver reads it).  Its tasks
    follow one-to-one dependencies -- ``MapPartitionsRDD`` and
    ``CoGroupedRDD`` -- down to the shuffles the stage reads; a union or
    a cartesian product reads other indices, and a single-task stage
    runs on the driver.  So worker *w* of a pool of *W* is the only
    process that reads partitions *r* = *w* mod *W* of an aligned shuffle.
    A path through a cached RDD does not count: later jobs read the
    cache, and what a worker kept would only be fetched back.
    """
    stack = [(shuffled.parent, shuffled.parent.num_partitions > 1) for shuffled in pending]
    stack.append((rdd, rdd.num_partitions > 1 and type(rdd) is not ShuffledRDD))
    aligned, other, seen = set(), set(), set()
    while stack:
        node, one_to_one = stack.pop()
        if (node.id, one_to_one) in seen:
            continue
        seen.add((node.id, one_to_one))
        one_to_one = one_to_one and not node._cache_requested
        if isinstance(node, ShuffledRDD):
            # A stage boundary: its parent is read by its own map stage.
            (aligned if one_to_one else other).add(node.id)
            continue
        one_to_one = one_to_one and isinstance(node, (MapPartitionsRDD, CoGroupedRDD))
        for attr in ("parent", "left", "right"):
            child = getattr(node, attr, None)
            if isinstance(child, RDD):
                stack.append((child, one_to_one))
    return aligned - other


def pending_shuffles(nodes: List[RDD]) -> List[ShuffledRDD]:
    """Unresolved shuffle barriers in *nodes*, deepest first."""
    return [
        node
        for node in nodes
        if isinstance(node, ShuffledRDD) and node._buckets is None
    ]


# ----------------------------------------------------------------------
# Job pickling: a later job's lineage, for workers forked before it
# ----------------------------------------------------------------------


class _EmptyCell:
    """Stands for a closure cell that holds nothing yet."""


class _JobPickler(TermPickler):
    """Pickles a job's lineage for a pool forked before the job existed.

    What every worker already holds is *named*, not copied: the context,
    its ``metrics``, ``tracer`` and term table, every RDD that existed
    when the pool forked -- RDD ids only grow, so an id at or below the
    pool's watermark on an RDD the driver still holds is one in every
    worker's image -- and, as every pickle on the pipe does, every term
    of the table.  Everything else goes by value, the way Spark ships a task
    closure and a ``ParallelCollectionRDD``: a function no import
    reaches (a lambda, a nested function, a generated kernel, anything
    of ``__main__``) as its marshalled code, its closure cells, defaults
    and globals.  The globals of an imported module go by the module's
    name; those of a script or a kernel's namespace go by value, the
    ones the code reads, as the driver holds them now -- a script's
    ``__main__`` in a worker is the one the fork found.  A module is
    named, ``builtins`` too.
    """

    def __init__(self, file, ctx, watermark: int) -> None:
        terms = ctx.executor_backend.terms
        super().__init__(file, terms)
        self.ctx = ctx
        self.watermark = watermark
        self.names = {
            id(ctx): "ctx",
            id(ctx.metrics): "metrics",
            id(ctx.tracer): "tracer",
            id(terms): "terms",
        }
        #: Per pickling, so what is shared stays shared on the other side.
        self.codes: Dict[int, bytes] = {}
        self.scopes: Dict[int, Dict[str, Any]] = {}

    def reducer_override(self, obj):
        if isinstance(obj, Term):
            return super().reducer_override(obj)
        name = self.names.get(id(obj))
        if name is not None:
            return _named, (name,)
        if isinstance(obj, RDD):
            if obj.ctx is self.ctx and obj.id <= self.watermark:
                return _named, (obj.id,)
            return NotImplemented
        if type(obj) is types.FunctionType and not _importable(obj):
            return self._function(obj)
        if isinstance(obj, types.ModuleType):
            return importlib.import_module, (obj.__name__,)
        return NotImplemented

    def _function(self, func):
        code = func.__code__
        blob = self.codes.get(id(code))
        if blob is None:
            blob = self.codes[id(code)] = marshal.dumps(code)
        scope = func.__globals__
        name = scope.get("__name__")
        module = sys.modules.get(name)
        if name != "__main__" and module is not None and vars(module) is scope:
            scope, values = name, {}
        else:
            values = {key: scope[key] for key in _global_names(code) if key in scope}
            # One stand-in a namespace, shared by its functions.
            scope = self.scopes.setdefault(id(scope), {})
        cells = tuple(_cell_value(cell) for cell in func.__closure__ or ())
        state = (func.__defaults__, func.__kwdefaults__, cells, func.__dict__, func.__qualname__, values)
        # The state is set after the function exists, so a closure or a
        # global that reaches the function itself finds it in the memo.
        return _make_function, (blob, scope, func.__name__, len(cells)), state, None, None, _fill_function


def _global_names(code) -> set:
    """Every name *code* and the code nested in it may read as a global."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _importable(func) -> bool:
    """Whether unpickling can find *func* by module and qualified name
    -- and find it as the driver holds it: not one of ``__main__``."""
    if "<" in func.__qualname__ or func.__module__ == "__main__":
        return False
    target = sys.modules.get(func.__module__)
    for part in func.__qualname__.split("."):
        target = getattr(target, part, None)
    return target is func


def _cell_value(cell):
    try:
        return cell.cell_contents
    except ValueError:
        return _EmptyCell


def _make_function(blob: bytes, scope, name: str, num_cells: int):
    if isinstance(scope, str):
        scope = vars(importlib.import_module(scope))
    else:
        scope["__builtins__"] = builtins
    cells = tuple(types.CellType() for _ in range(num_cells))
    return types.FunctionType(marshal.loads(blob), scope, name, None, cells)


def _fill_function(func, state) -> None:
    defaults, kwdefaults, cells, attrs, qualname, values = state
    func.__globals__.update(values)
    func.__defaults__ = defaults
    func.__kwdefaults__ = kwdefaults
    for cell, value in zip(func.__closure__ or (), cells):
        if value is not _EmptyCell:
            cell.cell_contents = value
    func.__dict__.update(attrs)
    func.__qualname__ = qualname


def _named(name):
    """What a job's name stands for in this worker's image."""
    ctx = _WORKER_STATE["ctx"]
    if name == "ctx":
        return ctx
    if name in ("metrics", "tracer"):
        return getattr(ctx, name)
    if name == "terms":
        return ctx.executor_backend.terms
    return ctx._rdds[name]


def dump_job(ctx, watermark: int, job: Any) -> bytes:
    """*job* pickled for workers forked when the RDD counter read
    *watermark*; the context's term table reads it back in one of them."""
    buffer = io.BytesIO()
    _JobPickler(buffer, ctx, watermark).dump(job)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Worker-side protocol helpers
# ----------------------------------------------------------------------


def _encode_error(exc: BaseException, terms: TermTable):
    """A picklable description of a worker-task exception.

    Typed substrate errors round-trip exactly (they define
    ``__reduce__``); anything else falls back to an opaque summary that
    the driver re-raises as :class:`WorkerCrashError`.
    """
    try:
        blob = terms.dumps(exc)
        terms.loads(blob)  # some exceptions pickle but cannot unpickle
        return ("pickled", blob)
    except Exception:
        return (
            "opaque",
            (type(exc).__name__, str(exc), traceback.format_exc()),
        )


def _decode_error(spec, terms: TermTable) -> BaseException:
    form, payload = spec
    if form == "pickled":
        return terms.loads(payload)
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


def _install_fault_state(faults, state) -> None:
    """Set a worker's scheduler to the driver's merged state (absolute)."""
    if faults is None:
        return
    fired, draws, losses = state
    for rule, count in zip(faults.rules, fired):
        rule.fired = count
    faults._loss_draws = dict(draws)
    faults._losses_fired = dict(losses)


def _cache_bases(nodes: Iterable[RDD]) -> Dict[int, frozenset]:
    """Which partitions of each lineage RDD are cached right now (RDDs
    with none cached are left out)."""
    return {node.id: frozenset(node._cached) for node in nodes if node._cached}


def _cache_delta(nodes: List[RDD], bases: Dict[int, frozenset]):
    """Partitions cached since *bases* was taken, with their data."""
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
    """Install partitions cached by another process on these RDD objects.

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


def _stage_task(
    kind: str, node: RDD, terms: TermTable, keep=(), kept=None
) -> Callable[[int], Any]:
    """What one task of a stage runs: a shuffle's map task -- keeping the
    fragments for the reduce partitions in *keep* in *kept* -- or a
    partition."""
    if kind == "map":
        return lambda index: node._map_blocks(index, terms, keep, kept)
    return node._iterate


def _held_partitions(ctx) -> Iterable[List[Any]]:
    """The partitions *ctx* holds as data: its leaves' and its caches'."""
    for node in list(ctx._rdds.values()):
        if isinstance(node, ParallelCollectionRDD):
            yield from node._slices
        elif isinstance(node, PrePartitionedRDD):
            yield from node._parts
        if node._cached:
            for index in sorted(node._cached):
                yield node._cached[index]


def _send(conn, terms: TermTable, message) -> None:
    conn.send_bytes(terms.dumps(message))


def _recv(conn, terms: TermTable):
    return terms.loads(conn.recv_bytes())


def _release(held, shuffle_ids, terms: Optional[TermTable] = None):
    """Let go of the fragments this worker kept of *shuffle_ids*; with
    *terms*, as ``((shuffle id, map index, reduce index), block)`` pairs
    for the driver, each fragment pickled as a map task would have."""
    out = []
    for shuffle_id in shuffle_ids:
        kept = held.pop(shuffle_id, {})
        if terms is not None:
            out += [
                ((shuffle_id, map_index, index), terms.dumps(fragment))
                for map_index, own in kept.items()
                for index, fragment in own.items()
            ]
        # Blocks installed on this worker's copy of the shuffle still
        # name the dict: empty it, so the fragments go now.
        kept.clear()
    return out


def _install_job(ctx, job) -> List[RDD]:
    """Load a job's lineage and set what a fresh fork would have found:
    the tracer's flag, the id counters, the fault rules, the shuffles the
    driver resolved by itself, and the cache flags and cached partitions
    of RDDs this worker already held (dropping what the driver no longer
    holds)."""
    nodes, enabled, counters, rules, shuffles, caches = job
    ctx.tracer.enabled = enabled
    ctx._rdd_counter, ctx._broadcast_counter = counters
    if ctx.faults is not None:
        ctx.faults.rules = rules
    terms = ctx.executor_backend.terms
    for shuffle_id, blocks in shuffles:
        ctx._rdds[shuffle_id]._buckets = ShuffleBlocks(blocks, terms)
    for rdd_id, requested, checkpointed, keep in caches:
        node = ctx._rdds[rdd_id]
        node._cache_requested = requested
        node._checkpoint_requested = checkpointed
        if node._cached is not None:
            node._cached = {i: data for i, data in node._cached.items() if i in keep}
    return nodes


def _worker_main(worker_id, ctx, nodes, conn):
    """Body of one forked worker: serve its context's jobs, one stage a
    command, until the context ends.

    A command is ``(map | final, rdd id, task indices)`` plus what a
    worker forked after the previous stage would have inherited: the
    shuffles resolved since (as blocks), the driver's merged
    fault-scheduler state, and the partitions other processes cached.
    Everything the driver must merge rides in per-task messages:
    partition data, the marginal metrics delta, completed trace spans,
    and the accumulator journal.  Scheduler-state and cache deltas are
    batched into the stage's closing ``done`` message (they are
    commutative / idempotent, unlike the per-task streams).  A later
    job opens with ``("job", lineage and state)`` and closes with
    ``("end",)``, which drops its nodes; the worker answers the first
    with ``("ready",)`` once it holds the job.  ``None`` -- or a driver
    that is gone -- ends the loop.  Every message both ways is pickled
    over the context's term table, as it stood at the fork.
    """
    try:
        _WORKER_STATE["active"] = True
        _WORKER_STATE["ctx"] = ctx
        # A pool is forked inside a unit of work, whose pause
        # (``repro._gc``) the fork copies; the worker outlives the unit.
        gc.enable()
        for end in _DRIVER_ENDS:
            end.close()
        # The driver is the only deadline authority under this backend.
        ctx.deadline = None
        tracer = ctx.tracer
        faults = ctx.faults
        terms = ctx.executor_backend.terms
        by_id = {node.id: node for node in nodes}
        #: The fragments this worker's map tasks kept for its own reduce
        #: partitions: ``held[shuffle id][map index][reduce index]``.
        held: Dict[int, Dict[int, Dict[int, List[Any]]]] = {}
        journal: List[Tuple[int, Any]] = []
        accumulator_module._WORKER_JOURNAL = journal
        while True:
            try:
                command = _recv(conn, terms)
            except EOFError:
                break
            if command is None:
                break
            if command[0] == "job":
                nodes = _install_job(ctx, command[1])
                by_id = {node.id: node for node in nodes}
                _send(conn, terms, ("ready",))
                continue
            if command[0] == "end":
                nodes, by_id = [], {}
                continue
            if command[0] == "fetch":
                _send(conn, terms, ("fetched", _release(held, command[1], terms)))
                continue
            kind, rdd_id, task_indices, shuffles, fault_base, installs, keep, drop = command
            _release(held, drop)
            for shuffle_id, blocks in shuffles:
                by_id[shuffle_id]._buckets = ShuffleBlocks(blocks, terms, held.get(shuffle_id))
            _install_fault_state(faults, fault_base)
            merge_cache_delta(nodes, installs)
            cache_base = _cache_bases(nodes)
            kept = held.setdefault(rdd_id, {}) if keep else None
            run_one = _stage_task(kind, by_id[rdd_id], terms, keep, kept)
            for index in task_indices:
                # Worker spans root at task level; the driver reattaches
                # them under its currently open span and renumbers seq.
                tracer.clear()
                del journal[:]
                before = ctx.metrics.snapshot()
                data = None
                error = None
                try:
                    data = run_one(index)
                except Exception as exc:  # shipped to the driver, re-raised there
                    error = _encode_error(exc, terms)
                delta = ctx.metrics.snapshot() - before
                payload = {
                    "data": data,
                    "metrics": [(name, value) for name, value in delta if value],
                    "spans": [span.to_dict() for span in tracer.roots],
                    "accums": list(journal),
                    "error": error,
                }
                _send(conn, terms, ("task", index, payload))
                if error is not None:
                    # Mirror the serial loop: no work past a failed task.
                    break
            if kept == {}:
                del held[rdd_id]
            _send(
                conn,
                terms,
                (
                    "done",
                    worker_id,
                    _cache_delta(nodes, cache_base),
                    _fault_delta(faults, fault_base),
                ),
            )
    except BaseException:
        try:
            _send(conn, terms, ("fatal", worker_id, traceback.format_exc()))
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


def _reap(owner: int, procs: List[Any], conns: List[Any]) -> None:
    """Kill and reap a pool's workers -- idle, or in the middle of a task
    that never returns, or blocked sending to a driver that has stopped
    reading -- and close the driver's ends.  Only the process that
    forked them does: a worker's copy of a pool is not its to end."""
    if os.getpid() != owner:
        return
    for proc in procs:
        if proc.is_alive():
            proc.kill()
        proc.join()
    for conn in conns:
        _DRIVER_ENDS.pop(conn, None)
        conn.close()


def _blocks(buckets, terms: TermTable) -> List[List[bytes]]:
    """A resolved shuffle's buckets as the blocks a worker is sent."""
    if isinstance(buckets, ShuffleBlocks):
        return buckets.blocks
    return [[block] if block else [] for block in ShuffleBlocks.encode(buckets, terms)]


class _Pool:
    """The workers of one context: forked at its first stage with more
    than one task, killed when the context ends or a job fails, and what
    the driver has yet to tell them -- a later job or stage carries what
    a worker forked right before it would have found in its image.
    """

    def __init__(self, size: int, terms: TermTable) -> None:
        self.size = size
        #: The context's term table, extended at the fork.
        self.terms = terms
        self.procs: List[Any] = []
        self.conns: List[Any] = []
        #: The context's last RDD id at the fork: every RDD at or below
        #: it that the driver still holds is in every worker's image.
        self.watermark = 0
        #: Shuffles resolved since the last command (sent once, as blocks).
        self.resolved: List[ShuffledRDD] = []
        #: The driver's cache as the workers last heard of it (non-empty only).
        self.cache_base: Dict[int, frozenset] = {}
        #: ``(rdd id, index)`` of what each worker cached in its last stage.
        self.cached_by: List[frozenset] = [frozenset()] * size
        #: Forked shuffles whose buckets the workers hold, every block.
        self.buckets: set = set()
        #: Shuffles of which the workers keep fragments (``ShuffleBlocks.held``).
        self.held: set = set()
        #: The context's live RDDs by id: tells when a held shuffle is gone.
        self.rdds: Any = {}
        #: Ends the workers: called on a failed job, or by the collector
        #: when the backend goes, or at interpreter exit.
        self.close: Callable[[], Any] = lambda: None

    def fork(self, owner, ctx, nodes: List[RDD]) -> None:
        # Loaded by the first forked stage, in the driver: an in-process
        # run never needs it.
        import multiprocessing

        mp_ctx = multiprocessing.get_context("fork")
        self.close = weakref.finalize(owner, _reap, os.getpid(), self.procs, self.conns)
        # Appended to, never renumbered: blocks an earlier pool encoded
        # read the same in this one.
        self.terms.extend(_held_partitions(ctx))
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
            for worker_id in range(self.size):
                driver_end, worker_end = mp_ctx.Pipe()
                self.conns.append(driver_end)
                _DRIVER_ENDS[driver_end] = None
                proc = mp_ctx.Process(
                    target=_worker_main,
                    args=(worker_id, ctx, nodes, worker_end),
                )
                proc.daemon = True
                proc.start()
                worker_end.close()
                self.procs.append(proc)
        finally:
            if ours:
                gc.unfreeze()
        self.watermark = ctx._rdd_counter
        self.rdds = ctx._rdds
        for node in list(ctx._rdds.values()):
            if node._cached:
                self.cache_base[node.id] = frozenset(node._cached)
            if isinstance(node, ShuffledRDD) and node._buckets is not None:
                self.buckets.add(node.id)

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def send_job(self, ctx, nodes: List[RDD]) -> bool:
        """Open a job on workers forked before it: its lineage, and the
        state of the RDDs they hold that it reads.  False if the job
        does not pickle, or a worker cannot load it or is gone: a fresh
        fork then inherits it instead."""
        known = [node for node in nodes if node.id <= self.watermark]
        shuffles = [
            (node.id, _blocks(node._buckets, self.terms))
            for node in known
            if isinstance(node, ShuffledRDD)
            and node._buckets is not None
            and node.id not in self.buckets
        ]
        caches = [
            (node.id, node._cache_requested, node._checkpoint_requested, frozenset(node._cached or ()))
            for node in known
        ]
        job = (
            nodes,
            ctx.tracer.enabled,
            (ctx._rdd_counter, ctx._broadcast_counter),
            ctx.faults.rules if ctx.faults is not None else None,
            shuffles,
            caches,
        )
        try:
            message = dump_job(ctx, self.watermark, ("job", job))
        except Exception:  # a captured lock, file, local class...
            return False
        try:
            for conn in self.conns:
                conn.send_bytes(message)
            # A worker that cannot load the job (a class a script defined
            # after the fork) answers "fatal" and exits.
            if not all(_recv(conn, self.terms) == ("ready",) for conn in self.conns):
                return False
        except (EOFError, OSError):  # a worker died since the check
            return False
        self.buckets.update(shuffle_id for shuffle_id, _blocks in shuffles)
        kept = {rdd_id: have for rdd_id, _r, _c, have in caches}
        for rdd_id, have in kept.items():
            if rdd_id in self.cache_base:
                self.cache_base[rdd_id] &= have

        def still_held(rdd_id: int, index: int) -> bool:
            # What a worker cached of RDDs built after the fork went with
            # their job; of the others it keeps what the driver kept.
            return rdd_id <= self.watermark and index in kept.get(rdd_id, (index,))

        self.cached_by = [
            frozenset(item for item in own if still_held(*item)) for own in self.cached_by
        ]
        self.cache_base = {
            rdd_id: indices
            for rdd_id, indices in self.cache_base.items()
            if rdd_id <= self.watermark
        }
        # The job's new RDDs went by value, with what the driver cached.
        self.cache_base.update(_cache_bases(node for node in nodes if node.id > self.watermark))
        return True

    def fetch(self, shuffles: List[ShuffledRDD]) -> None:
        """Pull what the workers keep of *shuffles* into the driver's
        blocks -- between stages or jobs, while every worker is idle --
        and let the workers drop it.  Raises ``EOFError`` or ``OSError``
        if a worker is gone."""
        ids = [shuffled.id for shuffled in shuffles]
        for conn in self.conns:
            _send(conn, self.terms, ("fetch", ids))
        pulled: Dict[Tuple[int, int, int], bytes] = {}
        for conn in self.conns:
            reply = _recv(conn, self.terms)
            if reply[0] != "fetched":  # "fatal": the worker is gone
                raise EOFError(reply[0])
            pulled.update(reply[1])
        for shuffled in shuffles:
            buckets = shuffled._buckets
            buckets.blocks = [
                [entry if type(entry) is bytes else pulled[shuffled.id, entry, index] for entry in bucket]
                for index, bucket in enumerate(buckets.blocks)
            ]
            buckets.held = False
            self.held.discard(shuffled.id)

    def held_shuffles(self) -> List[ShuffledRDD]:
        """The shuffles the driver still holds of which the workers keep
        fragments."""
        live = (self.rdds.get(shuffle_id) for shuffle_id in sorted(self.held))
        return [node for node in live if node is not None]

    def released(self) -> List[int]:
        """Held shuffles the driver no longer holds: the workers may drop
        what they keep of them."""
        gone = sorted(shuffle_id for shuffle_id in self.held if shuffle_id not in self.rdds)
        self.held.difference_update(gone)
        return gone

    def end_job(self) -> None:
        """Let the workers drop the job's nodes; a dead one is found
        before the next job."""
        self.resolved = []
        for conn in self.conns:
            try:
                _send(conn, self.terms, ("end",))
            except OSError:
                pass


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
        #: What every pickle crossing this context's pipes is encoded
        #: over; empty until the first fork.
        self.terms = TermTable()
        #: The context's pool, once a stage had more than one task.
        self._pool: Optional[_Pool] = None
        #: The running job's lineage; ``None`` between jobs.
        self._nodes: Optional[List[RDD]] = None
        #: Whether the pool holds the running job.
        self._sent = False
        #: Ids of the running job's shuffles that each worker reads only
        #: its own partitions of (:func:`aligned_shuffles`).
        self._aligned: set = set()

    def __repr__(self) -> str:
        return "ParallelBackend(workers=%d)" % self.workers

    # -- entry point ----------------------------------------------------

    def materialize(self, rdd: RDD) -> List[List[Any]]:
        _maybe_verify(rdd)
        if _WORKER_STATE["active"] or self._nodes is not None:
            # Nested materialization (inside a worker task or a stage
            # already being driven) always takes the oracle path.
            return _serial_materialize(rdd)
        self._nodes = nodes = lineage(rdd)
        succeeded = False
        try:
            # A later job reads what an earlier one left in the workers
            # as blocks the driver holds, whichever process reads it.
            kept = self._pool.held if self._pool is not None else ()
            held = [node for node in nodes if node.id in kept]
            if held:
                self.gather(held)
            pending = pending_shuffles(nodes)
            self._aligned = aligned_shuffles(rdd, pending)
            for shuffled in pending:
                self._resolve_shuffle(shuffled, nodes)
            if isinstance(rdd, ShuffledRDD):
                # Buckets are resolved; reading them is plain driver
                # work and keeps the task charges on the oracle path.
                results = _serial_materialize(rdd)
            else:
                results = self._final_stage(rdd, nodes)
            succeeded = True
            return results
        finally:
            sent, self._sent, self._nodes = self._sent, False, None
            if sent and succeeded:
                self._pool.end_job()
            elif sent:
                self._drop_pool()

    def _drop_pool(self, idle: bool = False) -> None:
        """End the pool.  What its workers keep of shuffles the driver
        still holds is fetched first if they are *idle* and alive;
        otherwise it goes with them, and those shuffles are left
        unresolved, to run again from lineage when next read (Spark's
        ``FetchFailed`` path)."""
        pool, self._pool = self._pool, None
        held = pool.held_shuffles()
        if held:
            try:
                if not (idle and pool.alive()):
                    raise EOFError("the pool is not idle")
                pool.fetch(held)
            except (EOFError, OSError):
                for shuffled in held:
                    shuffled._buckets = None
        pool.close()

    def gather(self, shuffles: List[ShuffledRDD]) -> None:
        """Fetch what the pool's workers keep of *shuffles*, for a read
        between stages or jobs, while every worker is idle.  A pool that
        is gone took it along: between jobs, *shuffles* are then left
        unresolved, to run again from lineage; inside a job, the job
        fails as it does whenever a worker dies."""
        pool = self._pool
        try:
            if pool is None or not pool.alive():
                raise EOFError("the pool is gone")
            pool.fetch(shuffles)
        except (EOFError, OSError) as exc:
            if self._sent:
                raise WorkerCrashError(
                    "a parallel worker holding shuffle output is gone: %s" % exc
                )
            if pool is not None:
                self._drop_pool()
            for shuffled in shuffles:
                shuffled._buckets = None

    def _pool_for(self, ctx) -> _Pool:
        """The pool holding the running job: the context's, sent the job,
        or -- at the first forked stage, after a failed job, for a job
        wider than the pool or one it could not be sent -- a new one,
        forked with the job in its image."""
        if self._sent:
            return self._pool
        nodes = self._nodes
        # No stage is wider than the lineage's widest RDD: a worker that
        # could never be given a task is not forked.
        size = min(self.workers, max(node.num_partitions for node in nodes))
        pool = self._pool
        if pool is not None and (
            pool.size < size or not pool.alive() or not pool.send_job(ctx, nodes)
        ):
            self._drop_pool(idle=True)
        if self._pool is None:
            self._pool = _Pool(size, self.terms)
            try:
                self._pool.fork(self, ctx, nodes)
            except BaseException:
                self._drop_pool()
                raise
        self._sent = True
        return self._pool

    # -- stages ---------------------------------------------------------

    def _resolve_shuffle(self, shuffled: ShuffledRDD, nodes: List[RDD]) -> None:
        """Resolve one shuffle barrier with a parallel map stage, inside
        the span ``ShuffledRDD._resolve`` opens for the serial shuffle
        too; same bucket construction order, same single
        ``record_shuffle`` charge.
        """
        shuffled._resolve(
            lambda span: self._shuffle_blocks(shuffled, nodes, span)
        )
        if self._sent:
            # Otherwise the job's message, or the fork, carries them.
            self._pool.resolved.append(shuffled)

    def _shuffle_blocks(
        self, shuffled: ShuffledRDD, nodes: List[RDD], span
    ) -> ShuffleBlocks:
        num_out = shuffled.partitioner.num_partitions
        buckets = ShuffleBlocks([[] for _ in range(num_out)], self.terms)
        records = remote = nbytes = 0
        # A worker keeps what it reads itself unless the combine, which
        # is the driver's, reads every bucket.
        keep = shuffled.aggregator is None and shuffled.id in self._aligned
        outputs = self._run_stage(
            shuffled.ctx, nodes, "map", shuffled, shuffled.parent.num_partitions, keep
        )
        # Appending in ascending map index reproduces the serial bucket
        # order byte-for-byte; the driver routes the blocks unread.
        for encoded, task_records, task_remote, task_bytes in outputs:
            buckets.append(encoded)
            records += task_records
            remote += task_remote
            nbytes += task_bytes
        if shuffled.aggregator is None:
            buckets.held = any(
                type(entry) is int for bucket in buckets.blocks for entry in bucket
            )
            if buckets.held:
                self._pool.held.add(shuffled.id)
            shuffled._finish_shuffle(buckets, records, remote, nbytes, span)
            return buckets
        # The reduce-side combine is the driver's: it decodes, merges,
        # and encodes each merged bucket once for the push.
        merged = [buckets[index] for index in range(num_out)]
        shuffled._finish_shuffle(merged, records, remote, nbytes, span)
        buckets = ShuffleBlocks([[] for _ in range(num_out)], self.terms)
        buckets.append(ShuffleBlocks.encode(merged, self.terms))
        return buckets

    def _final_stage(self, rdd: RDD, nodes: List[RDD]) -> List[List[Any]]:
        results = self._run_stage(rdd.ctx, nodes, "final", rdd, rdd.num_partitions)
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
        kind: str,
        node: RDD,
        num_tasks: int,
        keep: bool = False,
    ) -> List[Any]:
        """Run tasks ``0..num_tasks-1`` on the pool; merge in task order.
        Task *i* runs on worker *i* mod pool size; with *keep*, a map
        task keeps the fragments for the reduce partitions its worker
        reads.

        A single-task stage runs on the driver directly -- that is the
        oracle path, so it is always semantically safe and keeps a job
        of such stages from forking at all.  One worker still forks:
        ``workers=1`` is the honest single-worker baseline.
        """
        if num_tasks <= 0:
            return []
        ctx.check_deadline()
        if num_tasks == 1:
            return [_stage_task(kind, node, self.terms)(0)]
        from multiprocessing import connection as mp_connection

        pool = self._pool_for(ctx)
        resolved, pool.resolved = pool.resolved, []
        pool.buckets.update(
            done.id
            for done in resolved
            if done.id <= pool.watermark and done.id not in self._aligned
        )
        drop = pool.released()
        fault_state = _fault_state(ctx.faults)
        cached = _cache_delta(nodes, pool.cache_base)
        pool.cache_base.update(_cache_bases(nodes))
        try:
            for worker_id, conn in enumerate(pool.conns):
                own = pool.cached_by[worker_id]
                installs = [
                    (rdd_id, [item for item in items if (rdd_id, item[0]) not in own])
                    for rdd_id, items in cached
                ]
                tasks = list(range(worker_id, num_tasks, pool.size))
                # A shuffle the job reads aligned goes to each worker as
                # the partitions its tasks read; any other, whole.
                shuffles = [(done.id, self._route(done, worker_id, pool.size)) for done in resolved]
                kept = range(worker_id, node.num_partitions, pool.size) if keep else ()
                command = (kind, node.id, tasks, shuffles, fault_state, installs, kept, drop)
                _send(conn, self.terms, command)
        except OSError as exc:
            raise WorkerCrashError(
                "parallel worker %d is gone between stages: %s" % (worker_id, exc)
            )
        results: List[Any] = [None] * num_tasks
        buffered: Dict[int, Dict[str, Any]] = {}
        done_msgs: Dict[int, Tuple[Any, Any]] = {}
        next_merge = 0
        silent_polls = 0
        while len(done_msgs) < pool.size:
            ready = mp_connection.wait(pool.conns, timeout=_POLL_INTERVAL)
            if not ready:
                self._check_liveness(pool.procs, done_msgs)
                # Polls are counted, not timed: no clock is read here.
                silent_polls += 1
                if silent_polls >= _STALL_POLLS:
                    raise WorkerCrashError(
                        "no parallel worker reported for %d polls of %gs "
                        "(a task that never returns?); the pool was killed"
                        % (silent_polls, _POLL_INTERVAL)
                    )
                continue
            silent_polls = 0
            for conn in ready:
                try:
                    message = _recv(conn, self.terms)
                except (EOFError, OSError):
                    worker_id = pool.conns.index(conn)
                    raise WorkerCrashError(
                        "parallel worker %d exited before "
                        "completing its tasks (exit code %s)"
                        % (worker_id, pool.procs[worker_id].exitcode)
                    )
                tag = message[0]
                if tag == "task":
                    _, index, payload = message
                    buffered[index] = payload
                    next_merge = self._merge_ready(
                        ctx, results, buffered, next_merge
                    )
                elif tag == "done":
                    _, worker_id, cache_delta, fault_delta = message
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
            pool.cached_by[worker_id] = frozenset(
                (rdd_id, index)
                for rdd_id, items in cache_delta
                for index, _data in items
            )
        return results

    def _route(self, shuffled: ShuffledRDD, worker_id: int, size: int):
        """The blocks of a resolved shuffle that a worker is sent."""
        blocks = shuffled._buckets.blocks
        if shuffled.id not in self._aligned:
            return blocks
        return [
            bucket if index % size == worker_id else None
            for index, bucket in enumerate(blocks)
        ]

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
                raise _decode_error(payload["error"], self.terms)
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

    def _check_liveness(self, procs, done_msgs) -> None:
        """Detect workers that died without closing their pipe cleanly."""
        for worker_id, proc in enumerate(procs):
            if (
                worker_id not in done_msgs
                and not proc.is_alive()
                and proc.exitcode not in (0, None)
            ):
                raise WorkerCrashError(
                    "parallel worker %d died (exit code %s)"
                    % (worker_id, proc.exitcode)
                )
