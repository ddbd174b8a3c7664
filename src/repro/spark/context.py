"""SparkContext: entry point to the simulated cluster."""

from __future__ import annotations

import weakref
from typing import Any, Iterable, List, Optional, Union

from repro.spark.broadcast import Broadcast
from repro.spark.deadline import Deadline
from repro.spark.faults import FaultScheduler, as_fault_scheduler
from repro.spark.metrics import MetricsCollector
from repro.spark.parallel import build_backend
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import ParallelCollectionRDD, PrePartitionedRDD, RDD
from repro.spark.tracing import Tracer


class SparkContext:
    """Owns the virtual cluster: executors, metrics, tracing, and RDD creation.

    Parameters
    ----------
    default_parallelism:
        How many partitions :meth:`parallelize` produces by default.
    num_executors:
        How many virtual machines partitions are spread over.  Partition
        *i* lives on executor ``i % num_executors``; shuffle records that
        change executor are charged as remote traffic.
    faults:
        Optional adversarial schedule: a
        :class:`~repro.spark.faults.FaultScheduler` or a spec string
        (``"fail:p=0.2;lose:p=0.5;seed=7"``) injecting task failures,
        partition-loss events, and stragglers.  ``None`` (the default)
        keeps the perfect-cluster behaviour.
    max_task_attempts:
        How many times a task may run before a persistent failure raises
        :class:`~repro.spark.faults.TaskFailedError` (Spark's
        ``spark.task.maxFailures``, default 4).
    speculation:
        When true, straggling tasks launch a speculative backup copy
        (charged as an extra task plus ``speculative_launches``).
    backend:
        Executor backend running partition-parallel stages:
        ``"inprocess"`` (the default serial oracle) or ``"parallel"``
        (a forked ``multiprocessing`` worker pool; see
        :mod:`repro.spark.parallel` and ``docs/PARALLEL.md``).  Both
        produce byte-identical canonical results.
    workers:
        Worker-pool size for the parallel backend (default 2); ignored
        by the in-process backend.
    verify_closures:
        Opt-in worker-boundary enforcement: every closure in a job's
        lineage is analyzed at submission time (rules CL000..CL007,
        see :mod:`repro.analysis.closures`) and a violating one raises
        :exc:`repro.analysis.closures.ClosureAnalysisError` instead of
        silently diverging from the oracle.  Off by default.
    """

    def __init__(
        self,
        default_parallelism: int = 4,
        num_executors: Optional[int] = None,
        faults: Union[None, str, FaultScheduler] = None,
        max_task_attempts: int = 4,
        speculation: bool = False,
        backend: str = "inprocess",
        workers: Optional[int] = None,
        verify_closures: bool = False,
    ) -> None:
        if default_parallelism <= 0:
            raise ValueError("default_parallelism must be positive")
        self.default_parallelism = default_parallelism
        self.num_executors = (
            default_parallelism if num_executors is None else num_executors
        )
        if self.num_executors <= 0:
            raise ValueError("num_executors must be positive")
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        self.metrics = MetricsCollector()
        #: Span recorder for per-stage cost attribution; disabled by default.
        self.tracer = Tracer(self.metrics)
        #: Fault schedule applied to every task of this context, or None.
        self.faults = as_fault_scheduler(faults)
        self.max_task_attempts = max_task_attempts
        self.speculation = speculation
        #: True while a lost partition is being rebuilt (guards nested
        #: recovery from double-charging ``recompute_comparisons``).
        self._recovering = False
        #: Armed cost-unit budget for the running query, or None.  The
        #: task loop polls it via :meth:`check_deadline` once per
        #: partition computation (see :mod:`repro.spark.deadline`).
        self.deadline: Optional[Deadline] = None
        #: Executor backend evaluating partition-parallel stages; see
        #: :mod:`repro.spark.parallel`.
        self.executor_backend = build_backend(backend, workers)
        self.backend = self.executor_backend.name
        self.workers = self.executor_backend.workers
        #: Opt-in job-submission closure verification (CL000..CL007);
        #: see :mod:`repro.analysis.closures` and docs/PARALLEL.md.
        self.verify_closures = bool(verify_closures)
        #: Closures already cleared by the verifier (id -> function, the
        #: reference pins the id), so repeated materializations of the
        #: same lineage re-check nothing.
        self._verified_closures: dict = {}
        #: Accumulators created through :meth:`accumulator`, by uid, so
        #: the parallel backend can replay worker-side adds in task order.
        self._accumulators: dict = {}
        self._rdd_counter = 0
        self._broadcast_counter = 0
        #: Every live RDD by id, on a forked backend only: what a job's
        #: pickled lineage names, and a worker finds in its image.
        self._rdds: Optional[weakref.WeakValueDictionary] = (
            weakref.WeakValueDictionary() if self.backend == "parallel" else None
        )

    def _register_rdd(self, rdd: RDD) -> int:
        """The next RDD id, under which a forked backend files *rdd*."""
        self._rdd_counter += 1
        if self._rdds is not None:
            self._rdds[self._rdd_counter] = rdd
        return self._rdd_counter

    def set_deadline(
        self, budget: Optional[int], query: Optional[str] = None
    ) -> Optional[Deadline]:
        """Arm (or, with ``None``, disarm) a cost-unit deadline.

        The budget counts from the collector's *current* state, so work
        already charged -- store builds, earlier queries on a pooled
        engine -- is not billed against this query.  Returns the armed
        :class:`~repro.spark.deadline.Deadline` (or None).
        """
        if budget is None:
            self.deadline = None
        else:
            self.deadline = Deadline(budget, self.metrics, query)
        return self.deadline

    def check_deadline(self) -> None:
        """Poll the armed deadline, if any (called once per task)."""
        if self.deadline is not None:
            self.deadline.check()

    def executor_for(self, partition_index: int) -> int:
        """The virtual executor hosting *partition_index*."""
        return partition_index % self.num_executors

    def parallelize(
        self, data: Iterable[Any], num_partitions: Optional[int] = None
    ) -> RDD:
        """Distribute a local collection into an RDD."""
        return ParallelCollectionRDD(
            self, data, num_partitions or self.default_parallelism
        )

    def fromPartitions(
        self,
        partitions: List[List[Any]],
        partitioner: Optional[Partitioner] = None,
    ) -> RDD:
        """Create an RDD whose partition placement the caller chose.

        Used by engines that maintain their own stores (vertical partitions,
        MESG indexes) to declare where each record already lives.
        """
        return PrePartitionedRDD(self, partitions, partitioner)

    def emptyRDD(self) -> RDD:
        return ParallelCollectionRDD(self, [], 1)

    def textFile(self, path: str, num_partitions: Optional[int] = None) -> RDD:
        """Read a local file into an RDD of lines."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle]
        return self.parallelize(lines, num_partitions)

    def broadcast(self, value: Any) -> Broadcast:
        """Ship a read-only value to every executor (cost is charged)."""
        self._broadcast_counter += 1
        with self.tracer.span(
            "broadcast", name="b%d" % self._broadcast_counter
        ):
            return Broadcast(self, value, self._broadcast_counter)

    def accumulator(self, zero: Any = 0, add=None, name: str = None):
        """Create a write-only shared counter (see
        :class:`repro.spark.accumulator.Accumulator`)."""
        from repro.spark.accumulator import Accumulator

        accumulator = Accumulator(zero, add, name)
        self._accumulators[accumulator.uid] = accumulator
        return accumulator

    def __repr__(self) -> str:
        return "SparkContext(parallelism=%d, executors=%d)" % (
            self.default_parallelism,
            self.num_executors,
        )
