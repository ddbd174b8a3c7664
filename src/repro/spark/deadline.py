"""Per-query deadlines over deterministic virtual time.

The simulated cluster has no wall clock -- determinism is the whole point
-- so a "deadline" cannot be a number of seconds.  Instead the serving
layer measures *virtual time* in **cost units**: a weighted sum of the
work counters every operator already charges to its context's
:class:`~repro.spark.metrics.MetricsCollector`.  A deadline is a budget
of cost units a query may spend; the task-execution loop polls it once
per partition computation (:meth:`repro.spark.rdd.RDD._iterate`), which
is exactly where real Spark's task kill/interruption points live.

Two consequences of charging deadlines in virtual time:

* **Byte-determinism.**  The same query on the same graph aborts at the
  same task with the same accounting, every run, on any machine.
* **Honest semantics.**  A deadline bounds *work admitted*, not time
  elapsed; an over-deadline query has already spent close to its budget
  when it is killed (the overshoot is at most one task's charges, since
  the poll is per task).

:func:`cost_units` defines the virtual clock; keep it in sync with the
``VIRTUAL_COST_COUNTERS`` list documented in ``docs/SERVER.md``.
"""

from __future__ import annotations

from typing import Optional

from repro.spark.metrics import MetricsCollector, MetricsSnapshot

#: Counters whose sum defines virtual time.  One scanned record, one
#: shuffled record, one join comparison, and one executed task each cost
#: one unit; straggler delay is charged at its injected weight so slow
#: tasks consume deadline budget the way they consume wall-clock time.
VIRTUAL_COST_COUNTERS = (
    "tasks",
    "records_scanned",
    "shuffle_records",
    "join_comparisons",
    "straggler_delay_units",
)


def cost_units(snapshot: MetricsSnapshot) -> int:
    """The virtual-time reading of a metrics snapshot, in cost units."""
    return sum(snapshot.get(name) for name in VIRTUAL_COST_COUNTERS)


class DeadlineExceededError(RuntimeError):
    """A query spent its cost-unit budget before completing.

    Typed like :class:`~repro.spark.faults.TaskFailedError` so service
    callers can distinguish "the cluster gave up" from "the query was too
    expensive for its deadline".  Carries the budget and the units
    actually spent when the poll fired.
    """

    def __init__(
        self,
        budget: int,
        spent: int,
        query: Optional[str] = None,
    ) -> None:
        self.budget = budget
        self.spent = spent
        #: Request/query label, filled in by the serving layer when known.
        self.query = query
        super().__init__()

    def __reduce__(self):
        # Explicit recipe so the error survives the parallel backend's
        # worker pipes (the default reduce replays empty args).
        return (DeadlineExceededError, (self.budget, self.spent, self.query))

    def __str__(self) -> str:
        message = (
            "deadline exceeded: spent %d cost unit(s) of a %d-unit budget"
            % (self.spent, self.budget)
        )
        if self.query:
            message += " [query %s]" % self.query
        return message

    def __repr__(self) -> str:
        return "DeadlineExceededError(budget=%d, spent=%d)" % (
            self.budget,
            self.spent,
        )


class Deadline:
    """A cost-unit budget armed against one collector.

    Created by :meth:`SparkContext.set_deadline`; the task loop calls
    :meth:`check` once per partition computation.  The budget is measured
    from the collector's state at arm time, so warm-up work done before
    the query started is not billed against it.
    """

    __slots__ = ("budget", "_metrics", "_start", "query")

    def __init__(
        self,
        budget: int,
        metrics: MetricsCollector,
        query: Optional[str] = None,
    ) -> None:
        if budget <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget = budget
        self._metrics = metrics
        self._start = self._reading()
        self.query = query

    def _reading(self) -> int:
        return sum(
            self._metrics.get(name) for name in VIRTUAL_COST_COUNTERS
        )

    def spent(self) -> int:
        """Cost units charged since the deadline was armed."""
        return self._reading() - self._start

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` when the budget is spent."""
        spent = self.spent()
        if spent > self.budget:
            raise DeadlineExceededError(self.budget, spent, self.query)

    def __repr__(self) -> str:
        return "Deadline(budget=%d, spent=%d)" % (self.budget, self.spent())
