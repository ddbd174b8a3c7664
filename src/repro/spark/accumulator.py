"""Accumulators: write-only shared counters, like Spark's.

Tasks add to an accumulator while computing partitions; only the driver
reads the total.  Engines use them to report side statistics (patterns
matched, candidates pruned) without threading values through RDD lineage.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Set by a parallel-backend worker to its per-task journal; every add()
#: is then recorded as ``(uid, amount)`` so the driver can *replay* the
#: adds in ascending task order.  Replay (not state shipping) is what
#: keeps non-commutative fold functions deterministic under concurrency.
_WORKER_JOURNAL: Optional[List[Tuple[int, Any]]] = None

#: Driver-side uid source; uids are assigned before any fork, so they
#: agree between the driver and every worker.
_UID_COUNTER = [0]


class Accumulator(Generic[T]):
    """A driver-readable, task-writable aggregate value."""

    def __init__(
        self,
        zero: T,
        add: Optional[Callable[[T, T], T]] = None,
        name: Optional[str] = None,
    ) -> None:
        self._zero = zero
        self._value = zero
        self._add = add or (lambda a, b: a + b)
        self.name = name
        _UID_COUNTER[0] += 1
        self.uid = _UID_COUNTER[0]

    def add(self, amount: T) -> None:
        """Fold *amount* into the running value (task side)."""
        self._value = self._add(self._value, amount)
        if _WORKER_JOURNAL is not None:
            _WORKER_JOURNAL.append((self.uid, amount))

    def __iadd__(self, amount: T) -> "Accumulator[T]":
        self.add(amount)
        return self

    @property
    def value(self) -> T:
        """The accumulated value (driver side)."""
        return self._value

    def __repr__(self) -> str:
        label = " %r" % self.name if self.name else ""
        return "Accumulator%s(value=%r)" % (label, self._value)
