"""Broadcast variables.

A broadcast ships one read-only value to every virtual executor.  The cost
model charges ``num_executors`` copies of the value's estimated size, which
is what makes the broadcast-vs-partitioned join trade-off studied by the
hybrid system (Naacke et al., Section IV-A3 of the paper) measurable.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.spark.metrics import RowTable, estimate_sizes

T = TypeVar("T")


class Broadcast(Generic[T]):
    """A read-only value replicated to every executor.

    Access the payload through :attr:`value`, mirroring PySpark.
    """

    def __init__(self, ctx, value: T, broadcast_id: int) -> None:
        self._value = value
        self.id = broadcast_id
        num_records = len(value) if hasattr(value, "__len__") else 1
        size = (
            value.size()
            if type(value) is RowTable
            else estimate_sizes((value,))
        )
        nbytes = size * ctx.num_executors
        ctx.metrics.record_broadcast(num_records, nbytes)

    @property
    def value(self) -> T:
        return self._value

    def __repr__(self) -> str:
        return "Broadcast(id=%d)" % self.id
