"""Admission control and per-tenant fair-share scheduling.

The service protects itself with a *bounded* wait queue: a request that
arrives while every pooled engine is busy and the queue is full is
rejected immediately (:class:`AdmissionRejectedError`), which keeps tail
latency bounded instead of letting the queue grow without limit -- the
workload-aware-scheduling dimension the Ali et al. RDF-store survey
treats as first class.

Dequeueing is fair-share across tenants, not FIFO: each tenant has its
own FIFO lane, and the scheduler always serves the tenant that has had
the *least virtual service time* so far (deficit round robin with cost
units as the currency, ties broken by tenant name for determinism).  A
tenant flooding the queue therefore cannot starve a light tenant: the
light tenant's next request jumps ahead of the flood.

Everything here is pure data structure -- no clocks, no randomness --
so a given arrival sequence always produces the same admission decisions
and the same dequeue order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class AdmissionRejectedError(RuntimeError):
    """The bounded queue was full when the request arrived.

    Typed like the fault layer's errors so callers can tell back-pressure
    apart from execution failures; carries the queue state that caused
    the rejection.
    """

    def __init__(self, tenant: str, queue_depth: int, queue_limit: int) -> None:
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit
        super().__init__()

    def __str__(self) -> str:
        return (
            "admission rejected for tenant %r: queue full (%d/%d waiting)"
            % (self.tenant, self.queue_depth, self.queue_limit)
        )


class FairShareQueue(Generic[T]):
    """Per-tenant FIFO lanes served least-virtual-service-first.

    :meth:`offer` enqueues (or raises :class:`AdmissionRejectedError`
    when *queue_limit* waiters already exist); :meth:`take` pops the
    next request; :meth:`charge` reports the cost units a tenant's
    dispatched request ended up consuming, which is what future
    scheduling decisions are based on.
    """

    def __init__(self, queue_limit: int = 8) -> None:
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.queue_limit = queue_limit
        self._lanes: Dict[str, Deque[T]] = {}
        self._service_units: Dict[str, int] = {}
        self._waiting = 0

    def __len__(self) -> int:
        return self._waiting

    def offer(self, tenant: str, item: T) -> None:
        """Enqueue *item* for *tenant*, or raise when the queue is full."""
        if self._waiting >= self.queue_limit:
            raise AdmissionRejectedError(
                tenant, self._waiting, self.queue_limit
            )
        self._lanes.setdefault(tenant, deque()).append(item)
        self._service_units.setdefault(tenant, 0)
        self._waiting += 1

    def take(self) -> Optional[Tuple[str, T]]:
        """(tenant, item) for the next request to serve, or None.

        Chooses the non-empty lane whose tenant has accumulated the
        least service so far; ties break on tenant name so the order is
        reproducible.
        """
        candidates = sorted(
            (
                (self._service_units.get(tenant, 0), tenant)
                for tenant, lane in self._lanes.items()
                if lane
            ),
        )
        if not candidates:
            return None
        _, tenant = candidates[0]
        item = self._lanes[tenant].popleft()
        self._waiting -= 1
        return tenant, item

    def charge(self, tenant: str, units: int) -> None:
        """Bill *units* of virtual service time to *tenant*."""
        self._service_units[tenant] = (
            self._service_units.get(tenant, 0) + units
        )

    def drain(self) -> List[Tuple[str, T]]:
        """Pop everything in fair-share order (used at shutdown)."""
        out: List[Tuple[str, T]] = []
        while True:
            nxt = self.take()
            if nxt is None:
                return out
            out.append(nxt)
