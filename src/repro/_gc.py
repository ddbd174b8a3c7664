"""The cyclic collector, paused for one unit of work.

A unit of work -- a store build, a query, a served request -- allocates
and frees a great many objects, none of them in reference cycles:
reference counting frees all of it.  Left running, CPython's
cyclic collector still walks the long-lived heap (graph indexes, engine
stores, catalogs) whenever the allocations of a unit cross its
thresholds, and frees nothing.  :func:`paused_collector` keeps it off
for the length of the unit; it runs again between units.

``gc.disable`` is process-wide, like ``gc.freeze``; ``src/`` starts no
threads, so no other thread's unit is affected (docs/ARCHITECTURE.md,
"The cyclic collector").  A forked worker turns the collector back on
itself (``repro.spark.parallel``): a pool forked inside a paused unit
would otherwise never collect.  This module imports only ``gc`` and
``contextlib``, so every layer may import it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_collector() -> Iterator[None]:
    """Disable the cyclic collector for the body, and enable it again
    after, also when the body raises.  A collector that is already off
    -- the caller's choice, or an enclosing unit's pause -- is left as it
    is, so uses nest."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
