"""Pregel: bulk-synchronous vertex programs on top of aggregateMessages.

The iterative "exchange messages until match sets stop changing" loops of
S2X and Spar(k)ql are Pregel computations; this module provides the loop.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.spark.graphx.graph import EdgeContext, Graph


def pregel(
    graph: Graph,
    initial_message: Any,
    vprog: Callable[[Any, Any, Any], Any],
    send: Callable[[EdgeContext], None],
    merge: Callable[[Any, Any], Any],
    max_iterations: int = 20,
) -> Graph:
    """Run a Pregel computation and return the final graph.

    Semantics follow GraphX:

    1. Every vertex first runs ``vprog(id, attr, initial_message)``.
    2. Each superstep evaluates *send* on every triplet (the send function
       sees current attributes and may message either endpoint), merges
       messages per vertex with *merge*, then applies *vprog* to the
       vertices that received messages.
    3. The loop stops when no messages were produced or after
       *max_iterations* supersteps.
    """
    current = graph.mapVertices(
        lambda vid, attr: vprog(vid, attr, initial_message)
    )
    for _superstep in range(max_iterations):
        messages = current.aggregateMessages(send, merge).cache()
        if messages.isEmpty():
            break
        current = current.joinVertices(
            messages, lambda vid, attr, msg: vprog(vid, attr, msg)
        )
        current.vertices.cache()
    return current

