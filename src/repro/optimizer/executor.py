"""Executes a :class:`~repro.optimizer.planner.BgpPlan` on any engine.

The executor only asks an engine for what every engine already provides:
``_evaluate_bgp([pattern])`` -- the bindings of one triple pattern through
the engine's own storage and partitioning (the same call the shared
DESCRIBE path uses).  Everything after the leaf scans runs on the common
RDD machinery, so the physical strategy the planner picked is charged to
the simulated cluster's real counters.  :func:`run_steps` is the one join
layer, for the optimizer's plans and for SPARQL-Hybrid's greedy policy
(``HybridEngine._plan``), which alone emits ``hash``, ``colocated`` and
``broadcast_accumulated``.

``shuffle`` / ``local``
    Both sides are keyed by the join variables and hash-joined.  The
    accumulated side stays *keyed and partitioned* between steps
    (``preserves_partitioning``), so a ``local`` step's
    ``partitionBy`` is a genuine no-op -- only the fresh side moves.
``broadcast`` / ``broadcast_accumulated``
    The fresh pattern's (accumulated side's) bindings are collected,
    broadcast (``broadcast_bytes`` charged), and probed partition-locally
    by the other side without disturbing its keying or partitioning.
``cartesian`` / ``hash``
    ``join_rows``: the product (no shared variable) or the keyed
    hash join, leaving plain rows.
``colocated``
    Both sides keyed by their one shared subject and placed as the store
    places subjects: rows still where the store put them stay put.

Every RDD here holds rows over its ``header`` (or ``(key, row)`` pairs,
their rows over it); a step's output header and its key and merge
kernels come from :class:`~repro.spark.rows.RowJoin`, once per step.

Tracing: when the context's tracer is on, every step emits a ``bgp_step``
span (name = strategy) carrying ``est_rows`` and, because the step's
output is materialized inside the span, ``actual_rows`` -- the pair the
q-error accounting (:func:`collect_q_errors`) and EXPLAIN read.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.spark.kernels import comprehension
from repro.spark.metrics import RowTable
from repro.spark.partitioner import HashPartitioner
from repro.spark.rdd import RDD
from repro.spark.rows import RowJoin, join_rows, keyer, rows
from repro.spark.tracing import Span
from repro.optimizer.planner import BgpPlan, JoinStep
from repro.systems.base import compile_pattern


class _State:
    """The accumulated side: an RDD of rows, of ``(key, row)`` pairs
    when *key* is set."""

    def __init__(self, rdd: RDD, key: Optional[Tuple[str, ...]] = None):
        self.rdd = rdd
        self.key = key

    def bindings(self) -> RDD:
        """The plain rows view (drops keying, costs nothing extra)."""
        if self.key is None:
            return self.rdd
        return rows(self.rdd.values(), self.rdd.header)


def execute_plan(engine, plan: BgpPlan, view_catalog=None) -> RDD:
    """Run *plan* on *engine*, returning an RDD of rows.

    When *view_catalog* is given, steps the planner annotated with a
    :class:`~repro.optimizer.planner.ViewChoice` read their leaf bindings
    from the materialized ExtVP view instead of the engine's base
    representation (a ``view`` span records est/actual rows).
    """
    return run_steps(
        engine.ctx,
        plan.steps,
        lambda step: _leaf_scan(engine, step, view_catalog),
    )


def run_steps(
    ctx, steps: Sequence[JoinStep], scan: Callable[[JoinStep], RDD]
) -> RDD:
    """The rows of *steps*, each step's pattern read by *scan* right
    before its join (so RDDs are allocated in step order)."""
    tracer = ctx.tracer
    state: Optional[_State] = None
    for step in steps:
        # The pattern repr is built only for a span.
        attrs = _step_attrs(step) if tracer.enabled else {}
        with tracer.span(
            "bgp_step",
            name=step.strategy,
            **attrs,
        ) as span:
            state = _apply_step(ctx, state, step, scan(step))
            count = tracer.materialize(state.rdd)
            if span is not None:
                span.attrs["actual_rows"] = count
    assert state is not None
    return state.bindings()


def _step_attrs(step: JoinStep) -> Dict[str, object]:
    attrs: Dict[str, object] = {"est_rows": round(step.est_rows, 2)}
    if step.strategy == "scan":
        attrs["pattern"] = repr(step.pattern)
    else:
        attrs["on"] = ",".join(step.shared)
        attrs["est_build"] = round(step.est_build, 2)
    if step.view is not None:
        attrs["view"] = step.view.name
    return attrs


def _apply_step(
    ctx, state: Optional[_State], step: JoinStep, fresh: RDD
) -> _State:
    if state is None:
        return _State(fresh)
    strategy, shared = step.strategy, step.shared
    if strategy in ("cartesian", "hash"):
        return _State(join_rows(state.bindings(), fresh, shared))
    if strategy == "broadcast":
        return _broadcast_join(ctx, state, fresh, shared)
    if strategy == "broadcast_accumulated":
        return _broadcast_join(ctx, _State(fresh), state.bindings(), shared)
    if strategy == "colocated":
        return _colocated_join(ctx, state.bindings(), fresh, shared)
    return _partitioned_join(ctx, state, fresh, shared)


def _leaf_scan(engine, step: JoinStep, view_catalog) -> RDD:
    """One pattern's rows: the chosen view, or the engine's base scan."""
    if step.view is None or view_catalog is None:
        return engine._evaluate_bgp([step.pattern])
    view = view_catalog.get(step.view.key)
    if view is None:  # catalog changed under the plan -- stay correct
        return engine._evaluate_bgp([step.pattern])
    return _view_scan(engine, step, view)


def _view_scan(engine, step: JoinStep, view) -> RDD:
    """Rows of *step*'s pattern read from a materialized view.

    The view stores the (subject, object) rows of ``p1``'s partition that
    survive the semi-join; bound subject/object slots of the pattern
    filter rows, variable slots bind them (a repeated variable must match
    itself, as in the base scan): the pattern compiled over the layout
    SPARQLGX scans its predicate stores with.  Rows arrive sorted by N3
    text, so the resulting RDD is deterministic.
    """
    pattern = step.pattern
    layout = ("t[0]", pattern.predicate, "t[1]")
    match = compile_pattern(pattern, layout)
    found = match.scan(view.rows())
    ctx = engine.ctx
    ctx.metrics.incr("view_scans")
    tracer = ctx.tracer
    with tracer.span(
        "view",
        name=view.name,
        est_rows=step.view.rows,
        base_rows=step.view.base_rows,
        factor=round(view.factor, 6),
    ) as span:
        rdd = rows(ctx.parallelize(found), match.header)
        count = tracer.materialize(rdd)
        if span is not None:
            span.attrs["actual_rows"] = count
    return rdd


def _partitioned_join(
    ctx, state: _State, fresh: RDD, shared: Tuple[str, ...]
) -> _State:
    """The shuffle hash join; a no-op shuffle on the accumulated side when
    it is already partitioned on *shared* (the planner's ``local`` case)."""
    join = RowJoin(state.rdd.header, fresh.header, shared)
    if state.key == join.key:
        left = state.rdd
    else:
        accumulated = state.bindings()
        left = rows(
            accumulated.mapPartitions(keyer(join.key, accumulated.header)),
            accumulated.header,
        )
    right = rows(
        fresh.mapPartitions(keyer(join.key, fresh.header)), fresh.header
    )
    joined = left.join(right, num_partitions=ctx.default_parallelism)
    merged = joined.mapPartitions(
        join.kernel("(k, {row})", "k, (l, r)"), preserves_partitioning=True
    )
    return _State(rows(merged, join.header), key=join.key)


def _colocated_join(
    ctx, accumulated: RDD, fresh: RDD, shared: Tuple[str, ...]
) -> _State:
    """Key both sides by the bare value of their one shared variable (a
    1-tuple key would hash elsewhere) and place them as the store is."""
    (name,) = shared
    join = RowJoin(accumulated.header, fresh.header, shared)

    def keyed(side: RDD) -> RDD:
        key = comprehension("key", "(r[%d], r)" % side.header.index(name), "r")
        return rows(side.mapPartitions(key), side.header)

    left, right = keyed(accumulated), keyed(fresh)
    partitioner = HashPartitioner(ctx.default_parallelism)
    placed = left.partitionBy(partitioner).join(right.partitionBy(partitioner))
    return _State(rows(placed.mapPartitions(join.pairs()), join.header))


def _broadcast_join(
    ctx, probe: _State, build: RDD, shared: Tuple[str, ...]
) -> _State:
    """Broadcast *build*'s rows; probe *probe*'s in place."""
    join = RowJoin(probe.rdd.header, build.header, shared)
    keyed_build = keyer(join.key, build.header)
    hashed = RowTable(build.header)
    for part in build._materialize():
        for key, row in keyed_build(part):
            hashed.setdefault(key, []).append(row)
    bcast = ctx.broadcast(hashed)
    metrics = ctx.metrics
    keyed = probe.key is not None
    keyed_probe = keyer(join.key, probe.rdd.header)
    extend = join.extend()

    def probe_part(part: List[object]) -> List[object]:
        table = bcast.value
        out: List[object] = []
        comparisons = 0
        probed = [item[1] for item in part] if keyed else part
        for item, (key, l) in zip(part, keyed_probe(probed)):
            matches = table.get(key)
            if matches:
                comparisons += len(matches)
                merged = extend(matches, l)
                out += [(item[0], row) for row in merged] if keyed else merged
            else:
                comparisons += 1
        metrics.record_join(comparisons, len(part), len(out))
        return out

    probed = probe.rdd.mapPartitions(probe_part, preserves_partitioning=True)
    return _State(rows(probed, join.header), key=probe.key)


# ----------------------------------------------------------------------
# q-error accounting
# ----------------------------------------------------------------------


def q_error(estimated: float, actual: float) -> float:
    """The symmetric under/over-estimation factor, smoothed at one row."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def collect_q_errors(spans: Sequence[Span]) -> List[Tuple[str, float]]:
    """(strategy, q-error) for every traced optimizer step with both an
    estimate and an actual count."""
    out: List[Tuple[str, float]] = []
    for root in spans:
        for span in root.walk():
            if span.kind != "bgp_step":
                continue
            if "est_rows" not in span.attrs or "actual_rows" not in span.attrs:
                continue
            out.append(
                (
                    span.name,
                    q_error(
                        float(span.attrs["est_rows"]),
                        float(span.attrs["actual_rows"]),
                    ),
                )
            )
    return out
