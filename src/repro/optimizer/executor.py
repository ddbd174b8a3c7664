"""Executes a :class:`~repro.optimizer.planner.BgpPlan` on any engine.

The executor only asks an engine for what every engine already provides:
``_evaluate_bgp([pattern])`` -- the bindings of one triple pattern through
the engine's own storage and partitioning (the same call the shared
DESCRIBE path uses).  Everything after the leaf scans runs on the common
RDD machinery, so the physical strategy the planner picked is charged to
the simulated cluster's real counters:

``shuffle`` / ``local``
    Both sides are keyed by the join variables and hash-joined.  The
    accumulated side stays *keyed and partitioned* between steps
    (``preserves_partitioning``), so a ``local`` step's
    ``partitionBy`` is a genuine no-op -- only the fresh side moves.
``broadcast``
    The fresh pattern's bindings are collected, broadcast
    (``broadcast_bytes`` charged), and probed partition-locally on the
    accumulated side without disturbing its keying or partitioning.
``cartesian``
    The nested-loop product, for disconnected BGPs.

Tracing: when the context's tracer is on, every step emits a ``bgp_step``
span (name = strategy) carrying ``est_rows`` and, because the step's
output is materialized inside the span, ``actual_rows`` -- the pair the
q-error accounting (:func:`collect_q_errors`) and EXPLAIN read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.spark.rdd import RDD
from repro.spark.tracing import Span
from repro.optimizer.planner import BgpPlan, JoinStep
from repro.systems.base import (
    compile_pattern,
    hash_join_bindings,
    key_bindings,
    keyer,
)

Binding = Dict[str, object]


class _State:
    """The accumulated side: a bindings RDD, keyed when *key* is set."""

    def __init__(self, rdd: RDD, key: Optional[Tuple[str, ...]] = None):
        self.rdd = rdd
        self.key = key

    def bindings(self) -> RDD:
        """The plain bindings view (drops keying, costs nothing extra)."""
        return self.rdd.values() if self.key is not None else self.rdd

    def keyed_by(self, names: Tuple[str, ...]) -> RDD:
        """The (key, binding) view for the given join variables."""
        if self.key == names:
            return self.rdd
        return key_bindings(self.bindings(), names)


def execute_plan(engine, plan: BgpPlan, view_catalog=None) -> RDD:
    """Run *plan* on *engine*, returning an RDD of bindings.

    When *view_catalog* is given, steps the planner annotated with a
    :class:`~repro.optimizer.planner.ViewChoice` read their leaf bindings
    from the materialized ExtVP view instead of the engine's base
    representation (a ``view`` span records est/actual rows).
    """
    ctx = engine.ctx
    tracer = ctx.tracer
    state: Optional[_State] = None
    for step in plan.steps:
        # The pattern repr is built only for a span.
        attrs = _step_attrs(step) if tracer.enabled else {}
        with tracer.span(
            "bgp_step",
            name=step.strategy,
            **attrs,
        ) as span:
            state = _apply_step(engine, state, step, view_catalog)
            rows = tracer.materialize(state.rdd)
            if span is not None:
                span.attrs["actual_rows"] = rows
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
    engine, state: Optional[_State], step: JoinStep, view_catalog=None
) -> _State:
    fresh = _leaf_scan(engine, step, view_catalog)
    if state is None:
        return _State(fresh)
    if step.strategy == "cartesian":
        return _State(hash_join_bindings(state.bindings(), fresh, ()))
    if step.strategy == "broadcast":
        return _broadcast_join(engine.ctx, state, fresh, step.shared)
    return _partitioned_join(engine.ctx, state, fresh, step.shared)


def _leaf_scan(engine, step: JoinStep, view_catalog) -> RDD:
    """One pattern's bindings: the chosen view, or the engine's base scan."""
    if step.view is None or view_catalog is None:
        return engine._evaluate_bgp([step.pattern])
    view = view_catalog.get(step.view.key)
    if view is None:  # catalog changed under the plan -- stay correct
        return engine._evaluate_bgp([step.pattern])
    return _view_scan(engine, step, view)


def _view_scan(engine, step: JoinStep, view) -> RDD:
    """Bindings of *step*'s pattern read from a materialized view.

    The view stores the (subject, object) rows of ``p1``'s partition that
    survive the semi-join; bound subject/object slots of the pattern
    filter rows, variable slots bind them (a repeated variable must match
    itself, as in the base scan): the pattern compiled over the layout
    SPARQLGX scans its predicate stores with.  Rows arrive sorted by N3
    text, so the resulting RDD is deterministic.
    """
    pattern = step.pattern
    layout = ("t[0]", pattern.predicate, "t[1]")
    bindings = compile_pattern(pattern, layout).scan(view.rows())
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
        rdd = ctx.parallelize(bindings)
        rows = tracer.materialize(rdd)
        if span is not None:
            span.attrs["actual_rows"] = rows
    return rdd


def _partitioned_join(
    ctx, state: _State, fresh: RDD, shared: Tuple[str, ...]
) -> _State:
    """The shuffle hash join; a no-op shuffle on the accumulated side when
    it is already partitioned on *shared* (the planner's ``local`` case)."""
    left = state.keyed_by(shared)
    right = key_bindings(fresh, shared)
    joined = left.join(right, num_partitions=ctx.default_parallelism)
    merged = joined.mapPartitions(
        lambda part: [(key, {**l, **r}) for key, (l, r) in part],
        preserves_partitioning=True,
    )
    return _State(merged, key=shared)


def _broadcast_join(
    ctx, state: _State, fresh: RDD, shared: Tuple[str, ...]
) -> _State:
    """Broadcast the fresh side; probe the accumulated side in place."""
    keyed_part = keyer(shared)
    build: Dict[Tuple[object, ...], List[Binding]] = {}
    for part in fresh._materialize():
        for key, binding in keyed_part(part):
            build.setdefault(key, []).append(binding)
    bcast = ctx.broadcast(build)
    metrics = ctx.metrics
    keyed = state.key is not None

    def probe(part: List[object]) -> List[object]:
        table = bcast.value
        out: List[object] = []
        comparisons = 0
        bindings = [item[1] for item in part] if keyed else part
        for item, (key, binding) in zip(part, keyed_part(bindings)):
            matches = table.get(key)
            if matches:
                comparisons += len(matches)
                for build_binding in matches:
                    merged = {**binding, **build_binding}
                    out.append((item[0], merged) if keyed else merged)
            else:
                comparisons += 1
        metrics.record_join(comparisons, len(part), len(out))
        return out

    probed = state.rdd.mapPartitions(probe, preserves_partitioning=True)
    return _State(probed, key=state.key)


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
