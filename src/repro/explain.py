"""EXPLAIN: per-operator cost trees for queries on the simulated cluster.

The paper's Table II makes *qualitative* claims about where each engine
pays its cost (shuffle volume, join comparisons, broadcast size).  This
module turns those claims into evidence the way the S2RDF and Naacke et
al. evaluations do: run the query with the context's
:class:`~repro.spark.tracing.Tracer` enabled and render the recorded span
tree -- the algebra/physical plan -- with each operator annotated by the
metric deltas it caused.

Entry points:

* :func:`run_traced` -- one (engine, query) execution returning an
  :class:`EngineExplain` with the span tree and flat totals.
* :func:`explain` -- side-by-side cost trees for several engines,
  rendered as text (the backend of ``python -m repro explain``).
* :func:`trace_file_payload` -- the JSON document written by the CLI's
  ``--trace FILE`` flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Type, Union

from repro.rdf.graph import RDFGraph
from repro.runtime import RuntimeConfig, resolve_engine, write_text
from repro.spark.metrics import MetricsSnapshot
from repro.spark.tracing import (
    Span,
    TRACE_FORMAT_VERSION,
    render_trace,
    trace_totals,
)
from repro.sparql.ast import Query, where_patterns
from repro.sparql.parser import parse_sparql
from repro.stats import StatsCatalog
from repro.systems.base import SparkRdfEngine, UnsupportedQueryError

#: Engines shown by ``repro explain`` when none are named: one vertical-
#: partitioning system, one SQL-compiling system, one hash-fragmenting
#: system -- three different cost profiles for the same query.
DEFAULT_EXPLAIN_ENGINES = ("SPARQLGX", "S2RDF", "HAQWA")


@dataclass
class EngineExplain:
    """One traced (engine, query) execution."""

    engine: str
    supported: bool
    rows: Optional[int]
    spans: List[Span] = field(default_factory=list)
    totals: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    error: str = ""
    #: Closures checked by the opt-in worker-boundary verifier, or None
    #: when the run executed without ``verify_closures``.
    closures_verified: Optional[int] = None

    def render(self) -> str:
        header = "== %s ==" % self.engine
        if not self.supported:
            return "%s\nunsupported: %s" % (header, self.error)
        totals_line = "totals: %s" % (
            " ".join(
                "%s=%d" % (counter, value)
                for counter, value in self.totals
                if value
            )
            or "(no cost charged)"
        )
        body = render_trace(self.spans)
        rows_line = "rows: %s" % self.rows
        return "\n".join([header, rows_line, totals_line, body])


def run_traced(
    graph: RDFGraph,
    query: Union[str, Query],
    engine_cls: Type[SparkRdfEngine],
    config: RuntimeConfig = RuntimeConfig(),
    optimizer=None,
    catalog=None,
) -> EngineExplain:
    """Load *engine_cls* on a fresh context and execute *query* traced.

    The store build runs untraced (load cost is not query cost); tracing
    brackets exactly the ``execute`` call, so the root ``query`` span's
    inclusive delta equals the flat snapshot difference of the run.

    Pass an :class:`~repro.optimizer.Optimizer` to run the cost-based
    path: the trace then carries its ``optimize`` span (chosen order and
    strategies) and per-step estimated vs. actual row counts; *catalog*
    hands down *graph*'s statistics when the caller already holds them.
    Under ``config.verify_closures`` the context enforces the
    worker-boundary rules at job submission (a violation raises
    :exc:`repro.analysis.closures.ClosureAnalysisError`) and the result
    carries the number of closures checked.
    """
    engine = config.engine(
        engine_cls, graph, catalog=catalog, optimizer=optimizer
    )
    try:
        run = engine.measure(query, trace=True)
    except UnsupportedQueryError as exc:
        return EngineExplain(
            engine=engine.profile.name,
            supported=False,
            rows=None,
            error=str(exc),
        )
    return EngineExplain(
        engine=engine.profile.name,
        supported=True,
        rows=run.rows,
        spans=run.spans,
        totals=run.cost,
        closures_verified=(
            engine.ctx.metrics.get("closures_verified")
            if config.verify_closures
            else None
        ),
    )


def explain(
    graph: RDFGraph,
    query: Union[str, Query],
    engines: Sequence[Union[str, Type[SparkRdfEngine]]] = DEFAULT_EXPLAIN_ENGINES,
    config: RuntimeConfig = RuntimeConfig(),
    shapes=None,
) -> str:
    """Side-by-side per-operator cost trees for *query* on *engines*.

    One statistics catalog is computed for *graph*; the optimizer, every
    engine that plans from statistics, the linter and routing read it.
    Under ``config.optimize`` every engine runs the shared cost-based
    plan, so the sections compare engines under identical join orders
    and strategies.
    With ``views`` on top, materialized ExtVP views are built at
    ``view_threshold`` and a ``views:`` preamble block reports which
    views the plan substitutes and why.  With ``route`` a ``routing:``
    block shows where a fresh adaptive :class:`repro.routing.RoutingPolicy`
    over ``route_engines`` would dispatch the query and at what priced
    bids.  With a :class:`~repro.shacl.shapes.ShapeSet` in ``shapes``, a
    ``shacl:`` block inventories the shape set's compiled validation
    queries and marks the one being explained (if any), placing the
    query inside the validation fan-out it belongs to.  With
    ``verify_closures`` every engine context enforces the
    worker-boundary rules at job submission and a ``closures:`` block
    reports how many closures each engine cleared.

    Preamble blocks (closure verification, lint findings, routing
    decision, shacl inventory, view substitutions) render above the
    per-engine sections in **sorted key order** -- the order is a
    stable function of which blocks are non-empty, never of feature
    flags or evaluation order (pinned by ``tests/test_explain.py``).
    """
    if isinstance(query, str):
        query = parse_sparql(query)
    classes = [
        resolve_engine(engine) if isinstance(engine, str) else engine
        for engine in engines
    ]
    catalog = StatsCatalog.from_graph(graph)
    optimizer = config.optimizer(graph, catalog=catalog)
    # Engine runs happen first: the ``closures:`` preamble block reports
    # what the verifier actually checked during them.  Section order is
    # unchanged -- preamble blocks still render above every engine.
    runs = [
        run_traced(graph, query, cls, config, optimizer, catalog)
        for cls in classes
    ]
    preamble: Dict[str, str] = {
        "closures": _closures_section(runs, config.verify_closures),
        "lint": _lint_section(query, catalog, config),
        "routing": _routing_section(query, graph, catalog, config),
        "shacl": _shacl_section(query, shapes),
        "views": _views_section(query, optimizer),
    }
    sections: List[str] = [
        preamble[key] for key in sorted(preamble) if preamble[key]
    ]
    sections.extend(run.render() for run in runs)
    return "\n\n".join(sections)


def _closures_section(
    runs: Sequence[EngineExplain], verify_closures: bool
) -> str:
    """The closure-verification preamble of an EXPLAIN, empty unless
    asked.

    Every closure a lineage submits was analyzed against the
    worker-boundary rules (CL000..CL007) before any partition computed;
    reaching this render at all means none was rejected, so the block
    simply accounts for the coverage per engine.
    """
    if not verify_closures:
        return ""
    total = sum(run.closures_verified or 0 for run in runs)
    lines = [
        "closures: %d closure(s) verified against the worker-boundary "
        "rules, 0 rejected" % total
    ]
    lines.extend(
        "  %s: %d verified" % (run.engine, run.closures_verified or 0)
        for run in runs
    )
    return "\n".join(lines)


def _lint_section(query: Query, catalog, config: RuntimeConfig) -> str:
    """The static-lint preamble of an EXPLAIN, empty when clean.

    Findings apply to the query, not to any engine, so they render once
    above the per-engine sections (and deliberately without the
    ``== name ==`` header engines use).
    """
    from repro.analysis import lint_query

    report = lint_query(
        query,
        subject="query",
        catalog=catalog,
        broadcast_threshold=config.broadcast_threshold,
        mode=config.optimizer_mode,
    )
    if not report.diagnostics:
        return ""
    lines = [
        "lint: %d error(s), %d warning(s)"
        % (report.count("error"), report.count("warning"))
    ]
    lines.extend(
        "  " + diagnostic.render()
        for diagnostic in report.sorted_diagnostics()
    )
    return "\n".join(lines)


def _routing_section(
    query: Query, graph: RDFGraph, catalog, config: RuntimeConfig
) -> str:
    """The adaptive-routing preamble of an EXPLAIN, empty unless asked.

    Shows where a *fresh* (prior-only, zero observations) policy would
    dispatch the query: shape, base cost, the priced bid of every
    fragment-eligible pool engine, and which pool engines the fragment
    check excluded.  Like lint and views, this is a property of the
    query and the catalog, not of any engine section below it.
    """
    if not config.route:
        return ""
    from repro.routing import RoutingPolicy

    policy = RoutingPolicy.for_graph(
        graph,
        engines=config.route_engines,
        mode=config.optimizer_mode,
        broadcast_threshold=config.broadcast_threshold,
        catalog=catalog,
    )
    return policy.decide(query).render()


def _shacl_section(query: Query, shapes) -> str:
    """The shape-inventory preamble of an EXPLAIN, empty without shapes.

    Lists every compiled validation query of the shape set (class probes
    are value-dependent and generated during validation, so they cannot
    be inventoried statically) and marks the one whose parsed form
    equals the explained query -- placing the query inside the
    validation fan-out it belongs to.
    """
    if shapes is None:
        return ""
    from repro.shacl.compile import compile_shape_set

    compiled = compile_shape_set(shapes)
    lines = [
        "shacl: %d shape(s) compiling to %d validation queries "
        "(+ per-value class probes at run time)"
        % (len(shapes), len(compiled))
    ]
    for item in compiled:
        marker = (
            "  <- the explained query"
            if parse_sparql(item.text) == query
            else ""
        )
        lines.append("  %s [%s]%s" % (item.id, item.kind, marker))
    return "\n".join(lines)


def _views_section(query: Query, optimizer) -> str:
    """The materialized-view preamble of an EXPLAIN, empty without views.

    Shows what the shared plan substitutes *before* any engine runs: for
    every substituted pattern, the chosen view, its exact row count
    against the base partition it dominates, its build-time selectivity
    factor, and the partner pattern whose predicate justifies the
    semi-join reduction.  Like lint findings, this is a property of the
    query plan, not of any engine, so it renders once.
    """
    if optimizer is None or getattr(optimizer, "view_catalog", None) is None:
        return ""
    catalog = optimizer.view_catalog
    lines = [
        "views: %d materialized, %d rows (threshold=%s, version=%d)"
        % (
            len(catalog),
            catalog.total_rows(),
            catalog.threshold,
            catalog.version,
        )
    ]
    plan = optimizer.plan_bgp(where_patterns(query))
    chosen = [step for step in plan.steps if step.view is not None]
    if not chosen:
        lines.append(
            "  no substitution: no view strictly dominates a base scan"
        )
    for step in chosen:
        choice = step.view
        lines.append(
            "  pattern %d <- %s: %d rows vs %d base (factor=%s),"
            " justified by pattern %d"
            % (
                step.index,
                choice.name,
                choice.rows,
                choice.base_rows,
                round(choice.factor, 6),
                choice.partner,
            )
        )
    return "\n".join(lines)


def run_record(
    engine: str,
    query: str,
    totals: MetricsSnapshot,
    spans: Sequence[Span],
) -> Dict[str, Any]:
    """One ``runs[]`` entry of a trace file."""
    return {
        "engine": engine,
        "query": query,
        "totals": {counter: value for counter, value in totals if value},
        "spans": [span.to_dict() for span in spans],
    }


def trace_file_payload(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The document ``--trace FILE`` writes: one record per traced run."""
    return {"version": TRACE_FORMAT_VERSION, "runs": list(records)}


def write_trace_file(path: str, records: Sequence[Dict[str, Any]]) -> None:
    write_text(
        path,
        json.dumps(trace_file_payload(records), indent=2, sort_keys=True)
        + "\n",
    )


def verify_conservation(run: EngineExplain) -> Dict[str, Any]:
    """Check that the run's span deltas reproduce its flat totals.

    Returns an empty dict when they match; otherwise a mapping of counter
    name to (flat total, trace total).  Used by tests and by doubting
    readers of trace files.
    """
    from_spans = trace_totals(run.spans)
    names = {counter for counter, _ in run.totals} | {
        counter for counter, _ in from_spans
    }
    return {
        counter: (run.totals[counter], from_spans[counter])
        for counter in sorted(names)
        if run.totals[counter] != from_spans[counter]
    }
