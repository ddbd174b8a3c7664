"""Tests for the span tracer: nesting, conservation, determinism, JSON."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data.lubm import LubmGenerator
from repro.runtime import build_engine
from repro.spark.context import SparkContext
from repro.spark.deadline import DeadlineExceededError
from repro.spark.tracing import (
    Span,
    Tracer,
    render_trace,
    trace_from_json,
    trace_to_json,
    trace_totals,
)
from repro.systems import HaqwaEngine, SparqlgxEngine


def traced_star_run(graph, engine_cls=SparqlgxEngine):
    """Run the LUBM star query traced on a fresh context."""
    sc = SparkContext(default_parallelism=4)
    engine = engine_cls(sc)
    engine.load(graph)
    sc.tracer.enable()
    before = sc.metrics.snapshot()
    result = engine.execute(LubmGenerator.query_star())
    delta = sc.metrics.snapshot() - before
    sc.tracer.disable()
    return sc.tracer.roots, delta, result


class TestSpanMechanics:
    def test_spans_nest_by_stack_order(self, sc):
        tracer = sc.tracer.enable()
        with tracer.span("query", name="outer"):
            with tracer.span("bgp"):
                with tracer.span("scan"):
                    pass
            with tracer.span("join"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.kind == "query" and root.name == "outer"
        assert [child.kind for child in root.children] == ["bgp", "join"]
        assert [child.kind for child in root.children[0].children] == ["scan"]

    def test_seq_is_creation_order(self, sc):
        tracer = sc.tracer.enable()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        a = tracer.roots[0]
        b, c = a.children
        assert a.seq < b.seq < c.seq

    def test_disabled_tracer_records_nothing(self, sc):
        with sc.tracer.span("query") as span:
            assert span is None
        assert sc.tracer.roots == []

    def test_clear_resets_state(self, sc):
        tracer = sc.tracer.enable()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.roots == [] and tracer.current is None
        with tracer.span("b"):
            pass
        assert tracer.roots[0].seq == 0

    def test_span_attrs_can_be_amended_mid_flight(self, sc):
        tracer = sc.tracer.enable()
        with tracer.span("shuffle") as span:
            span.attrs["records"] = 7
        assert tracer.roots[0].attrs["records"] == 7

    def test_exception_still_closes_span(self, sc):
        tracer = sc.tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("query"):
                raise RuntimeError("boom")
        assert tracer.current is None
        assert [span.kind for span in tracer.roots] == ["query"]


SHAPES = Path(__file__).resolve().parents[2] / "examples/queries/shapes"
#: The engines the wall-clock benchmark times (``warm_engines``).
LEDGER_ENGINES = (
    "Naive", "SPARQLGX", "S2RDF", "HAQWA", "SPARQL-Hybrid", "Spar(k)ql",
)


class TestTracerContract:
    """What every ``with tracer.span(...)`` site relies on.  Span order
    and ``seq`` are pinned per engine configuration by the raw-trace
    shas of ``tests/systems/test_engine_pins.py``."""

    def test_disabled_span_is_one_shared_scope(self, sc):
        scope = sc.tracer.span("query")
        assert sc.tracer.span("scan", name="rdd1", partition=0) is scope
        assert SparkContext(2).tracer.span("bgp") is scope

    @pytest.mark.parametrize("engine_name", LEDGER_ENGINES)
    def test_untraced_measure_builds_no_span(
        self, engine_name, lubm_graph, monkeypatch
    ):
        engine = build_engine(engine_name, lubm_graph)
        queries = [
            (SHAPES / "star" / "professor_profile.rq").read_text(),
            (SHAPES / "snowflake" / "advising_pair.rq").read_text(),
        ]
        built = []
        construct = Span.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        for query in queries:
            assert engine.measure(query).rows > 0
        assert built == []
        # The counter does count: the same query traced builds spans.
        assert engine.measure(queries[0], trace=True).spans
        assert built

    def test_raising_span_is_attached_with_its_delta(self, lubm_graph):
        sc = SparkContext(default_parallelism=4)
        engine = SparqlgxEngine(sc).load(lubm_graph)
        tracer = sc.tracer.enable()
        before = sc.metrics.snapshot()
        sc.set_deadline(1)
        with pytest.raises(DeadlineExceededError):
            with tracer.span("request"):
                engine.execute(LubmGenerator.query_star())
        sc.set_deadline(None)
        spent = sc.metrics.snapshot() - before
        delta = {name: value for name, value in spent if value}
        assert tracer.current is None
        (request,) = tracer.roots
        (query,) = request.children
        assert query.kind == "query" and query.children
        assert query.metrics == request.metrics == delta
        assert delta["tasks"] > 0


class TestMetricDeltas:
    def test_sibling_deltas_sum_to_parent_delta(self, sc):
        """When all work happens inside children, siblings sum to parent."""
        tracer = sc.tracer.enable()
        with tracer.span("parent"):
            with tracer.span("left"):
                sc.metrics.incr("records_scanned", 10)
            with tracer.span("right"):
                sc.metrics.incr("records_scanned", 5)
                sc.metrics.incr("shuffle_records", 3)
        parent = tracer.roots[0]
        summed = {}
        for child in parent.children:
            for name, value in child.metrics.items():
                summed[name] = summed.get(name, 0) + value
        assert summed == parent.metrics
        assert parent.self_metrics == {}

    def test_self_metrics_excludes_children(self, sc):
        tracer = sc.tracer.enable()
        with tracer.span("parent"):
            sc.metrics.incr("tasks", 2)
            with tracer.span("child"):
                sc.metrics.incr("tasks", 5)
        parent = tracer.roots[0]
        assert parent.metrics == {"tasks": 7}
        assert parent.self_metrics == {"tasks": 2}

    def test_only_changed_counters_recorded(self, sc):
        tracer = sc.tracer.enable()
        sc.metrics.incr("records_scanned", 4)
        with tracer.span("idle"):
            pass
        assert tracer.roots[0].metrics == {}

    def test_trace_totals_equal_flat_snapshot(self, lubm_graph):
        """Acceptance: per-span deltas sum to the run's flat totals."""
        roots, delta, result = traced_star_run(lubm_graph)
        assert len(result) > 0
        totals = trace_totals(roots)
        for name, value in delta:
            assert totals[name] == value, name
        # ... and exclusive (self) deltas over the whole tree agree too.
        self_sum = {}
        for root in roots:
            for span in root.walk():
                for name, value in span.self_metrics.items():
                    self_sum[name] = self_sum.get(name, 0) + value
        assert self_sum == {name: value for name, value in delta if value}

    def test_trace_totals_for_local_engine(self, lubm_graph):
        roots, delta, _result = traced_star_run(lubm_graph, HaqwaEngine)
        totals = trace_totals(roots)
        for name, value in delta:
            assert totals[name] == value, name


class TestDeterminismAndJson:
    def test_traces_identical_across_runs(self, lubm_graph):
        roots_a, _d, _r = traced_star_run(lubm_graph)
        roots_b, _d, _r = traced_star_run(lubm_graph)
        assert trace_to_json(roots_a) == trace_to_json(roots_b)

    def test_json_round_trip(self, lubm_graph):
        roots, _delta, _result = traced_star_run(lubm_graph)
        restored = trace_from_json(trace_to_json(roots))
        assert restored == roots
        # Round-trip again: serialization is a fixed point.
        assert trace_to_json(restored) == trace_to_json(roots)

    def test_round_trip_preserves_structure(self):
        span = Span(
            "query",
            name="q",
            attrs={"engine": "X"},
            metrics={"tasks": 3},
            children=[Span("scan", metrics={"records_scanned": 7}, seq=1)],
        )
        restored = trace_from_json(trace_to_json([span]))[0]
        assert restored.kind == "query"
        assert restored.attrs == {"engine": "X"}
        assert restored.children[0].metrics == {"records_scanned": 7}
        assert restored.children[0].seq == 1

    def test_version_checked(self):
        with pytest.raises(ValueError):
            trace_from_json('{"version": 99, "spans": []}')

    def test_expected_span_kinds_present(self, lubm_graph):
        roots, _delta, _result = traced_star_run(lubm_graph)
        kinds = {span.kind for root in roots for span in root.walk()}
        assert {"query", "bgp", "bgp_step", "shuffle", "scan"} <= kinds


class TestRendering:
    def test_render_contains_labels_and_costs(self, lubm_graph):
        roots, _delta, _result = traced_star_run(lubm_graph)
        text = render_trace(roots)
        assert "query select" in text
        assert "bgp_step" in text
        assert "shuf=" in text and "scan=" in text

    def test_scan_runs_collapse(self, sc):
        tracer = sc.tracer.enable()
        with tracer.span("bgp"):
            for index in range(4):
                with tracer.span("scan", partition=index):
                    sc.metrics.incr("records_scanned", 10)
        text = render_trace(tracer.roots)
        assert "scan x4" in text
        assert "[scan=40]" in text
        full = render_trace(tracer.roots, collapse_scans=False)
        assert full.count("scan {partition=") == 4


class TestTracerIsolation:
    def test_each_context_owns_a_tracer(self):
        a, b = SparkContext(2), SparkContext(2)
        a.tracer.enable()
        with a.tracer.span("only-a"):
            pass
        assert b.tracer.roots == []
        assert not b.tracer.enabled

    def test_standalone_tracer(self):
        from repro.spark.metrics import MetricsCollector

        metrics = MetricsCollector()
        tracer = Tracer(metrics).enable()
        with tracer.span("s"):
            metrics.incr("tasks")
        assert tracer.roots[0].metrics == {"tasks": 1}
