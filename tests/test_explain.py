"""Tests for the EXPLAIN facility and its CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.data.lubm import LubmGenerator
from repro.data.watdiv import WatdivGenerator
from repro.explain import (
    DEFAULT_EXPLAIN_ENGINES,
    EngineExplain,
    explain,
    run_record,
    run_traced,
    verify_conservation,
)
from repro.rdf.ntriples import save_ntriples_file
from repro.runtime import RuntimeConfig, UnknownEngineError, resolve_engine
from repro.systems import HybridEngine, S2RdfEngine, SparqlgxEngine

STAR = LubmGenerator.query_star()
CHAIN = LubmGenerator.query_linear()


class TestRunTraced:
    def test_returns_spans_and_matching_totals(self, lubm_graph):
        run = run_traced(lubm_graph, STAR, SparqlgxEngine)
        assert run.supported and run.rows > 0
        assert run.spans and run.spans[0].kind == "query"
        assert verify_conservation(run) == {}

    def test_conservation_across_engines(self, lubm_graph):
        for name in DEFAULT_EXPLAIN_ENGINES:
            run = run_traced(lubm_graph, STAR, resolve_engine(name))
            assert verify_conservation(run) == {}, name

    def test_unsupported_query_reported(self, lubm_graph):
        run = run_traced(lubm_graph, LubmGenerator.query_filter(), HybridEngine)
        assert not run.supported
        assert run.rows is None
        assert "FILTER" in run.error or "filter" in run.error.lower()
        assert "unsupported" in run.render()

    def test_ask_query_rows(self, lubm_graph):
        ask = """
            PREFIX lubm: <http://repro.example.org/lubm#>
            ASK WHERE { ?s lubm:memberOf ?d }
        """
        run = run_traced(lubm_graph, ask, SparqlgxEngine)
        assert run.supported and run.rows == 1

    def test_tracer_left_disabled(self, lubm_graph):
        run_traced(lubm_graph, STAR, SparqlgxEngine)
        # A fresh run on a fresh context: the helper never leaks state into
        # subsequent contexts (ids restart, tracer off by default).
        from repro.spark.context import SparkContext

        assert not SparkContext(2).tracer.enabled


class TestExplainStability:
    @pytest.mark.parametrize("query", [STAR, CHAIN], ids=["star", "chain"])
    @pytest.mark.parametrize(
        "engine", [SparqlgxEngine, S2RdfEngine], ids=["sparqlgx", "s2rdf"]
    )
    def test_output_stable_across_runs(self, lubm_graph, query, engine):
        first = explain(lubm_graph, query, [engine])
        second = explain(lubm_graph, query, [engine])
        assert first == second

    def test_explain_renders_cost_tree(self, lubm_graph):
        text = explain(lubm_graph, STAR, [SparqlgxEngine])
        assert "== SPARQLGX ==" in text
        assert "rows:" in text and "totals:" in text
        assert "bgp" in text

    def test_explain_multiple_engines_sections(self, lubm_graph):
        text = explain(lubm_graph, STAR)
        for name in DEFAULT_EXPLAIN_ENGINES:
            assert "== %s ==" % name in text

    def test_engine_class_resolution(self, lubm_graph):
        """Names resolve in one place (``runtime.resolve_engine``), which
        ``explain`` calls for every name it is handed."""
        assert resolve_engine("sparqlgx") is SparqlgxEngine
        assert resolve_engine("Naive").profile.name == "Naive"
        assert "== S2RDF ==" in explain(lubm_graph, STAR, ["s2rdf"])
        with pytest.raises(UnknownEngineError, match="choose one of: Naive,"):
            explain(lubm_graph, STAR, ["NoSuchEngine"])


@pytest.fixture()
def watdiv_file(tmp_path, watdiv_graph):
    path = tmp_path / "watdiv.nt"
    save_ntriples_file(str(path), watdiv_graph)
    return str(path)


class TestCli:
    def test_explain_command_prints_three_engines(self, watdiv_file, capsys):
        rc = main(["explain", watdiv_file, WatdivGenerator.query_star()])
        out = capsys.readouterr().out
        assert rc == 0
        sections = [
            line for line in out.splitlines() if line.startswith("== ")
        ]
        assert len(sections) >= 3
        assert "query select" in out

    def test_explain_engine_flag(self, watdiv_file, capsys):
        rc = main(
            [
                "explain",
                watdiv_file,
                WatdivGenerator.query_star(),
                "--engine",
                "Naive",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("== ") == 1 and "== Naive ==" in out

    def test_query_trace_flag_writes_conserving_json(
        self, watdiv_file, tmp_path, capsys
    ):
        trace_file = str(tmp_path / "trace.json")
        rc = main(
            [
                "query",
                watdiv_file,
                WatdivGenerator.query_star(),
                "--engine",
                "SPARQLGX",
                "--trace",
                trace_file,
            ]
        )
        assert rc == 0
        assert "trace written" in capsys.readouterr().out
        payload = json.loads(open(trace_file).read())
        assert payload["version"] == 1
        (run,) = payload["runs"]
        assert run["engine"] == "SPARQLGX"
        summed = {}
        for span in run["spans"]:
            for name, value in span.get("metrics", {}).items():
                summed[name] = summed.get(name, 0) + value
        assert summed == run["totals"]

    def test_trace_file_round_trips_through_tracing_module(
        self, watdiv_file, tmp_path
    ):
        from repro.spark.tracing import Span

        trace_file = str(tmp_path / "trace.json")
        main(
            [
                "query",
                watdiv_file,
                WatdivGenerator.query_star(),
                "--trace",
                trace_file,
            ]
        )
        payload = json.loads(open(trace_file).read())
        spans = [Span.from_dict(d) for d in payload["runs"][0]["spans"]]
        assert spans and spans[0].kind == "query"


class TestHarnessTrace:
    def test_run_engine_on_query_attaches_trace(self, lubm_graph):
        from repro.bench import run_engine_on_query
        from repro.spark.context import SparkContext

        engine = SparqlgxEngine(SparkContext(4)).load(lubm_graph)
        result = run_engine_on_query(engine, STAR, "star", trace=True)
        assert result.trace and result.trace[0].kind == "query"
        assert not engine.ctx.tracer.enabled
        untraced = run_engine_on_query(engine, STAR, "star")
        assert untraced.trace is None

    def test_bench_run_resets_results_between_calls(self, lubm_graph):
        from repro.bench import BenchRun
        from repro.systems import NaiveEngine

        bench = BenchRun(lubm_graph)
        queries = {"star": STAR}
        first = bench.run([NaiveEngine], queries)
        assert len(first) == 1
        second = bench.run([NaiveEngine], queries)
        assert len(second) == 1
        assert len(bench.results) == 1

    def test_bench_run_trace_flag(self, lubm_graph):
        from repro.bench import BenchRun
        from repro.systems import NaiveEngine

        bench = BenchRun(lubm_graph)
        (result,) = bench.run([NaiveEngine], {"star": STAR}, trace=True)
        assert result.trace is not None
        kinds = {
            span.kind for root in result.trace for span in root.walk()
        }
        assert "query" in kinds


class TestEngineExplainPayload:
    def test_payload_shape(self, lubm_graph):
        run = run_traced(lubm_graph, STAR, SparqlgxEngine)
        payload = run_record(run.engine, STAR, run.totals, run.spans)
        assert run.supported and payload["engine"] == "SPARQLGX"
        assert payload["spans"] and payload["totals"]

    def test_unsupported_payload(self, lubm_graph):
        run = EngineExplain(engine="X", supported=False, rows=None, error="no")
        payload = run_record(run.engine, STAR, run.totals, run.spans)
        assert not run.supported and payload["spans"] == []


class TestPreambleOrder:
    """Preamble blocks render in sorted key order, never flag order.

    ``explain()``'s docstring promises the order is a stable function of
    which blocks are non-empty; this pins ``lint`` before ``views`` and
    both before any ``== ENGINE ==`` section.
    """

    DIRTY_VIEWED = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?x ?y WHERE { ?x lubm:advisor ?y ."
        " ?x lubm:takesCourse ?c . ?x lubm:noSuchPredicate ?z }"
    )

    def test_lint_sorts_before_views_before_engines(self, lubm_graph):
        text = explain(
            lubm_graph,
            self.DIRTY_VIEWED,
            [SparqlgxEngine],
            RuntimeConfig(optimize=True, views=True),
        )
        assert "lint:" in text and "views:" in text
        assert (
            text.index("lint:")
            < text.index("views:")
            < text.index("== SPARQLGX ==")
        )

    def test_views_only_preamble_precedes_engines(self, lubm_graph):
        text = explain(
            lubm_graph,
            STAR,
            [SparqlgxEngine],
            RuntimeConfig(optimize=True, views=True),
        )
        assert "lint:" not in text
        assert text.index("views:") < text.index("== SPARQLGX ==")

    def test_clean_unviewed_has_no_preamble(self, lubm_graph):
        text = explain(
            lubm_graph, STAR, [SparqlgxEngine], RuntimeConfig(optimize=True)
        )
        assert "lint:" not in text and "views:" not in text
        assert text.startswith("== SPARQLGX ==")


class TestShaclPreamble:
    def test_inventory_marks_the_explained_query(self, lubm_graph):
        from repro.shacl import compile_shape_set, load_shapes_file

        shapes = load_shapes_file("examples/shapes/lubm_clean.json")
        target = compile_shape_set(shapes)[0]
        text = explain(
            lubm_graph, target.text, [SparqlgxEngine], shapes=shapes
        )
        assert "shacl:" in text
        assert "<- the explained query" in text
        marked = [
            line for line in text.splitlines() if "<- the explained" in line
        ]
        assert len(marked) == 1 and target.id in marked[0]
        assert text.index("shacl:") < text.index("== SPARQLGX ==")

    def test_unrelated_query_is_not_marked(self, lubm_graph):
        from repro.shacl import load_shapes_file

        shapes = load_shapes_file("examples/shapes/lubm_clean.json")
        text = explain(lubm_graph, STAR, [SparqlgxEngine], shapes=shapes)
        assert "shacl:" in text
        assert "<- the explained query" not in text

    def test_shacl_sorts_after_routing_before_views(self, lubm_graph):
        from repro.shacl import load_shapes_file

        shapes = load_shapes_file("examples/shapes/lubm_clean.json")
        text = explain(
            lubm_graph,
            STAR,
            [SparqlgxEngine],
            RuntimeConfig(optimize=True, views=True, route=True),
            shapes=shapes,
        )
        assert (
            text.index("routing:")
            < text.index("shacl:")
            < text.index("views:")
        )
