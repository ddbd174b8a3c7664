"""Tests for the benchmark harness and reporting."""

import pytest

from repro.bench import BenchRun, format_series, format_table, run_engine_on_query
from repro.data.lubm import LubmGenerator
from repro.spark.context import SparkContext
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.systems import HybridEngine, NaiveEngine, SparqlgxEngine

PREFIX = "PREFIX lubm: <http://repro.example.org/lubm#> "
CONSTRUCT_ADVISOR = (
    PREFIX + "CONSTRUCT { ?p lubm:advises ?s } WHERE { ?s lubm:advisor ?p }"
)
ASK_MEMBER = PREFIX + "ASK WHERE { ?s lubm:memberOf ?d }"


class TestRunEngineOnQuery:
    def test_measures_marginal_cost(self, lubm_graph):
        engine = NaiveEngine(SparkContext(4))
        engine.load(lubm_graph)
        result = run_engine_on_query(
            engine, LubmGenerator.query_star(), name="star"
        )
        assert result.supported
        assert result.rows > 0
        assert result.metrics.tasks > 0
        assert result.seconds >= 0

    def test_correctness_checked_against_reference(self, lubm_graph):
        engine = NaiveEngine(SparkContext(4))
        engine.load(lubm_graph)
        query = parse_sparql(LubmGenerator.query_star())
        reference = evaluate(query, lubm_graph)
        result = run_engine_on_query(engine, query, "star", reference)
        assert result.correct is True

    def test_unsupported_query_flagged(self, lubm_graph):
        engine = HybridEngine(SparkContext(4))
        engine.load(lubm_graph)
        result = run_engine_on_query(
            engine, LubmGenerator.query_filter(), name="filter"
        )
        assert not result.supported
        assert result.correct is None

    def test_cost_summary_keys(self, lubm_graph):
        engine = NaiveEngine(SparkContext(4))
        engine.load(lubm_graph)
        result = run_engine_on_query(engine, LubmGenerator.query_star())
        summary = result.cost_summary()
        assert set(summary) == {
            "shuffle_records",
            "shuffle_remote",
            "join_comparisons",
            "records_scanned",
            "broadcast_bytes",
        }


class TestBenchRun:
    def test_matrix_run(self, lubm_graph):
        bench = BenchRun(lubm_graph)
        results = bench.run(
            [NaiveEngine, SparqlgxEngine],
            {
                "star": LubmGenerator.query_star(),
                "linear": LubmGenerator.query_linear(),
            },
        )
        assert len(results) == 4
        assert bench.incorrect() == []
        by_engine = bench.by_engine()
        assert set(by_engine) == {"Naive", "SPARQLGX"}

    def test_graph_and_boolean_answers_are_counted(self, lubm_graph):
        """CONSTRUCT and ASK through the matrix: rows = triples / 0-or-1,
        nothing to check against the SELECT oracle, cost and trace as
        for any query."""
        expected = len(evaluate(parse_sparql(CONSTRUCT_ADVISOR), lubm_graph))
        results = BenchRun(lubm_graph).run(
            [NaiveEngine, SparqlgxEngine],
            {"c": CONSTRUCT_ADVISOR, "a": ASK_MEMBER},
            trace=True,
        )
        assert [r.rows for r in results] == [expected, 1] * 2
        assert expected > 0
        for result in results:
            assert result.supported and result.correct is None
            assert result.metrics.records_scanned > 0
            assert result.trace[0].kind == "query"

    def test_engine_kwargs_forwarded(self, lubm_graph):
        bench = BenchRun(lubm_graph)
        bench.run(
            [HybridEngine],
            {"star": LubmGenerator.query_star()},
            engine_kwargs={
                "SPARQL-Hybrid": {"broadcast_threshold": 0},
            },
        )
        assert bench.results[0].correct is True


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]]
        )
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert "long-name" in text

    def test_format_series(self):
        text = format_series("throughput", {1: 10, 2: 20}, unit="rec/s")
        assert "throughput:" in text
        assert "1 -> 10 rec/s" in text
