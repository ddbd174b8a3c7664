"""Tests for the benchmark harness and reporting."""

import pytest
from hypothesis import given, settings, strategies as st

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


def cell_by_cell_table(headers, rows):
    """``format_table`` as it was: one ``ljust`` and one ``%`` per cell,
    kept as the oracle of the one-format-per-table rendering."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max([len(headers[i])] + [len(row[i]) for row in cells])
        for i in range(len(headers))
    ]
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [sep]
    lines.append(
        "|" + "|".join(
            " %s " % headers[i].ljust(widths[i]) for i in range(len(headers))
        ) + "|"
    )
    lines.append(sep)
    for row in cells:
        lines.append(
            "|" + "|".join(
                " %s " % row[i].ljust(widths[i]) for i in range(len(row))
            ) + "|"
        )
    lines.append(sep)
    return "\n".join(lines)


#: Cell text: empty, ``%`` directives, non-ASCII, and what a table holds.
_cell_text = st.one_of(
    st.sampled_from(["", "%", "%s", "%d%%", "100%", "é", "日本", "<http://x/a>"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
_cell = st.one_of(_cell_text, st.integers(-999, 99999), st.floats(allow_nan=False))


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]]
        )
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert "long-name" in text

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda width: st.tuples(
                st.lists(_cell_text, min_size=width, max_size=width),
                st.lists(
                    st.lists(_cell, min_size=width, max_size=width), max_size=6
                ),
            )
        )
    )
    def test_format_table_is_the_cell_by_cell_table(self, table):
        """One row format per table writes the bytes one ``ljust`` and
        one ``%`` per cell wrote."""
        headers, rows = table
        assert format_table(headers, rows) == cell_by_cell_table(headers, rows)

    def test_a_header_wider_than_every_cell_sets_the_width(self):
        headers, rows = ["?a-long-header", "%s"], [["x", "100%"], ["", "é"]]
        text = format_table(headers, rows)
        assert text == cell_by_cell_table(headers, rows)
        assert "| x              | 100% |" in text

    def test_format_series(self):
        text = format_series("throughput", {1: 10, 2: 20}, unit="rec/s")
        assert "throughput:" in text
        assert "1 -> 10 rec/s" in text
