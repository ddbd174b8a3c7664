"""Runtime closure verification: ``SparkContext(verify_closures=True)``.

The static rules (tests/analysis/test_closures.py) run here against
*live* closures at job submission: captured cells and globals are
classified by their runtime types, the closure source is analyzed, and
a violation raises :class:`ClosureAnalysisError` before any partition
computes.
"""

import pytest

from repro.analysis.closures import ClosureAnalysisError, verify_rdd
from repro.spark.context import SparkContext


def make_ctx(**kwargs):
    kwargs.setdefault("verify_closures", True)
    return SparkContext(default_parallelism=2, **kwargs)


class TestCleanJobs:
    def test_clean_collect_passes_and_counts(self):
        sc = make_ctx()
        offset = 5
        out = sc.parallelize([1, 2, 3]).map(lambda x: x + offset).collect()
        assert out == [6, 7, 8]
        assert sc.metrics.get("closures_verified") >= 1
        assert sc.metrics.get("closures_rejected") == 0

    def test_memoized_lineage_not_reverified(self):
        sc = make_ctx()
        rdd = sc.parallelize([1, 2, 3]).map(lambda x: x * 2)
        rdd.collect()
        first = sc.metrics.get("closures_verified")
        rdd.collect()
        assert sc.metrics.get("closures_verified") == first

    def test_distinct_closures_sharing_code_object_both_verified(self):
        # The RDD API wraps user functions in adapter lambdas that share
        # one code object per definition site; memoization must key on
        # the function object, not its code.
        sc = make_ctx()
        rdd = sc.parallelize([1, 2, 3])
        a = rdd.map(lambda x: x + 1)
        b = a.map(lambda x: x * 2)
        assert b.collect() == [4, 6, 8]
        assert sc.metrics.get("closures_verified") >= 2

    def test_accumulator_add_is_legal_at_runtime(self):
        sc = make_ctx()
        acc = sc.accumulator(0)
        sc.parallelize([1, 2, 3, 4]).foreach(lambda x: acc.add(x))
        assert acc.value == 10

    def test_off_by_default(self):
        sc = SparkContext(default_parallelism=2)
        seen = {}
        # repro: allow(CL001) -- intentionally dirty: proves the flag
        # gates enforcement.
        sc.parallelize([1]).foreach(lambda x: seen.update({x: 1}))
        assert seen == {1: 1}
        assert sc.metrics.get("closures_verified") == 0


class TestRejections:
    def test_shared_dict_mutation_rejected(self):
        sc = make_ctx()
        seen = {}
        rdd = sc.parallelize([1, 2, 3]).map(
            lambda x: seen.setdefault(x, x)
        )
        with pytest.raises(ClosureAnalysisError) as excinfo:
            rdd.collect()
        assert any(
            d.code == "CL001" for d in excinfo.value.report.diagnostics
        )
        assert sc.metrics.get("closures_rejected") >= 1
        assert seen == {}

    def test_accumulator_read_rejected(self):
        sc = make_ctx()
        acc = sc.accumulator(0)
        rdd = sc.parallelize([1, 2, 3]).map(lambda x: x + acc.value)
        with pytest.raises(ClosureAnalysisError) as excinfo:
            rdd.collect()
        assert any(
            d.code == "CL002" for d in excinfo.value.report.diagnostics
        )

    def test_captured_context_rejected(self):
        sc = make_ctx()
        rdd = sc.parallelize([1, 2]).map(
            lambda x: len(sc.parallelize([x]).collect())
        )
        with pytest.raises(ClosureAnalysisError) as excinfo:
            rdd.collect()
        assert any(
            d.code == "CL000" for d in excinfo.value.report.diagnostics
        )

    def test_parallel_backend_also_enforces(self):
        sc = make_ctx(backend="parallel", workers=2)
        seen = []
        rdd = sc.parallelize([1, 2, 3]).map(lambda x: seen.append(x))
        with pytest.raises(ClosureAnalysisError):
            rdd.collect()

    def test_parallel_backend_clean_job_passes(self):
        sc = make_ctx(backend="parallel", workers=2)
        out = sc.parallelize([3, 1, 2]).map(lambda x: x * 10).collect()
        assert out == [30, 10, 20]
        assert sc.metrics.get("closures_verified") >= 1

    def test_runtime_suppression_honored(self):
        sc = make_ctx()
        seen = {}
        out = sc.parallelize([1, 2]).map(
            lambda x: seen.setdefault(x, x)  # repro: allow(CL001)
        ).collect()
        assert out == [1, 2]


class TestVerifyRddDirect:
    def test_returns_report_for_clean_lineage(self):
        sc = make_ctx()
        rdd = sc.parallelize([1, 2, 3]).filter(lambda x: x > 1)
        verify_rdd(rdd)  # must not raise
        assert sc.metrics.get("closures_verified") >= 1

    def test_shuffle_lineage_verified(self):
        sc = make_ctx()
        pairs = sc.parallelize([1, 2, 3, 4]).keyBy(lambda x: x % 2)
        out = dict(pairs.reduceByKey(lambda a, b: a + b).collect())
        assert out == {0: 6, 1: 4}
        assert sc.metrics.get("closures_verified") >= 2


class TestEngineIntegration:
    def test_engine_query_passes_verification(self, lubm_graph):
        from repro.runtime import build_engine

        engine = build_engine(
            "SPARQLGX", lubm_graph, parallelism=2, verify_closures=True
        )
        result = engine.execute(
            "SELECT ?s ?o WHERE { ?s "
            "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?o }"
        )
        assert len(result) >= 0
        assert engine.ctx.metrics.get("closures_rejected") == 0

    def test_explain_closures_block(self, lubm_graph):
        from repro.explain import explain
        from repro.runtime import RuntimeConfig
        from repro.systems import SparqlgxEngine

        text = explain(
            lubm_graph,
            "SELECT ?s ?o WHERE { ?s "
            "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?o }",
            [SparqlgxEngine],
            RuntimeConfig(verify_closures=True),
        )
        assert "closures:" in text
        assert "0 rejected" in text

    def test_explain_block_absent_by_default(self, lubm_graph):
        from repro.explain import explain
        from repro.systems import SparqlgxEngine

        text = explain(
            lubm_graph,
            "SELECT ?s ?o WHERE { ?s "
            "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?o }",
            [SparqlgxEngine],
        )
        assert "closures:" not in text


class TestCliExitCode:
    def test_closure_rejection_maps_to_exit_4(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.analysis.closures import check_source

        report = check_source(
            "job.py",
            "from repro.spark.context import SparkContext\n"
            "sc = SparkContext(2)\n"
            "seen = {}\n"
            "sc.parallelize([1]).foreach(lambda x: seen.update({x: 1}))\n",
        )
        assert report.diagnostics

        def boom(args):
            raise ClosureAnalysisError(report)

        monkeypatch.setattr(cli, "cmd_tables", boom)
        assert cli.main(["tables"]) == 4
        err = capsys.readouterr().err
        assert "closure rejected at job submission" in err
        assert "CL001" in err
