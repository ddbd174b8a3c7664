"""Front 4: the closure/shared-state analyzer (rules ``CL000`` .. ``CL007``)."""

import textwrap

import pytest

from repro.analysis.closures import WORKER_METHODS, check_paths, check_source, main


def run(*parts):
    # Each part dedents on its own: the prelude lives at module level,
    # the per-test snippets inside method bodies, so a single dedent of
    # the concatenation would leave the snippets over-indented (and the
    # analyzer skips unparseable sources silently).
    source = "".join(textwrap.dedent(part) for part in parts)
    return check_source("mod.py", source)


def codes(report):
    return sorted({d.code for d in report.diagnostics})


PRELUDE = """
    from repro.spark.context import SparkContext

    sc = SparkContext(4)
    rdd = sc.parallelize(range(10))
"""


class TestDriverCapture:
    def test_context_captured_in_worker_lambda(self):
        report = run(
            PRELUDE,
            """
            out = rdd.map(lambda x: sc.parallelize([x]).collect()).collect()
            """
        )
        assert "CL000" in codes(report)

    def test_context_constructed_inside_worker(self):
        report = run(
            PRELUDE,
            """
            out = rdd.map(lambda x: SparkContext(2)).collect()
            """
        )
        assert "CL000" in codes(report)

    def test_driver_object_in_default_still_flagged(self):
        # Default-arg rebinding sanctions loop variables, not driver
        # handles: the object still crosses the worker pipe.
        report = run(
            PRELUDE,
            """
            out = rdd.map(lambda x, c=sc: x).collect()
            """
        )
        assert "CL000" in codes(report)

    def test_plain_value_capture_clean(self):
        report = run(
            PRELUDE,
            """
            offset = 7
            out = rdd.map(lambda x: x + offset).collect()
            """
        )
        assert codes(report) == []


class TestSharedStateMutation:
    def test_dict_store_in_foreach(self):
        report = run(
            PRELUDE,
            """
            seen = {}
            def mark(x):
                seen[x] = 1
            rdd.foreach(mark)
            """
        )
        assert "CL001" in codes(report)

    def test_list_append_in_map(self):
        report = run(
            PRELUDE,
            """
            counts = []
            out = rdd.map(lambda x: counts.append(x)).collect()
            """
        )
        assert "CL001" in codes(report)

    def test_set_update_in_lambda(self):
        report = run(
            PRELUDE,
            """
            seen = set()
            rdd.foreach(lambda x: seen.update([x]))
            """
        )
        assert "CL001" in codes(report)

    def test_augmented_assign_on_captured_name(self):
        report = run(
            PRELUDE,
            """
            total = 0
            def bump(x):
                global total
                total += x
            rdd.foreach(bump)
            """
        )
        # global write (CL006) and the mutation rule overlap on purpose:
        # either alone would justify the rejection.
        found = codes(report)
        assert "CL006" in found

    def test_local_mutation_inside_closure_clean(self):
        report = run(
            PRELUDE,
            """
            def explode(x):
                out = []
                out.append(x)
                out.append(x + 1)
                return out
            flat = rdd.flatMap(explode).collect()
            """
        )
        assert codes(report) == []

    def test_accumulator_add_is_legal(self):
        report = run(
            PRELUDE,
            """
            acc = sc.accumulator(0)
            rdd.foreach(lambda x: acc.add(x))
            """
        )
        assert codes(report) == []


class TestAccumulatorRead:
    def test_value_read_in_transformation(self):
        report = run(
            PRELUDE,
            """
            acc = sc.accumulator(0)
            out = rdd.map(lambda x: x + acc.value).collect()
            """
        )
        assert "CL002" in codes(report)

    def test_value_read_on_driver_clean(self):
        report = run(
            PRELUDE,
            """
            acc = sc.accumulator(0)
            rdd.foreach(lambda x: acc.add(x))
            print(acc.value)
            """
        )
        assert codes(report) == []


class TestBroadcastMutation:
    def test_subscript_store_through_value(self):
        report = run(
            PRELUDE,
            """
            table = sc.broadcast({"a": 1})
            table.value["b"] = 2
            """
        )
        assert "CL003" in codes(report)

    def test_mutator_call_through_value(self):
        report = run(
            PRELUDE,
            """
            table = sc.broadcast({"a": 1})
            table.value.update({"b": 2})
            """
        )
        assert "CL003" in codes(report)

    def test_read_through_value_clean(self):
        report = run(
            PRELUDE,
            """
            table = sc.broadcast({"a": 1})
            out = rdd.map(lambda x: table.value.get("a", x)).collect()
            """
        )
        assert codes(report) == []


class TestUnpicklableException:
    def test_multi_arg_exception_raised_in_worker(self):
        report = run(
            PRELUDE,
            """
            class BadRecordError(ValueError):
                def __init__(self, code, detail):
                    super().__init__(code)
                    self.code = code
                    self.detail = detail

            def guard(x):
                if x < 0:
                    raise BadRecordError(x, "negative")
                return x
            out = rdd.map(guard).collect()
            """
        )
        assert "CL004" in codes(report)

    def test_exception_with_reduce_hook_clean(self):
        report = run(
            PRELUDE,
            """
            class GoodError(ValueError):
                def __init__(self, code, detail):
                    super().__init__(code)
                    self.code = code
                    self.detail = detail

                def __reduce__(self):
                    return (GoodError, (self.code, self.detail))

            def guard(x):
                if x < 0:
                    raise GoodError(x, "negative")
                return x
            out = rdd.map(guard).collect()
            """
        )
        assert codes(report) == []

    def test_single_arg_exception_clean(self):
        report = run(
            PRELUDE,
            """
            class SimpleError(ValueError):
                pass

            def guard(x):
                if x < 0:
                    raise SimpleError(x)
                return x
            out = rdd.map(guard).collect()
            """
        )
        assert codes(report) == []


class TestLoopVariableCapture:
    def test_late_binding_capture(self):
        report = run(
            PRELUDE,
            """
            filters = []
            for p in ("a", "b"):
                filters.append(rdd.filter(lambda t: t == p))
            """
        )
        assert "CL005" in codes(report)

    def test_default_arg_rebinding_clean(self):
        report = run(
            PRELUDE,
            """
            filters = []
            for p in ("a", "b"):
                filters.append(rdd.filter(lambda t, p=p: t == p))
            """
        )
        assert codes(report) == []


class TestGlobalWrite:
    def test_global_statement_in_worker(self):
        report = run(
            PRELUDE,
            """
            TOTAL = 0
            def bump(x):
                global TOTAL
                TOTAL += x
            rdd.foreach(bump)
            """
        )
        assert "CL006" in codes(report)

    def test_nonlocal_write_in_worker(self):
        report = run(
            PRELUDE,
            """
            def build():
                count = 0
                def bump(x):
                    nonlocal count
                    count += 1
                    return x
                return rdd.map(bump).collect()
            """
        )
        assert "CL006" in codes(report)


class TestGuiltyHelper:
    def test_call_into_guilty_module_def(self):
        report = run(
            PRELUDE,
            """
            acc = sc.accumulator(0)
            def peek(x):
                return x + acc.value
            out = rdd.map(lambda x: peek(x)).collect()
            """
        )
        found = codes(report)
        assert "CL007" in found

    def test_call_into_clean_helper_is_clean(self):
        report = run(
            PRELUDE,
            """
            def double(x):
                return 2 * x
            out = rdd.map(lambda x: double(x)).collect()
            """
        )
        assert codes(report) == []


class TestWorkerMethodCoverage:
    @pytest.mark.parametrize(
        "call",
        [
            "rdd.filter(lambda x: seen.pop())",
            "rdd.flatMap(lambda x: seen.pop())",
            "rdd.mapPartitions(lambda part: seen.pop())",
            "rdd.mapPartitionsWithIndex(lambda i, part: seen.pop())",
            "rdd.keyBy(lambda x: seen.pop())",
            "rdd.map(lambda x: seen.pop())",
            "rdd.reduceByKey(lambda a, b: seen.pop())",
        ],
    )
    def test_zero_index_closures(self, call):
        report = run(
            PRELUDE,
            """
            seen = [1]
            out = %s
            """
            % call
        )
        assert "CL001" in codes(report)

    @pytest.mark.parametrize(
        "ops",
        [
            "lambda v: v, lambda a, x: seen.pop(), lambda a, b: a + b",
            "lambda v: v, lambda a, x: a + x, lambda a, b: seen.pop()",
        ],
        ids=["merge_value", "merge_combiners"],
    )
    def test_combine_by_key_later_ops(self, ops):
        # combineByKey(create, merge_value, merge_combiners): not only the
        # first closure runs on workers.
        report = run(
            PRELUDE,
            """
            seen = [1]
            pairs = rdd.keyBy(lambda x: x %% 2)
            out = pairs.combineByKey(%s)
            """
            % ops
        )
        assert "CL001" in codes(report)

    def test_worker_methods_are_methods(self):
        """Every method the analyzer watches is one the RDD, DataFrame or
        GroupedData API has: a table entry for a deleted method would
        watch calls that can no longer happen."""
        from repro.spark.dataframe import DataFrame, GroupedData
        from repro.spark.rdd import RDD

        assert [
            name
            for name in WORKER_METHODS
            if not any(hasattr(api, name) for api in (RDD, DataFrame, GroupedData))
        ] == []


class TestSuppression:
    def test_trailing_allow_suppresses(self):
        report = run(
            PRELUDE,
            """
            seen = {}
            rdd.foreach(lambda x: seen.update({x: 1}))  # repro: allow(CL001)
            """
        )
        assert codes(report) == []

    def test_allow_of_other_code_does_not_suppress(self):
        report = run(
            PRELUDE,
            """
            seen = {}
            rdd.foreach(lambda x: seen.update({x: 1}))  # repro: allow(CL002)
            """
        )
        assert "CL001" in codes(report)


class TestReportShape:
    def test_deterministic_render(self):
        source = textwrap.dedent(PRELUDE) + textwrap.dedent(
            """
            seen = {}
            def mark(x):
                seen[x] = 1
            rdd.foreach(mark)
            """
        )
        first = check_source("mod.py", source)
        second = check_source("mod.py", source)
        assert first.to_json() == second.to_json()
        assert first.render() == second.render()

    def test_syntax_error_skipped_silently(self):
        # Unparseable files are DT000 territory; the closure gate must
        # not double-report them.
        report = check_source("mod.py", "def broken(:\n")
        assert report.diagnostics == []

    def test_check_paths_over_repo_source_tree_is_clean(self):
        import os

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
            "repro",
        )
        report = check_paths([src])
        assert report.exit_code() == 0
        assert codes(report) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(clean)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text(
            textwrap.dedent(
                """
                from repro.spark.context import SparkContext
                sc = SparkContext(4)
                rdd = sc.parallelize(range(4))
                seen = {}
                rdd.foreach(lambda x: seen.update({x: 1}))
                """
            ),
            encoding="utf-8",
        )
        assert main([str(bad)]) == 5
        capsys.readouterr()


class TestGeneratedKernels:
    """``compile_pattern`` / ``keyer`` write their functions as source
    text; the text is filed in ``linecache``, so the runtime verifier
    reads a generated kernel like any other closure."""

    @staticmethod
    def kernels(constant):
        from repro.sparql.ast import Variable
        from repro.systems.base import compile_pattern, keyer

        match = compile_pattern((Variable("s"), constant, Variable("o")))
        return match, match.scan, keyer(["s", "o"])

    def test_source_is_recoverable_and_verifies_clean(self):
        import inspect

        from repro.analysis.closures import verify_callable
        from repro.rdf.terms import URI

        for kernel in self.kernels(URI("http://x/p")):
            assert kernel.__code__.co_filename.startswith("<repro kernel: ")
            assert "lambda" in inspect.getsource(kernel)
            assert verify_callable(kernel).diagnostics == []

    def test_namespace_holds_the_constants_and_nothing_else(self):
        from repro.rdf.terms import URI

        constant = URI("http://x/p")
        match, scan, key = self.kernels(constant)
        assert match.__globals__ is scan.__globals__
        held = {
            name: value
            for name, value in scan.__globals__.items()
            if name != "__builtins__"
        }
        assert held == {"c1": constant, "h1": hash(constant)}
        assert set(key.__globals__) <= {"__builtins__"}

    def test_traceback_shows_the_generated_line(self):
        import traceback

        from repro.rdf.terms import URI

        _match, scan, _key = self.kernels(URI("http://x/p"))
        with pytest.raises(TypeError) as raised:
            scan([7])
        shown = "".join(traceback.format_tb(raised.value.__traceback__))
        assert "<repro kernel: ?s <http://x/p> ?o>" in shown
        assert "for t in part" in shown

    def test_driver_object_as_a_constant_is_rejected(self):
        from repro.analysis.closures import verify_callable
        from repro.spark.context import SparkContext

        match, scan, _key = self.kernels(SparkContext(default_parallelism=2))
        for kernel in (match, scan):
            assert "CL000" in {
                d.code for d in verify_callable(kernel).diagnostics
            }

    def test_kernels_in_a_lineage_are_verified_at_submission(self, lubm_graph):
        from repro.runtime import build_engine

        engine = build_engine("SPARQLGX", lubm_graph, verify_closures=True)
        query = (
            "PREFIX lubm: <http://repro.example.org/lubm#>"
            " SELECT ?s ?d WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n }"
        )
        assert engine.measure(query).rows > 0
        assert engine.ctx.metrics.get("closures_rejected") == 0

    def test_kernels_kept_are_bounded(self):
        import inspect
        import linecache

        from repro.spark import kernels
        from repro.sparql.ast import Variable
        from repro.systems.base import compile_pattern

        for constant in range(kernels._KERNEL_LIMIT + 50):
            latest = compile_pattern((Variable("s"), constant, Variable("o")))
        filed = [
            name for name in linecache.cache
            if name.startswith("<repro kernel: ")
        ]
        assert len(filed) <= kernels._KERNEL_LIMIT
        assert len(kernels._KERNELS) <= kernels._KERNEL_LIMIT
        assert "t[1] == c1" in inspect.getsource(latest.scan)
