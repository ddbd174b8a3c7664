"""Tests of the wall-clock benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/wallclock -q

Tier-1 collects ``tests/`` only, so these run on request.  Every
workload runs once untraced and once traced in ``--smoke`` form (LUBM-5,
loops of half a second); the whole file takes well under a minute.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import compare
import inputs
import measure
import run as cli
import spans
import workloads
from oracle import Checker, cli_answer, reference_answer

ROOT = cli.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("cold_cli", "warm_engines", "serve_mixed", "parallel_exec")


@pytest.fixture(scope="module")
def manifest():
    return cli.load_manifest()


@pytest.fixture(scope="module")
def smoke_passes():
    """``{(workload, trace): (result, detail, seconds taken)}``."""
    passes = {}
    for name in WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            result, detail = measure.run(name, 42, 0.5, trace, True, ROOT)
            passes[name, trace] = (result, detail, time.perf_counter() - start)
    return passes


def test_manifest_declares_what_the_code_emits(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in manifest["end_to_end"]] == list(measure.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(measure.PER_LAYER)
    assert len(measure.PER_LAYER) == 69
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert manifest["paths"] == ["benchmarks/wallclock"]
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_smoke_is_quick_and_correct(smoke_passes):
    untraced = [v for (_name, trace), v in smoke_passes.items() if not trace]
    assert sum(seconds for _r, _d, seconds in untraced) < 30
    for result, detail, _seconds in smoke_passes.values():
        assert detail["lubm_scale"] == 5
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_declared_metric_is_emitted_and_nothing_else(smoke_passes):
    for (name, trace), (result, _detail, _seconds) in smoke_passes.items():
        declared = measure.PER_LAYER if trace else measure.END_TO_END
        assert sorted(result["metrics"]) == sorted(declared), name
    for name in WORKLOADS:
        end_to_end = smoke_passes[name, False][0]["metrics"]
        assert all(value > 0 for value in end_to_end.values()), name


def test_each_layer_shows_where_it_is_called(smoke_passes):
    """A per-layer metric is 0 exactly where the workload skips the layer."""
    warm = smoke_passes["warm_engines", True][0]["metrics"]
    serve = smoke_passes["serve_mixed", True][0]["metrics"]
    cold = smoke_passes["cold_cli", True][0]["metrics"]
    forked = smoke_passes["parallel_exec", True][0]["metrics"]
    assert all(warm[m] > 0 for m in measure.PER_LAYER if ".execute_ms." in m)
    assert warm["server.service.commit_ms"] == 0
    assert serve["server.service.commit_ms"] > 0
    assert serve["server.cache.result_hit_rate"] == pytest.approx(26 / 40)
    assert serve["systems.S2RDF.build_s"] == 0
    assert cold["systems.SPARQLGX.first_execute_ms"] > 0
    assert cold["cold_cli.unaccounted_share"] < 0.5
    assert forked["spark.parallel.speedup"] > 0
    assert warm["spark.parallel.speedup"] == 0
    for metrics in (warm, serve, cold, forked):
        assert metrics["spark.metrics.records_scanned"] > 0
        assert metrics["rdf.terms.hash_ns"] > 0


def test_span_tree_is_well_formed(smoke_passes):
    for name in WORKLOADS:
        detail = smoke_passes[name, True][1]
        assert detail["span_problems"] == []
        assert detail["accounted_share"] >= 0.85
        with open(os.path.join(ROOT, detail["trace_file"]), encoding="utf-8") as handle:
            recorded = json.load(handle)["spans"]
        assert len(recorded) == detail["spans"] > 0
        assert spans.check_tree(recorded) == []
        requests = [s["request"] for s in recorded if s["name"] == "request"]
        assert len(requests) == len(set(requests)) > 0
        assert min(spans.self_times(recorded).values()) >= -1e-9


def test_check_tree_reports_a_broken_tree():
    rec = spans.SpanRecorder()
    with rec.span("request", request="r1"):
        with rec.span("layer.call"):
            pass
    assert spans.check_tree(rec.spans) == []
    rec.spans[1]["end"] = rec.spans[0]["end"] + 1.0
    assert any("outside its parent" in p for p in spans.check_tree(rec.spans))
    rec.spans[1]["request"] = "r2"
    assert any("carries request" in p for p in spans.check_tree(rec.spans))


def test_same_seed_same_inputs_other_seed_other_inputs():
    pool = inputs.serve_pool()
    assert len(pool) == len(inputs.EPOCH_COUNTS) == len({text for _n, text in pool})
    assert sum(inputs.EPOCH_COUNTS) == 40

    def stream(seed):
        graph = inputs.generate_graph(5, seed)
        changes = inputs.ChangeSets(graph, seed)
        lines = []
        for epoch in range(3):
            lines += [line for _i, line in inputs.epoch_requests(seed, epoch, pool)]
            lines.append(changes.commit_line(epoch))
        return "\n".join(lines).encode()

    assert stream(42) == stream(42)
    assert stream(42) != stream(7)
    # The seed reorders requests; it never changes what an epoch costs.
    for seed in (42, 7):
        asked = sorted(i for i, _line in inputs.epoch_requests(seed, 0, pool))
        assert asked == sorted(
            i for i, count in enumerate(inputs.EPOCH_COUNTS) for _ in range(count)
        )
    assert inputs.shape_queries().keys() == set(inputs.SHAPES)


def test_a_wrong_answer_counts_as_failed():
    graph = inputs.generate_graph(1, 42)
    text = inputs.shape_queries()["star"]
    right = reference_answer(graph, text)
    checker = Checker()
    checker.record("star", right)
    checker.record("star", right.replace("lubm", "LUBM", 1))
    checker.record("star", None)
    checker.tally(True)
    checker.judge(lambda _key: right)
    assert (checker.attempted, checker.failed) == (4, 2)
    assert checker.failed_share == 0.5


def test_a_wrong_answer_fails_the_run(monkeypatch):
    """End to end: answers that lose their last byte drive ``failed`` above 0."""

    def truncating(self, state, outputs, checker):
        for shape, answer in outputs:
            checker.record(shape, answer[:-1])

    monkeypatch.setattr(workloads.Engines, "settle", truncating)
    result, detail = measure.run("warm_engines", 42, 0.2, False, True, ROOT)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert detail["failed_share"] == 1.0


def test_cli_answer_ignores_row_order_only():
    table = "+---+\n| ?s |\n+---+\n| b |\n| a |\n+---+\n2 solution(s)\ncost: scanned=1\n"
    other = table.replace("| b |\n| a |", "| a |\n| b |")
    assert cli_answer(table) == cli_answer(other)
    assert cli_answer(table) != cli_answer(table.replace("| b |", "| c |"))
    assert cli_answer("Traceback ...") is None


def test_driver_contract_on_the_command_line(manifest):
    """Last stdout line: exactly the four keys, every value with a unit."""
    argv = [sys.executable] + manifest["command"][1:] + [
        "--workload", "serve_mixed", "--seed", "7", "--seconds", "0.5",
        "--trace", "0", "--smoke",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_no_program_no_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bench = tmp_path / "benchmarks" / "wallclock"
    bench.mkdir(parents=True)
    for entry in os.listdir(cli.HERE):
        if entry.endswith(".py"):
            (bench / entry).write_text(open(os.path.join(cli.HERE, entry)).read())
    (tmp_path / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json")).read()
    )
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cold_cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _document(values):
    return {
        "passes": [
            {"seed": i, "workloads": {"cold_cli": {"metrics": {"query_geomean_ms": v}}}}
            for i, v in enumerate(values)
        ]
    }


def test_compare_labels(manifest):
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    noisy = [100, 130, 70, 100, 125, 75, 100, 120, 80, 100]

    def label(base, new):
        (row,) = compare.compare(_document(base), _document(new), manifest)
        return row[-1]

    assert label(steady, steady) == "ok"
    assert label(steady, [v * 1.4 for v in steady]) == "worse"
    assert label(steady, [v * 0.6 for v in steady]) == "ok"
    assert label(noisy, noisy) == "unresolved"
    assert label(noisy, [v * 0.5 for v in noisy]) == "ok"
    assert label([100], [105]) == "ok"
    assert compare.spread([1, 2, 3]) is None
