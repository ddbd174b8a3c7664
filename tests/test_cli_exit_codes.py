"""The CLI exit-code contract, one parametrized suite.

The full map (documented in README.md):

====  ==========================================================
code  meaning
====  ==========================================================
0     success; ``lint`` found nothing
2     unusable inputs (bad spec, unknown engine, unreadable file,
      unwritable output path, malformed or unsupported query)
3     a fault schedule exhausted ``--max-task-attempts``, or a
      parallel worker process crashed
4     ``lint`` found warnings only
5     ``lint`` found errors
====  ==========================================================

(``assess`` and ``claims`` additionally exit 1 when a correctness or
claims check fails; that path needs a broken engine and is covered by
their own tests.)
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.cli import main
from repro.rdf.ntriples import save_ntriples_file
from repro.spark import parallel as parallel_module
from repro.spark import rdd as rdd_module
from repro.spark.parallel import parallel_available

CLEAN_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }"
)
CARTESIAN_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?t WHERE { ?s lubm:memberOf ?d . ?t lubm:teacherOf ?c }"
)
STAR_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?n WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n }"
)
# Legal SPARQL with no WHERE clause: shape ``empty``, as ``ASK {}``.
DESCRIBE_QUERY = "DESCRIBE <http://repro.example.org/lubm#Department0_0>"
# Two patterns, default broadcast threshold raised over the dataset
# size: QL006 is the only warning-severity query rule.
WARNING_ARGS = ["--broadcast-threshold", "1000000"]


@pytest.fixture
def data_file(tmp_path, lubm_graph):
    path = tmp_path / "data.nt"
    save_ntriples_file(str(path), lubm_graph)
    return str(path)


def build_cases():
    """(id, argv builder, expected exit code) triples."""
    return [
        (
            "ok-query",
            lambda d, t: ["query", d, CLEAN_QUERY],
            0,
        ),
        (
            "ok-lint-clean",
            lambda d, t: ["lint", CLEAN_QUERY, "--data", d],
            0,
        ),
        (
            "ok-tables",
            lambda d, t: ["tables"],
            0,
        ),
        (
            "ok-route-describe-without-where",
            lambda d, t: ["route", d, DESCRIBE_QUERY],
            0,
        ),
        (
            "ok-explain-route-describe-without-where",
            lambda d, t: ["explain", d, DESCRIBE_QUERY, "--route"],
            0,
        ),
        (
            "ok-explain-views-describe-without-where",
            lambda d, t: [
                "explain", d, DESCRIBE_QUERY, "--optimize", "--views",
            ],
            0,
        ),
        (
            "input-error-unknown-engine",
            lambda d, t: ["serve", d, "--engine", "NoSuchEngine"],
            2,
        ),
        (
            "input-error-missing-data",
            lambda d, t: ["loadtest", str(t / "missing.nt"), "--smoke"],
            2,
        ),
        (
            "input-error-bad-fault-spec",
            lambda d, t: [
                "query", d, CLEAN_QUERY, "--faults", "explode:p=1",
            ],
            2,
        ),
        (
            "input-error-missing-query-file",
            lambda d, t: ["lint", str(t / "missing.rq"), "--data", d],
            2,
        ),
        (
            "input-error-bad-stats-file",
            lambda d, t: ["lint", CLEAN_QUERY, "--stats", str(t / "no.json")],
            2,
        ),
        (
            "fault-exhaustion",
            lambda d, t: [
                "query", d, "SELECT ?s WHERE { ?s ?p ?o }",
                "--faults", "fail:p=1", "--max-task-attempts", "2",
            ],
            3,
        ),
        (
            "lint-warnings",
            lambda d, t: ["lint", STAR_QUERY, "--data", d] + WARNING_ARGS,
            4,
        ),
        (
            "lint-errors",
            lambda d, t: ["lint", CARTESIAN_QUERY, "--data", d],
            5,
        ),
        (
            "lint-errors-dominate-warnings",
            lambda d, t: ["lint", CARTESIAN_QUERY, "--data", d]
            + WARNING_ARGS,
            5,
        ),
        (
            "lint-parse-error",
            lambda d, t: ["lint", "SELECT ?s WHERE { ?s ?p"],
            5,
        ),
    ]


CASES = build_cases()


@pytest.mark.parametrize(
    "argv_builder,expected",
    [(builder, code) for _, builder, code in CASES],
    ids=[case_id for case_id, _, _ in CASES],
)
def test_exit_code(argv_builder, expected, data_file, tmp_path, capsys):
    code = main(argv_builder(data_file, tmp_path))
    capsys.readouterr()
    assert code == expected


ADVISOR_CONSTRUCT = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " CONSTRUCT { ?s lubm:advisor ?o } WHERE { ?s lubm:advisor ?o }"
)

#: Every subcommand that writes a file, pointed at a path whose
#: directory does not exist.
UNWRITABLE_CASES = [
    ("query-trace", lambda d, p: ["query", d, CLEAN_QUERY, "--trace", p]),
    ("assess-trace", lambda d, p: ["assess", d, "--trace", p]),
    ("loadtest-report", lambda d, p: ["loadtest", d, "--smoke", "--report", p]),
    (
        "validate-report",
        lambda d, p: [
            "validate", d, "examples/shapes/lubm_clean.json", "--report", p,
        ],
    ),
    ("stats-json", lambda d, p: ["stats", d, "--json", p]),
    ("views-json", lambda d, p: ["views", d, "build", "--json", p]),
    (
        "harvest-output",
        lambda d, p: ["harvest", d, ADVISOR_CONSTRUCT, "--output", p],
    ),
    ("generate-path", lambda d, p: ["generate", "lubm", p]),
]


@pytest.mark.parametrize(
    "argv_builder",
    [builder for _, builder in UNWRITABLE_CASES],
    ids=[case_id for case_id, _ in UNWRITABLE_CASES],
)
def test_unwritable_output_path_is_a_typed_error(
    argv_builder, data_file, tmp_path, capsys
):
    """Exit 2 and one ``error:`` line -- never a raw traceback."""
    target = str(tmp_path / "no-such-dir" / "out.file")
    assert main(argv_builder(data_file, target)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err


#: Every argument that names a file to read, given a directory ("dir")
#: or a file that is not UTF-8 (its suffix) -- each pair that used to
#: end in a traceback.  A directory of shapes or requests, and data
#: files, already exited 2; a directory is a valid ``analyze`` input.
UNREADABLE_CASES = [
    ("query-dir", "dir", lambda d, p: ["query", d, p]),
    ("query-not-utf8", ".rq", lambda d, p: ["query", d, p]),
    ("explain-dir", "dir", lambda d, p: ["explain", d, p]),
    ("explain-not-utf8", ".rq", lambda d, p: ["explain", d, p]),
    (
        "explain-shapes-not-utf8",
        ".json",
        lambda d, p: ["explain", d, CLEAN_QUERY, "--shapes", p],
    ),
    ("route-dir", "dir", lambda d, p: ["route", d, p]),
    ("route-not-utf8", ".rq", lambda d, p: ["route", d, p]),
    ("lint-dir", "dir", lambda d, p: ["lint", p]),
    ("lint-not-utf8", ".rq", lambda d, p: ["lint", p]),
    ("lint-closures-not-utf8", ".py", lambda d, p: ["lint", "--closures", p]),
    ("harvest-dir", "dir", lambda d, p: ["harvest", d, p]),
    ("harvest-not-utf8", ".rq", lambda d, p: ["harvest", d, p]),
    ("validate-not-utf8", ".json", lambda d, p: ["validate", d, p]),
    ("analyze-not-utf8", ".py", lambda d, p: ["analyze", p]),
    ("serve-input-not-utf8", ".jsonl", lambda d, p: ["serve", d, "--input", p]),
]


@pytest.mark.parametrize(
    "kind, argv_builder",
    [(kind, builder) for _, kind, builder in UNREADABLE_CASES],
    ids=[case_id for case_id, _, _ in UNREADABLE_CASES],
)
def test_unreadable_input_file_is_a_typed_error(
    kind, argv_builder, data_file, tmp_path, capsys
):
    """Exit 2 and one ``error:`` line saying what could not be read."""
    if kind == "dir":
        path = tmp_path / "d"
        path.mkdir()
    else:
        path = tmp_path / ("bad" + kind)
        path.write_bytes(b"\xff\xfe not UTF-8\n")
    assert main(argv_builder(data_file, str(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot read" in err
    assert err.count("\n") == 1 and "Traceback" not in err


MALFORMED_QUERY = "SELEKT ?s"
LIMIT_QUERY = CLEAN_QUERY + " LIMIT 1"

#: Inputs that parse as arguments but cannot be answered, each with the
#: start of the one ``error:`` line it must produce.
UNANSWERABLE_CASES = [
    (
        "query-unknown-engine",
        lambda d: ["query", d, CLEAN_QUERY, "--engine", "Junk"],
        "error: unknown engine 'Junk'; choose one of: Naive, ",
    ),
    (
        "explain-unknown-engine",
        lambda d: ["explain", d, CLEAN_QUERY, "--engine", "Junk"],
        "error: unknown engine 'Junk'; choose one of: Naive, ",
    ),
    (
        "query-malformed",
        lambda d: ["query", d, MALFORMED_QUERY],
        "error: unexpected bare word 'SELEKT'",
    ),
    (
        "explain-malformed",
        lambda d: ["explain", d, MALFORMED_QUERY],
        "error: unexpected bare word 'SELEKT'",
    ),
    (
        "route-malformed",
        lambda d: ["route", d, MALFORMED_QUERY],
        "error: unexpected bare word 'SELEKT'",
    ),
    (
        "query-unsupported-fragment",
        lambda d: ["query", d, LIMIT_QUERY, "--engine", "SPARQLGX"],
        "error: SPARQLGX supports BGP+ only; query needs ['LIMIT']",
    ),
    # Out-of-range numbers: a config error, not the constructor's
    # ValueError five layers down.
    (
        "query-negative-broadcast-threshold",
        lambda d: [
            "query", d, CLEAN_QUERY, "--optimize",
            "--broadcast-threshold", "-5",
        ],
        "error: --broadcast-threshold must be positive",
    ),
    (
        "query-zero-max-task-attempts",
        lambda d: ["query", d, CLEAN_QUERY, "--max-task-attempts", "0"],
        "error: --max-task-attempts must be >= 1",
    ),
    (
        "query-zero-parallelism",
        lambda d: ["query", d, CLEAN_QUERY, "--parallelism", "0"],
        "error: --parallelism must be positive",
    ),
    (
        "loadtest-negative-queue-limit",
        lambda d: ["loadtest", d, "--smoke", "--queue-limit", "-1"],
        "error: queue_limit must be >= 0",
    ),
    # The same range check on the two subcommands that used to read the
    # flag past it (route died in JoinPlanner, lint accepted it).
    (
        "route-negative-broadcast-threshold",
        lambda d: ["route", d, CLEAN_QUERY, "--broadcast-threshold", "-5"],
        "error: --broadcast-threshold must be positive",
    ),
    (
        "lint-negative-broadcast-threshold",
        lambda d: [
            "lint", CLEAN_QUERY, "--data", d, "--broadcast-threshold", "-5",
        ],
        "error: --broadcast-threshold must be positive",
    ),
]


@pytest.mark.parametrize(
    "argv_builder,message",
    [(builder, message) for _, builder, message in UNANSWERABLE_CASES],
    ids=[case_id for case_id, _, _ in UNANSWERABLE_CASES],
)
def test_unanswerable_input_is_a_typed_error(
    argv_builder, message, data_file, capsys
):
    """Exit 2 and one ``error:`` line on stderr, nothing on stdout."""
    assert main(argv_builder(data_file)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["loadtest", "DATA", "--smoke", "--tenants", "0"], "positive"),
        (["loadtest", "DATA", "--smoke", "--clients", "0"], "positive"),
        (["loadtest", "DATA", "--smoke", "--requests", "0"], "positive"),
        (["loadtest", "DATA", "--smoke", "--queries", "0"], "positive"),
        (["generate", "lubm", "OUT", "--scale", "0"], "positive"),
        (["views", "DATA", "list", "--limit", "-1"], "positive"),
        (["loadtest", "DATA", "--smoke", "--think", "-5"], "non-negative"),
    ],
    ids=[
        "loadtest-tenants",
        "loadtest-clients",
        "loadtest-requests",
        "loadtest-queries",
        "scale",
        "views-limit",
        "loadtest-think",
    ],
)
def test_zero_count_is_a_usage_error(argv, kind, data_file, tmp_path, capsys):
    """Exit 2 from the argument parser, one ``error:`` line after the
    usage -- not a ValueError from the harness, not an empty file, not a
    table cut short or a negative think time run as zero."""
    out = tmp_path / "out.nt"
    argv = [{"DATA": data_file, "OUT": str(out)}.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro %s " % argv[0])
    assert err.endswith(
        "error: argument %s: must be a %s integer\n" % (argv[-2], kind)
    )
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("<> <http://x/p> <http://x/o> .", "URI cannot be empty"),
        # Once loaded, silently, as the plain literal "x".
        ('<http://x/s> <http://x/p> "x"^^<> .', "URI cannot be empty"),
        ("<http://x/s> <http://x/p> <http://x/o>", "expected terminating '.'"),
    ],
    ids=["empty-subject", "empty-datatype", "missing-dot"],
)
def test_bad_data_line_is_named_by_number(bad_line, reason, tmp_path, capsys):
    """Exit 2 and one ``error:`` line that says which line of the file
    and why -- for a term that is well-formed but empty, too."""
    path = tmp_path / "bad.nt"
    path.write_text("<http://x/s> <http://x/p> <http://x/o> .\n" + bad_line + "\n")
    assert main(["query", str(path), CLEAN_QUERY]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse RDF file %r: line 2: %s (in %r)\n" % (
        str(path), reason, bad_line
    )


@pytest.mark.skipif(
    not parallel_available(), reason="the parallel backend needs fork"
)
def test_killed_worker_is_a_typed_error(data_file, capsys, monkeypatch):
    """A worker that dies mid-task ends in exit 3 and one ``error:``
    line: killed from inside a shuffle map task, no flag involved."""
    driver = os.getpid()
    price = rdd_module.estimate_sizes

    def die_in_a_worker(records):
        if os.getpid() != driver:
            os.kill(os.getpid(), signal.SIGKILL)
        return price(records)

    monkeypatch.setattr(rdd_module, "estimate_sizes", die_in_a_worker)
    argv = ["query", data_file, STAR_QUERY, "--backend", "parallel"]
    assert main(argv + ["--workers", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parallel worker ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.skipif(
    not parallel_available(), reason="the parallel backend needs fork"
)
def test_task_that_never_returns_is_a_typed_error(data_file, capsys, monkeypatch):
    """Workers that are alive and silent past the stall limit end the
    same way: exit 3, one ``error:`` line, nothing left running."""
    driver = os.getpid()
    price = rdd_module.estimate_sizes

    def spin_in_a_worker(records):
        while os.getpid() != driver:
            pass
        return price(records)

    monkeypatch.setattr(rdd_module, "estimate_sizes", spin_in_a_worker)
    monkeypatch.setattr(parallel_module, "_STALL_POLLS", 2)
    argv = ["query", data_file, STAR_QUERY, "--backend", "parallel"]
    assert main(argv + ["--workers", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no parallel worker reported ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert multiprocessing.active_children() == []


class TestLintOutput:
    def test_json_flag_emits_deterministic_report(
        self, data_file, capsys
    ):
        assert main(["lint", CARTESIAN_QUERY, "--data", data_file, "--json"]) == 5
        first = capsys.readouterr().out
        assert main(["lint", CARTESIAN_QUERY, "--data", data_file, "--json"]) == 5
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["summary"]["errors"] >= 1
        assert payload["diagnostics"][0]["code"] == "QL001"

    def test_multiple_files_merge(self, data_file, tmp_path, capsys):
        good = tmp_path / "good.rq"
        good.write_text(CLEAN_QUERY)
        bad = tmp_path / "bad.rq"
        bad.write_text(CARTESIAN_QUERY)
        code = main(["lint", str(good), str(bad), "--data", data_file])
        out = capsys.readouterr().out
        assert code == 5
        assert "bad.rq" in out
        assert "QL001" in out

    def test_stats_file_equivalent_to_data(
        self, data_file, tmp_path, capsys
    ):
        stats = tmp_path / "catalog.json"
        assert main(["stats", data_file, "--json", str(stats)]) == 0
        capsys.readouterr()
        assert main(["lint", CARTESIAN_QUERY, "--stats", str(stats)]) == 5
        from_stats = capsys.readouterr().out
        assert main(["lint", CARTESIAN_QUERY, "--data", data_file]) == 5
        from_data = capsys.readouterr().out
        assert from_stats == from_data

    def test_data_and_stats_mutually_exclusive(
        self, data_file, tmp_path, capsys
    ):
        code = main(
            ["lint", CLEAN_QUERY, "--data", data_file, "--stats", "x.json"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err
