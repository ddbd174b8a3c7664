"""CLI tests for the ``serve`` and ``loadtest`` subcommands."""

import json

import pytest

from repro.cli import main
from repro.rdf.ntriples import save_ntriples_file


@pytest.fixture
def data_file(tmp_path, lubm_graph):
    path = tmp_path / "data.nt"
    save_ntriples_file(str(path), lubm_graph)
    return str(path)


MEMBER_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#> "
    "SELECT DISTINCT ?d WHERE { ?s lubm:memberOf ?d }"
)
DESCRIBE_QUERY = "DESCRIBE <http://repro.example.org/lubm#Department0_0>"


def write_requests(tmp_path, lines):
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return str(path)


class TestServe:
    def test_invalid_regex_line_is_answered_and_the_next_one_too(
        self, data_file, tmp_path, capsys
    ):
        requests = write_requests(
            tmp_path,
            [
                {
                    "id": "regex",
                    "query": 'SELECT ?s WHERE { ?s ?p ?o '
                    'FILTER(REGEX(STR(?s), "(")) }',
                },
                {"id": "next", "query": MEMBER_QUERY},
            ],
        )
        assert main(["serve", data_file, "--input", requests]) == 0
        regex, after = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert (regex["id"], regex["status"]) == ("regex", "ok")
        assert json.loads(regex["result"])["rows"] == []
        assert (after["id"], after["status"]) == ("next", "ok")
        assert json.loads(after["result"])["rows"]

    def test_end_to_end_request_loop(self, data_file, tmp_path, capsys):
        requests = write_requests(
            tmp_path,
            [
                {"op": "query", "id": "q1", "query": MEMBER_QUERY},
                {"op": "query", "id": "q2", "query": MEMBER_QUERY},
                {"op": "stats", "id": "s1"},
            ],
        )
        assert main(["serve", data_file, "--input", requests]) == 0
        out_lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(out_lines) == 3
        q1, q2, stats = out_lines
        assert q1["status"] == "ok" and q1["cache"] == "cold"
        assert q2["status"] == "ok" and q2["cache"] == "result"
        assert q2["result"] == q1["result"]  # byte-identical via the cache
        assert stats["counters"]["result_cache_hits"] == 1

    def test_commit_bumps_version_and_changes_answers(
        self, data_file, tmp_path, capsys
    ):
        addition = (
            "<http://repro.example.org/lubm#Fresh> "
            "<http://repro.example.org/lubm#memberOf> "
            "<http://repro.example.org/lubm#DeptFresh> ."
        )
        requests = write_requests(
            tmp_path,
            [
                {"op": "query", "id": "before", "query": MEMBER_QUERY},
                {"op": "commit", "id": "c", "additions": [addition]},
                {"op": "query", "id": "after", "query": MEMBER_QUERY},
            ],
        )
        assert main(["serve", data_file, "--input", requests]) == 0
        before, commit, after = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert commit["version"] == 1 and commit["invalidated"] >= 1
        assert after["version"] == 1
        # Version bump invalidated the result entry; the text-keyed plan
        # cache legitimately survives the commit.
        assert after["cache"] != "result"
        assert "DeptFresh" in after["result"]
        assert after["result"] != before["result"]

    def test_a_failed_commit_is_answered_and_the_loop_goes_on(
        self, data_file, tmp_path, capsys
    ):
        # The reload exhausts its one task attempt: the process used to
        # exit 3 at the commit line and answer nothing after it.
        lubm = "http://repro.example.org/lubm#"
        novel = "<%sStudent0_0_0> <%smentors> <%sStudent0_0_1> ." % (
            (lubm,) * 3
        )
        mentors = "SELECT ?s ?p WHERE { ?s <%smentors> ?p }" % lubm
        requests = write_requests(
            tmp_path,
            [
                {"op": "commit", "id": "c", "additions": [novel]},
                {"op": "query", "id": "q", "query": mentors},
                {"op": "stats", "id": "s"},
            ],
        )
        argv = [
            "serve", data_file, "--input", requests, "--pool", "2",
            "--engine", "SPARQL-Hybrid", "--faults", "fail:p=0.05;seed=3",
            "--max-task-attempts", "1", "--no-result-cache", "--no-lint",
        ]
        assert main(argv) == 0
        commit, query, stats = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert commit["status"] == "error" and commit["id"] == "c"
        assert commit["error"].startswith("commit failed, version 0 kept")
        assert (query["status"], query["version"]) == ("ok", 0)
        assert json.loads(query["result"])["rows"] == []
        assert stats["version"] == 0

    def test_commit_reports_per_commit_invalidations(
        self, data_file, tmp_path, capsys
    ):
        """Regression: 'invalidated' is this commit's drop count, not the
        cumulative counter."""

        def addition(i):
            return (
                "<http://repro.example.org/lubm#S%d> "
                "<http://repro.example.org/lubm#memberOf> "
                "<http://repro.example.org/lubm#D%d> ." % (i, i)
            )

        requests = write_requests(
            tmp_path,
            [
                {"op": "query", "id": "q1", "query": MEMBER_QUERY},
                {"op": "commit", "id": "c1", "additions": [addition(1)]},
                {"op": "query", "id": "q2", "query": MEMBER_QUERY},
                {"op": "commit", "id": "c2", "additions": [addition(2)]},
            ],
        )
        assert main(["serve", data_file, "--input", requests]) == 0
        _q1, c1, _q2, c2 = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert c1["invalidated"] == 1
        assert c2["invalidated"] == 1  # the second commit dropped one entry

    def test_deadline_and_malformed_lines_keep_loop_alive(
        self, data_file, tmp_path, capsys
    ):
        # --no-lint: QL005 would reject the doomed scan at admission,
        # and this test exercises the *runtime* deadline abort path.
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            json.dumps(
                {
                    "op": "query",
                    "id": "doomed",
                    "query": "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
                    "deadline": 5,
                }
            )
            + "\nthis is not json\n"
            + json.dumps({"op": "query", "id": "ok", "query": MEMBER_QUERY})
            + "\n"
        )
        assert (
            main(
                ["serve", data_file, "--no-lint", "--input", str(requests_path)]
            )
            == 0
        )
        doomed, junk, ok = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert doomed["status"] == "deadline"
        assert "cost unit" in doomed["error"]
        assert junk["status"] == "error"
        assert ok["status"] == "ok"

    def test_bad_deadline_type_is_an_error_response(
        self, data_file, tmp_path, capsys
    ):
        requests = write_requests(
            tmp_path,
            [{"op": "query", "id": "x", "query": MEMBER_QUERY, "deadline": -3}],
        )
        assert main(["serve", data_file, "--input", requests]) == 0
        (response,) = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert response["status"] == "error"
        assert "deadline" in response["error"]

    def test_mistyped_fields_keep_loop_alive(
        self, data_file, tmp_path, capsys
    ):
        """Three of these lines used to end the process with a traceback;
        the other two were misread (a 1-unit deadline, a change set read
        character by character)."""
        requests = write_requests(
            tmp_path,
            [
                {"op": "query", "id": "b1", "query": 123},
                {"op": "commit", "id": "b2", "additions": 5},
                {"op": "commit", "id": "b3", "additions": [1, 2]},
                {"op": "query", "id": "b4", "query": MEMBER_QUERY, "deadline": True},
                {"op": "commit", "id": "b5", "additions": "<s> <p> <o> ."},
                {"op": "query", "id": "good", "query": MEMBER_QUERY},
            ],
        )
        assert main(["serve", data_file, "--input", requests]) == 0
        responses = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [r["status"] for r in responses] == ["error"] * 5 + ["ok"]
        assert "deadline" in responses[3]["error"]
        assert "list of N-Triples lines" in responses[4]["error"]
        assert responses[5]["id"] == "good" and responses[5]["version"] == 0

    def test_describe_without_where_keeps_loop_alive(
        self, data_file, tmp_path, capsys
    ):
        """``DESCRIBE <iri>`` has no WHERE clause; the shape classifier
        used to end the process on it, unanswered and with exit 1."""
        requests = write_requests(
            tmp_path,
            [
                {"op": "query", "id": "d", "query": DESCRIBE_QUERY},
                {"op": "query", "id": "good", "query": MEMBER_QUERY},
            ],
        )
        assert main(["serve", data_file, "--input", requests]) == 0
        described, good = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [described["status"], good["status"]] == ["ok", "ok"]
        assert main(["query", data_file, DESCRIBE_QUERY]) == 0
        printed = capsys.readouterr().out.splitlines()
        queried = printed[: printed.index("3 triple(s)")]
        served = json.loads(described["result"])["triples"]
        assert sorted(served) == sorted(queried) and len(served) == 3

    # -- error paths (exit codes asserted) ------------------------------

    def test_unknown_engine_exits_2(self, data_file, capsys):
        code = main(["serve", data_file, "--engine", "NoSuchEngine"])
        assert code == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unreadable_graph_exits_2(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "missing.nt")])
        assert code == 2
        assert "cannot read RDF file" in capsys.readouterr().err

    def test_bad_faults_spec_exits_2(self, data_file, capsys):
        code = main(["serve", data_file, "--faults", "explode:p=1"])
        assert code == 2
        assert "invalid --faults spec" in capsys.readouterr().err

    def test_nonpositive_deadline_exits_2(self, data_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", data_file, "--deadline", "0"])
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_unreadable_input_file_exits_2(self, data_file, tmp_path, capsys):
        code = main(
            ["serve", data_file, "--input", str(tmp_path / "missing.jsonl")]
        )
        assert code == 2
        assert "cannot read request file" in capsys.readouterr().err


class TestLoadtest:
    def test_smoke_run(self, data_file, capsys):
        assert main(["loadtest", data_file, "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "throughput (/kilounit)" in out
        assert "result-cache hit rate" in out

    def test_report_is_byte_reproducible(self, data_file, tmp_path, capsys):
        """Acceptance: same seed, byte-identical BENCH_server.json."""
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        args = ["loadtest", data_file, "--smoke", "--seed", "11"]
        assert main(args + ["--report", str(first)]) == 0
        assert main(args + ["--report", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["totals"]["completed"] > 0
        assert payload["config"]["seed"] == 11

    def test_deadline_aborts_coexist_with_completions(
        self, data_file, tmp_path, capsys
    ):
        report = tmp_path / "r.json"
        assert (
            main(
                [
                    "loadtest", data_file, "--no-lint",
                    "--clients", "4", "--requests", "3", "--queries", "4",
                    "--deadline", "30", "--think", "10",
                    "--report", str(report),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["totals"]["deadline_aborts"] > 0
        assert payload["totals"]["ok"] > 0

    # -- error paths (exit codes asserted) ------------------------------

    def test_unknown_engine_exits_2(self, data_file, capsys):
        code = main(
            ["loadtest", data_file, "--smoke", "--engine", "NoSuchEngine"]
        )
        assert code == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unreadable_graph_exits_2(self, tmp_path, capsys):
        code = main(["loadtest", str(tmp_path / "missing.nt"), "--smoke"])
        assert code == 2
        assert "cannot read RDF file" in capsys.readouterr().err

    def test_bad_faults_spec_exits_2(self, data_file, capsys):
        code = main(
            ["loadtest", data_file, "--smoke", "--faults", "explode:p=1"]
        )
        assert code == 2
        assert "invalid --faults spec" in capsys.readouterr().err
