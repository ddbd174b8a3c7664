"""Tests for the command-line interface and the generated survey report."""

import pytest

from repro.cli import load_graph, main
from repro.core.survey import render_survey
from repro.data.lubm import LubmGenerator
from repro.rdf.ntriples import save_ntriples_file

XSD = "http://www.w3.org/2001/XMLSchema#"


@pytest.fixture
def data_file(tmp_path, lubm_graph):
    path = tmp_path / "data.nt"
    save_ntriples_file(str(path), lubm_graph)
    return str(path)


class TestSurveyReport:
    def test_contains_every_system(self):
        report = render_survey()
        for name in (
            "HAQWA", "SPARQLGX", "S2RDF", "SPARQL-Hybrid", "S2X",
            "Spar(k)ql", "GraphFrames-RDF", "SparkRDF",
        ):
            assert name in report

    def test_grouped_by_data_model(self):
        report = render_survey()
        triple_section = report.index("Triple Processing Systems")
        graph_section = report.index("Graph Processing")
        assert triple_section < report.index("S2RDF") < graph_section
        assert graph_section < report.index("S2X")

    def test_dimension_lines_present(self):
        report = render_survey()
        assert "query processing:" in report
        assert "partitioning:" in report
        assert "sparql fragment:" in report


class TestCli:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Apache Spark Abstraction" in out
        assert "Hash / Query Aware" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        assert "HAQWA" in capsys.readouterr().out

    def test_query_with_literal_text(self, data_file, capsys):
        code = main(
            [
                "query",
                data_file,
                "PREFIX lubm: <http://repro.example.org/lubm#>\n"
                "SELECT DISTINCT ?d WHERE { ?s lubm:memberOf ?d }",
                "--engine",
                "SPARQLGX",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 solution(s)" in out  # three departments
        assert "cost:" in out

    def test_query_from_file(self, data_file, tmp_path, capsys):
        query_path = tmp_path / "q.rq"
        query_path.write_text(LubmGenerator.query_star())
        assert main(["query", data_file, str(query_path)]) == 0
        assert "solution(s)" in capsys.readouterr().out

    def test_ask_query(self, data_file, capsys):
        main(
            [
                "query",
                data_file,
                "PREFIX lubm: <http://repro.example.org/lubm#>\n"
                "ASK { ?s lubm:memberOf ?d }",
            ]
        )
        assert capsys.readouterr().out.startswith("yes")

    def test_construct_query(self, data_file, capsys):
        main(
            [
                "query",
                data_file,
                "PREFIX lubm: <http://repro.example.org/lubm#>\n"
                "CONSTRUCT { ?d lubm:hasMember ?s } "
                "WHERE { ?s lubm:memberOf ?d }",
                "--engine",
                "Naive",
            ]
        )
        assert "triple(s)" in capsys.readouterr().out

    def test_unknown_engine_exits(self, data_file, capsys):
        for command in ("query", "explain"):
            code = main([command, data_file, "SELECT ?s WHERE { ?s ?p ?o }",
                         "--engine", "NoSuchEngine"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith(
                "error: unknown engine 'NoSuchEngine'; choose one of: Naive,"
            )
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, passes",
        [
            pytest.param(
                argv, passes, id="-".join(arg.lstrip("-") for arg in argv)
            )
            for argv, passes in [
                (["query", "--engine", "SPARQLGX", "--optimize"], 1),
                # Nothing here reads a catalog: SPARQLGX counts its
                # partition sizes and totals from the graph's own indexes.
                (["query", "--engine", "SPARQLGX"], 0),
                (["explain"], 1),  # SPARQLGX + S2RDF + HAQWA, lint block on
                (["explain", "--optimize", "--views", "--route"], 1),
            ]
        ],
    )
    def test_one_statistics_pass_per_invocation(
        self, data_file, stats_passes, capsys, argv, passes
    ):
        """Engine, optimizer, linter and routing read one catalog: the
        graph is counted once however many of them an invocation has,
        and not at all when none of them is there to read it."""
        star = LubmGenerator.query_star()
        assert main(argv[:1] + [data_file, star] + argv[1:]) == 0
        assert len(stats_passes) == passes

    def test_generate_then_load_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "generated.nt"
        assert main(["generate", "lubm", str(path), "--scale", "1"]) == 0
        graph = load_graph(str(path))
        assert len(graph) > 100

    def test_generate_watdiv(self, tmp_path):
        path = tmp_path / "shop.nt"
        assert main(["generate", "watdiv", str(path)]) == 0

    def test_load_turtle(self, tmp_path):
        path = tmp_path / "d.ttl"
        path.write_text(
            "@prefix ex: <http://x/> .\nex:a ex:p ex:b .\n"
        )
        assert len(load_graph(str(path))) == 1

    @pytest.mark.parametrize(
        "literal, printed",
        [(r'"a\\b"', r'"a\\b"'), (r'"x\ny"', r'"x\ny"'), (r'"it\'s"', '"it\'s"')],
    )
    def test_a_literal_of_the_data_is_a_constant_of_a_query(
        self, tmp_path, capsys, literal, printed
    ):
        """Regression: the query read these constants otherwise than the
        loader read the data, and each query answered 0 rows."""
        path = tmp_path / "escapes.nt"
        path.write_text(
            r'<http://x/s1> <http://x/p> "a\\b" .' "\n"
            r'<http://x/s2> <http://x/p> "x\ny" .' "\n"
            r'<http://x/s3> <http://x/p> "it\'s" .' "\n"
        )
        query = "SELECT ?o WHERE { ?s <http://x/p> %s . ?s <http://x/p> ?o }"
        assert main(["query", str(path), query % literal]) == 0
        out = capsys.readouterr().out
        assert "1 solution(s)" in out
        assert "| %s |" % printed in out

    @pytest.mark.parametrize("suffix", [".nt", ".ttl"])
    def test_an_iri_escape_in_the_data_is_the_iri_of_a_query(
        self, tmp_path, capsys, suffix
    ):
        """Regression: ``<http://x/\\u0041>`` in the data loaded as
        itself, and no query for ``<http://x/A>`` found it."""
        path = tmp_path / ("escapes" + suffix)
        path.write_text(r"<http://x/\u0041> <http://x/p> <http://x/o> ." "\n")
        query = "SELECT ?p WHERE { <http://x/A> ?p ?o }"
        assert main(["query", str(path), query]) == 0
        assert "1 solution(s)" in capsys.readouterr().out
        query = r"SELECT ?p WHERE { <http://x/\U00000041> ?p ?o }"
        assert main(["query", str(path), query]) == 0
        assert "1 solution(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "literal",
        ['"abc"^^<%sint>' % XSD, '"%s"^^<%sinteger>' % ("9" * 401, XSD)],
        ids=["ill_typed", "401_digits"],
    )
    def test_a_numeric_literal_no_number_fits_is_answered(
        self, tmp_path, capsys, literal
    ):
        """Regression: SPARQLGX's store build raised ValueError on an
        ill-typed ``xsd:int`` and OverflowError on a 401-digit integer;
        ORDER BY and FILTER raised on the ill-typed one under Naive too."""
        path = tmp_path / "numeric.nt"
        path.write_text("<http://x/s> <http://x/p> %s .\n" % literal)
        query = "SELECT ?o WHERE { ?s <http://x/p> ?o }"
        # ``"abc" > 3`` is a type error and an ill-typed numeric's
        # effective boolean value is false: the row fails either FILTER.
        kept = 0 if literal.startswith('"abc"') else 1
        cases = [
            (query, 1),
            (query + " ORDER BY ?o", 1),
            (query.replace(" }", " FILTER(?o > 3) }"), kept),
            (query.replace(" }", " FILTER(?o) }"), kept),
        ]
        for engine in ("Naive", "SPARQLGX"):
            for text, rows in cases:
                argv = ["query", str(path), text, "--engine", engine]
                assert main(argv) == 0
                assert "%d solution(s)" % rows in capsys.readouterr().out

    def test_an_iri_escape_iriref_forbids_exits_2(self, tmp_path, capsys):
        path = tmp_path / "escapes.nt"
        path.write_text(r"<http://x/a\u0020b> <http://x/p> <http://x/o> ." "\n")
        assert main(["query", str(path), "SELECT ?s WHERE { ?s ?p ?o }"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse RDF file")
        assert "line 1: bad escape \\u0020" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("escape", [r"\q", r"\u12"])
    def test_an_unknown_escape_in_n_triples_exits_2_naming_the_line(
        self, tmp_path, capsys, escape
    ):
        """Regression: ``\\q`` and a short ``\\u12`` were kept as written."""
        path = tmp_path / "escapes.nt"
        path.write_text(
            "<http://x/s> <http://x/p> <http://x/o> .\n"
            '<http://x/s> <http://x/p> "a%s" .\n' % escape
        )
        assert main(["query", str(path), "SELECT ?s WHERE { ?s ?p ?o }"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse RDF file")
        assert ": line 2: bad escape %s: neither ECHAR nor UCHAR" % escape in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("escape", [r"\q", r"\u12"])
    def test_an_unknown_escape_in_turtle_exits_2_naming_the_line(
        self, tmp_path, capsys, escape
    ):
        path = tmp_path / "escapes.ttl"
        path.write_text(
            "@prefix x: <http://x/> .\n"
            "x:s x:p x:o ;\n"
            '    x:q "a%s" .\n' % escape
        )
        assert main(["query", str(path), "SELECT ?s WHERE { ?s ?p ?o }"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse RDF file")
        assert ": line 3: bad escape %s: neither ECHAR nor UCHAR" % escape in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("escape", [r"\q", r"\u12"])
    def test_an_unknown_escape_in_sparql_exits_2_naming_the_position(
        self, tmp_path, capsys, escape
    ):
        path = tmp_path / "one.nt"
        path.write_text("<http://x/s> <http://x/p> <http://x/o> .\n")
        query = 'SELECT ?s WHERE { ?s ?p "a%s" }' % escape
        assert main(["query", str(path), query]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad escape %s: neither ECHAR nor UCHAR at position 24\n" % escape

    @pytest.mark.parametrize("suffix", [".nt", ".ttl"])
    def test_an_iri_with_a_raw_space_exits_2_naming_the_line(
        self, tmp_path, capsys, suffix
    ):
        path = tmp_path / ("space" + suffix)
        path.write_text(
            "<http://x/s> <http://x/p> <http://x/o> .\n"
            "<http://x/s> <http://x/p> <http://x/a b> .\n"
        )
        assert main(["query", str(path), "SELECT ?s WHERE { ?s ?p ?o }"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse RDF file")
        assert ": line 2: " in err and len(err.splitlines()) == 1

    def test_a_prefix_iri_iriref_forbids_exits_2(self, tmp_path, capsys):
        """Regression: a PREFIX's IRI skipped the IRIREF check, so
        ``x:c`` below read as ``<http://x/a|bc>`` and the query ran."""
        path = tmp_path / "one.nt"
        path.write_text("<http://x/s> <http://x/p> <http://x/o> .\n")
        query = "PREFIX x: <http://x/a|b> ASK { x:c ?p ?o }"
        assert main(["query", str(path), query]) == 2
        err = capsys.readouterr().err
        assert err == "error: not an IRI: '<http://x/a|b>' at position 10\n"

    def test_query_recovers_under_fault_schedule(self, data_file, capsys):
        query = (
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT DISTINCT ?d WHERE { ?s lubm:memberOf ?d }"
        )
        assert main(["query", data_file, query]) == 0
        clean = capsys.readouterr().out
        assert main(
            [
                "query", data_file, query,
                "--faults", "fail:p=0.3;seed=7",
                "--max-task-attempts", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "recovery: failed=" in out
        failed = int(out.split("recovery: failed=")[1].split()[0])
        assert failed > 0
        # identical solutions, fault schedule or not
        assert out.split("cost:")[0] == clean.split("cost:")[0]

    def test_exhausted_attempts_exit_nonzero_with_readable_message(
        self, data_file, capsys
    ):
        code = main(
            [
                "query", data_file, "SELECT ?s WHERE { ?s ?p ?o }",
                "--faults", "fail:p=1",
                "--max-task-attempts", "2",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "task failed permanently" in err
        assert "stage=" in err and "partition=" in err
        assert "2 attempt(s)" in err
        assert "--max-task-attempts" in err  # tells the user the way out

    def test_invalid_fault_spec_exits_nonzero(self, data_file, capsys):
        code = main(
            [
                "query", data_file, "SELECT ?s WHERE { ?s ?p ?o }",
                "--faults", "explode:p=1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --faults spec" in err
        assert "explode" in err

    def test_assess_small(self, tmp_path, capsys):
        from repro.data.lubm import LubmGenerator as Gen
        from repro.rdf.ntriples import save_ntriples_file

        graph = Gen(
            num_universities=1,
            departments_per_university=1,
            professors_per_department=2,
            students_per_department=4,
            courses_per_department=3,
        ).generate()
        path = tmp_path / "tiny.nt"
        save_ntriples_file(str(path), graph)
        assert main(["assess", str(path), "--parallelism", "2"]) == 0
        out = capsys.readouterr().out
        assert "SPARQLGX" in out and "WRONG" not in out

    def test_assess_under_fault_schedule_stays_correct(self, tmp_path, capsys):
        from repro.data.lubm import LubmGenerator as Gen
        from repro.rdf.ntriples import save_ntriples_file

        graph = Gen(
            num_universities=1,
            departments_per_university=1,
            professors_per_department=2,
            students_per_department=4,
            courses_per_department=3,
        ).generate()
        path = tmp_path / "tiny.nt"
        save_ntriples_file(str(path), graph)
        assert main(
            [
                "assess", str(path), "--parallelism", "2",
                "--faults", "fail:p=0.3;lose:p=0.4;seed=7",
                "--max-task-attempts", "12",
            ]
        ) == 0
        assert "WRONG" not in capsys.readouterr().out


class TestRouteCommand:
    STAR = (
        "PREFIX lubm: <http://repro.example.org/lubm#> "
        "SELECT ?s ?n WHERE { ?s lubm:name ?n . ?s lubm:age ?a }"
    )

    def test_route_prints_decision(self, data_file, capsys):
        assert main(["route", data_file, self.STAR]) == 0
        out = capsys.readouterr().out
        assert out.startswith("routing: shape=star")
        assert "HAQWA" in out and "<- winner" in out

    def test_route_json_is_deterministic(self, data_file, capsys):
        import json

        assert main(["route", data_file, self.STAR, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["route", data_file, self.STAR, "--json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["winner"] == "HAQWA"

    def test_route_custom_pool(self, data_file, capsys):
        assert (
            main(
                [
                    "route", data_file, self.STAR,
                    "--engine", "SPARQLGX", "--engine", "Naive",
                ]
            )
            == 0
        )
        assert "winner=SPARQLGX" in capsys.readouterr().out

    def test_route_unknown_engine_exit_code(self, data_file, capsys):
        assert (
            main(["route", data_file, self.STAR, "--engine", "NoSuch"]) == 2
        )

    def test_explain_route_preamble(self, data_file, capsys):
        assert (
            main(
                [
                    "explain", data_file, self.STAR,
                    "--route", "--engine", "SPARQLGX",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "routing: shape=star" in out
        assert out.index("routing:") < out.index("== SPARQLGX ==")

    def test_route_engines_without_route_is_config_error(
        self, data_file, capsys
    ):
        assert (
            main(
                [
                    "explain", data_file, self.STAR,
                    "--route-engines", "SPARQLGX",
                ]
            )
            == 2
        )
        assert "--route-engines requires --route" in (
            capsys.readouterr().err
        )

    def test_loadtest_shape_mix_routed(self, data_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "loadtest", data_file, "--smoke", "--route",
                    "--shape-mix", "--report", str(report),
                ]
            )
            == 0
        )
        import json

        payload = json.loads(report.read_text())
        assert payload["config"]["route"] is True
        assert payload["routing"]["enabled"] is True
        assert payload["shapes"]
