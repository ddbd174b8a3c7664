"""Exit codes 1 and 4 reached from real failures, not from a flag.

``assess`` exits 1 when an engine answers wrong, and a closure that
mutates driver state, submitted by an engine under
``--verify-closures``, ends the run with exit 4.  Both failures are
planted in an engine; nothing patches the CLI itself.
"""

import pytest

from repro.cli import main
from repro.data.lubm import LubmGenerator
from repro.rdf.ntriples import save_ntriples_file
from repro.sparql.results import SolutionSet
from repro.systems import SparqlgxEngine

STAR_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?n WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n }"
)


@pytest.fixture
def tiny_file(tmp_path):
    graph = LubmGenerator(
        num_universities=1,
        departments_per_university=1,
        professors_per_department=2,
        students_per_department=4,
        courses_per_department=3,
    ).generate()
    path = tmp_path / "tiny.nt"
    save_ntriples_file(str(path), graph)
    return str(path)


def test_assess_exits_1_on_a_dropped_row(tiny_file, monkeypatch, capsys):
    execute = SparqlgxEngine.execute

    def drop_a_row(self, query):
        answer = execute(self, query)
        if isinstance(answer, SolutionSet) and answer.rows:
            answer.rows.pop()
        return answer

    monkeypatch.setattr(SparqlgxEngine, "execute", drop_a_row)
    assert main(["assess", tiny_file, "--parallelism", "2"]) == 1
    rows = [
        [cell.strip() for cell in line.split("|")[1:-1]]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("|")
    ]
    assert rows[0][3] == "answers"
    assert {row[0] for row in rows if row[3] == "WRONG"} == {"SPARQLGX"}


def test_mutating_closure_exits_4(tiny_file, monkeypatch, capsys):
    execute = SparqlgxEngine.execute
    seen = []

    def submit_a_mutating_closure(self, query):
        self.ctx.parallelize([1, 2]).map(lambda x: seen.append(x)).collect()
        return execute(self, query)

    monkeypatch.setattr(SparqlgxEngine, "execute", submit_a_mutating_closure)
    argv = ["query", tiny_file, STAR_QUERY, "--verify-closures"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: closure rejected at job submission:\n"
    )
    assert "CL001" in captured.err and "Traceback" not in captured.err
    assert seen == []
