"""The function-entry census (benchmarks/census.py) on a toy run.

Two recorded commands, one report: the table is byte-stable, names every
``def`` under ``src/repro`` exactly once -- checked against the code
objects the compiler makes, which is what the recorder logs -- and marks
what each command entered under that command's tag only.

The census is dynamic: a branch no run takes is invisible to it, so a
function it calls unentered can still have a caller.  The report says
``referenced`` where the name of such a function still occurs outside
its own body (the toy case), and the last test is the static half of the
deletion rule -- no function under ``src/repro`` loads a global that its
module never binds.
"""

import ast
import builtins
import dis
import os
import runpy
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CENSUS = os.path.join(ROOT, "benchmarks", "census.py")
SRC = os.path.join(ROOT, "src", "repro")
CO_OPTIMIZED = 0x1  # set on function bodies, not on class bodies


def census(logs, *argv):
    env = dict(os.environ, CENSUS_LOGS=str(logs), PYTHONPATH=os.path.dirname(SRC))
    return subprocess.run(
        [sys.executable, CENSUS, *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


def compiled_functions():
    """``file:line`` of every named function the compiler sees."""
    found = []
    for folder, _folders, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                pending = [compile(handle.read(), path, "exec")]
            while pending:
                code = pending.pop()
                pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
                if code.co_flags & CO_OPTIMIZED and not code.co_name.startswith("<"):
                    found.append(
                        "%s:%d" % (os.path.relpath(path, SRC), code.co_firstlineno)
                    )
    return found


def test_report_is_deterministic_and_names_every_function_once(tmp_path):
    census(tmp_path, "record", "cli", "--", sys.executable, "-m", "repro", "survey")
    census(
        tmp_path, "record", "examples", "--", sys.executable, "-c",
        "from repro.rdf.terms import URI; URI('http://x/a').n3();"
        "from repro.sparql.parser import parse_sparql as q;"
        "from repro.spark.sql.parser import parse_sql;"
        "q('SELECT ?s WHERE { ?s ?p ?o }'); parse_sql('SELECT a FROM t')",
    )
    report = census(tmp_path, "report")
    assert report == census(tmp_path, "report")

    header, *rows = (line.split("\t") for line in report.splitlines())
    assert header[:3] == ["file:line", "name", "lines"] and header[-1] == "why"
    assert sorted(row[0] for row in rows) == sorted(compiled_functions())

    entered = {
        row[1]: {tag for tag, mark in zip(header[3:-1], row[3:-1]) if mark}
        for row in rows
        if row[0].startswith(("cli.py:", "rdf/terms.py:"))
    }
    assert entered["cmd_survey"] == {"cli"}
    assert entered["URI.n3"] == {"examples"}
    assert entered["cmd_query"] == set() == entered["BNode.n3"]
    # Two files, one body, one line number: equal code objects, two rows.
    twins = [row for row in rows if row[1] == "TokenStream.at_keyword"]
    assert [row[3:-1] for row in twins] == [["", "", "", "", "", "x"]] * 2
    # Unentered here, without a reason in the committed table, and named
    # by build_parser: not deletable on the census alone.
    assert {row[-1] for row in rows if row[1] == "cmd_query"} == {"referenced"}


def test_referenced_means_named_outside_the_own_body():
    census = runpy.run_path(CENSUS)
    tree = ast.parse(
        "def called(): pass\n"
        "def caller(): called()\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Box:\n"
        "    def method(self): return self.method\n"
        "    alias = method\n"
        "    def looked_up(self): pass\n"
        "Box().looked_up\n"
    )
    used = census["identifiers"](tree)
    defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert {n.name for n in defs if census["referenced"](n, used)} == {
        "called", "method", "looked_up",
    }


def unbound_globals(path):
    """``name (function)`` for every global *path* reads but never binds."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    bound = set(dir(builtins)) | {"__file__", "__name__", "__doc__"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            bound.update(node.names)
    missing = set()
    pending = [compile(source, path, "exec")]
    while pending:
        code = pending.pop()
        pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        if code.co_flags & CO_OPTIMIZED:
            missing.update(
                "%s (%s)" % (ins.argval, code.co_name)
                for ins in dis.get_instructions(code)
                if ins.opname == "LOAD_GLOBAL" and ins.argval not in bound
            )
    return sorted(missing)


def test_no_function_reads_a_global_its_module_never_binds():
    unbound = {}
    for folder, _folders, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                unbound[os.path.relpath(path, SRC)] = unbound_globals(path)
    assert {path: names for path, names in unbound.items() if names} == {}
