"""What a cold invocation loads, as a set of module names -- no clock.

``import repro.cli`` and a plain ``query --engine SPARQLGX`` must not
load the subsystems the answer never runs (docs/ARCHITECTURE.md, "Import
map").  Each case runs in a fresh interpreter, because this test process
has long since imported everything.
"""

import json
import subprocess
import sys

import pytest

from repro.rdf.ntriples import save_ntriples_file
from repro.spark.parallel import parallel_available

QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d ?n WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n }"
)
#: Never loaded by ``import repro.cli`` or by a plain SPARQLGX query.
FORBIDDEN = (
    "repro.server",
    "repro.shacl",
    "repro.analysis",
    "repro.federation",
    "repro.routing",
    "repro.evolution",
    "repro.optimizer",
    "repro.data",
    "repro.spark.sql",
    "repro.spark.graphx",
    "repro.spark.graphframes",
)
ENGINE_MODULES = {"repro.systems", "repro.systems.base", "repro.systems.sparqlgx"}

#: Runs ``main(argv)`` and reports the modules loaded before and after,
#: the answer, and what each forked worker imported that the driver had
#: not when it forked (one list per worker, written before each stage's
#: closing message -- the driver has read the last one before the job
#: returns, and the workers live on until the context ends).
SCRIPT = """
import contextlib, io, json, os, sys
import repro.cli
import repro.spark.parallel as parallel
imported = sorted(sys.modules)
at_fork, workers = set(), sys.argv[1]
os.register_at_fork(before=lambda: at_fork.update(sys.modules))
worker_main = parallel._worker_main
def reporting_worker(worker_id, ctx, nodes, conn):
    terms = ctx.executor_backend.terms
    class Reporting:
        recv_bytes, close = conn.recv_bytes, conn.close
        def send_bytes(self, blob):
            if terms.loads(blob)[0] == "done":
                with open(os.path.join(workers, str(os.getpid())), "w") as handle:
                    json.dump(sorted(set(sys.modules) - at_fork), handle)
            conn.send_bytes(blob)
    worker_main(worker_id, ctx, nodes, Reporting())
parallel._worker_main = reporting_worker
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(sys.argv[2:])
json.dump(
    {
        "imported": imported,
        "ran": sorted(sys.modules),
        "code": code,
        "out": out.getvalue(),
        "workers": [
            json.load(open(os.path.join(workers, name)))
            for name in sorted(os.listdir(workers))
        ],
    },
    sys.stdout,
)
"""


@pytest.fixture
def run_cli(tmp_path, lubm_graph):
    data = tmp_path / "data.nt"
    save_ntriples_file(str(data), lubm_graph)

    def run(*flags):
        workers = tmp_path / ("workers" + "".join(flags))
        workers.mkdir()
        argv = ["query", str(data), QUERY, "--engine", "SPARQLGX", *flags]
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, str(workers), *argv],
            capture_output=True, text=True, check=True,
        )
        report = json.loads(proc.stdout)
        assert report["code"] == 0
        return report

    return run


def repro_modules(names):
    return {name for name in names if name.split(".")[0] == "repro"}


def assert_within_budget(names):
    loaded = repro_modules(names)
    assert not [name for name in loaded if name.startswith(FORBIDDEN)]
    engines = {name for name in loaded if name.startswith("repro.systems")}
    assert engines <= ENGINE_MODULES


def test_plain_query_loads_only_what_it_runs(run_cli):
    report = run_cli()
    assert_within_budget(report["imported"])
    assert not repro_modules(report["imported"]) & ENGINE_MODULES
    assert_within_budget(report["ran"])
    assert ENGINE_MODULES <= set(report["ran"])
    # The forked backend's machinery is for a run that forks.
    assert "multiprocessing" not in report["ran"]
    assert report["workers"] == []


def test_optimized_query_loads_the_optimizer_and_answers_the_same(run_cli):
    plain, optimized = run_cli(), run_cli("--optimize")
    assert "repro.optimizer.planner" in optimized["ran"]
    assert "repro.stats.catalog" in optimized["ran"]
    assert "repro.stats.catalog" not in plain["ran"]

    def answer(report):
        return [
            line for line in report["out"].splitlines()
            if not line.startswith("cost:")
        ]

    assert sorted(answer(optimized)) == sorted(answer(plain))
    assert len(answer(plain)) > 5


@pytest.mark.skipif(not parallel_available(), reason="needs fork")
def test_forked_workers_import_nothing_new(run_cli):
    """Whatever a task needs was loaded by the driver before it forked:
    no worker pays for an import, once per worker per job."""
    serial, forked = run_cli(), run_cli("--backend", "parallel", "--workers", "2")
    assert forked["out"] == serial["out"]
    assert len(forked["workers"]) >= 2
    assert all(imported == [] for imported in forked["workers"])
    assert_within_budget(forked["ran"])
