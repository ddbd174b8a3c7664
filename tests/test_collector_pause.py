"""The cyclic collector is paused for one unit of work (``repro._gc``).

Pinned without a clock.  The pause is safe: a query leaves no garbage
in reference cycles, so a collector paused for its length has nothing
to free after it.  And the helper keeps its contract: the collector is
on again after every way a unit can end, a caller's own choice is kept,
uses nest, and a forked worker never stays paused.
"""

import gc
import glob
import io
import json
import os

import pytest

from repro._gc import paused_collector
from repro.cli import main
from repro.data.lubm import LubmGenerator
from repro.runtime import build_engine
from repro.server import QueryService
from repro.server.frontend import handle_request, serve_lines
from repro.spark.faults import TaskFailedError
from repro.spark.parallel import parallel_available
from repro.sparql.parser import parse_sparql
from repro.systems import ENGINE_HOMES, UnsupportedQueryError

needs_fork = pytest.mark.skipif(
    not parallel_available(), reason="parallel backend needs the fork start method"
)

QUERIES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "queries"
)
QUERY_FILES = sorted(
    glob.glob(os.path.join(QUERIES, "shapes", "*", "*.rq"))
    + glob.glob(os.path.join(QUERIES, "clean", "*.rq"))
)
MEMBER_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }"
)


@pytest.fixture(scope="module")
def lubm5():
    return LubmGenerator(num_universities=5, seed=42).generate()


@pytest.fixture(scope="module")
def queries():
    assert len(QUERY_FILES) == 13
    parsed = []
    for path in QUERY_FILES:
        with open(path) as handle:
            parsed.append(parse_sparql(handle.read()))
    return parsed


@pytest.fixture
def collector_on():
    """The collector on, as a caller that never touched it has it."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.mark.parametrize(
    "backend", ["inprocess", pytest.param("parallel", marks=needs_fork)]
)
@pytest.mark.parametrize("name", sorted(ENGINE_HOMES))
def test_a_query_leaves_no_garbage_in_reference_cycles(lubm5, queries, name, backend):
    """What the pause relies on: reference counting frees everything a
    query allocates, so the collector finds nothing after it."""
    knobs = {"backend": "parallel", "workers": 2} if backend == "parallel" else {}
    engine = build_engine(name, lubm5, **knobs)
    supported = [query for query in queries if engine.supports(query)]
    assert supported
    gc.collect()  # what building the engine, or an earlier test, left
    with paused_collector():
        for query in supported:
            engine.execute(query)
            assert gc.collect() == 0, (name, backend, query)


@pytest.mark.parametrize("name", sorted(ENGINE_HOMES))
def test_a_dropped_engine_leaves_no_garbage_in_reference_cycles(lubm5, name):
    """A served commit reloads an engine and drops the old one: reference
    counting alone must free it.  (A ``SparkSession`` keeps its tables'
    rows, not DataFrames pointing back at it: S2RDF and SPARQL-Hybrid
    left their whole store in a cycle.)"""
    # A first engine pays for what importing its modules leaves.
    build_engine(name, lubm5).execute(MEMBER_QUERY)
    gc.collect()
    engine = build_engine(name, lubm5)
    engine.execute(MEMBER_QUERY)
    del engine
    assert gc.collect() == 0


def test_the_collector_is_back_on_after_an_unsupported_query(lubm_graph, collector_on):
    engine = build_engine("SPARQLGX", lubm_graph)
    with pytest.raises(UnsupportedQueryError):
        engine.execute(MEMBER_QUERY + " LIMIT 1")
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_task_failed_for_good(lubm_graph, collector_on):
    engine = build_engine("Naive", lubm_graph, faults="fail:p=1", max_task_attempts=2)
    with pytest.raises(TaskFailedError):
        engine.execute(MEMBER_QUERY)
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_deadline_abort(lubm_graph, collector_on):
    service = QueryService(lubm_graph, pool_size=1, lint_admission=False)
    response = handle_request(
        service, {"op": "query", "id": "d", "query": MEMBER_QUERY, "deadline": 5}
    )
    assert response["status"] == "deadline"
    assert gc.isenabled()


def test_a_caller_that_turned_the_collector_off_keeps_it_off(lubm_graph, collector_on):
    engine = build_engine("SPARQLGX", lubm_graph)
    service = QueryService(lubm_graph, pool_size=1)
    gc.disable()
    engine.execute(MEMBER_QUERY)
    serve_lines(service, io.StringIO(json.dumps({"query": MEMBER_QUERY})), io.StringIO())
    with paused_collector():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_nested_pauses_leave_the_collector_as_they_found_it(collector_on):
    with paused_collector():
        with paused_collector():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with paused_collector():
            with paused_collector():
                raise KeyError("inner")
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "lines, code",
    [
        (["<http://x/s> <http://x/p> <http://x/o> ."], 0),
        (["<http://x/s> <http://x/p> <http://x/o> .", "", '"x" <http://x/p> <http://x/o> .'], 2),
    ],
    ids=["answered", "malformed-file"],
)
def test_repro_query_leaves_the_collector_as_it_found_it(
    tmp_path, capsys, collector_on, enabled, lines, code
):
    """``repro query`` is one paused unit from load to table; after it,
    on success or on a malformed file, the collector is on or off as the
    caller had it."""
    path = tmp_path / "data.nt"
    path.write_text("\n".join(lines) + "\n")
    if not enabled:
        gc.disable()
    assert main(["query", str(path), "SELECT ?s WHERE { ?s ?p ?o }"]) == code
    assert gc.isenabled() is enabled
    if code:
        assert "line 3" in capsys.readouterr().err


@needs_fork
def test_a_pool_forked_inside_a_query_has_no_paused_worker(lubm_graph, collector_on):
    """The fork copies the query's pause; each worker turns the collector
    back on, and a later job, outside any pause, reads it on.  The fork
    bracket's ``gc.freeze`` is as ``tests/spark/test_parallel.py`` pins
    it: the workers' heap frozen, the driver's not."""
    engine = build_engine("SPARQLGX", lubm_graph, backend="parallel", workers=2)
    engine.execute(MEMBER_QUERY)
    pool = engine.ctx.executor_backend._pool
    assert pool is not None and gc.isenabled() and gc.get_freeze_count() == 0
    probe = engine.ctx.parallelize(list(range(4)), 4).map(
        lambda _: (os.getpid(), gc.isenabled(), gc.get_freeze_count())
    )
    seen = set(probe.collect())
    assert engine.ctx.executor_backend._pool is pool
    assert {pid for pid, _on, _frozen in seen} == {proc.pid for proc in pool.procs}
    assert all(on and frozen > 0 for _pid, on, frozen in seen), seen
    assert gc.isenabled() and gc.get_freeze_count() == 0
