"""Oracle-differential: the parallel backend must be byte-invisible.

The in-process backend is the byte-exact oracle.  Every engine, on every
query of the shared workload, must produce a canonical wire-form answer
(:func:`repro.server.protocol.canonical_result` rendered through
:func:`canonical_json`) that is byte-identical whether partition tasks
ran serially in the driver or on a forked worker pool -- for every pool
size, and with the cost-based optimizer and materialized ExtVP views
switched on.  Merged driver-side metrics must be invariant too: the
counters are a deterministic function of the plan, not of scheduling.

CI runs the 2-worker column of the matrix; the full workers x optimizer
sweep carries the ``slow`` marker and runs on the scheduled job.
"""

import os
from multiprocessing.process import BaseProcess

import pytest

from repro.bench import BenchRun
from repro.data.lubm import LubmGenerator
from repro.runtime import RuntimeConfig
from repro.server.protocol import canonical_json, canonical_result
from repro.spark.context import SparkContext
from repro.spark.parallel import parallel_available
from repro.sparql.parser import parse_sparql
from repro.systems import ALL_ENGINE_CLASSES, NaiveEngine

pytestmark = pytest.mark.skipif(
    not parallel_available(),
    reason="parallel backend needs the fork start method",
)

ENGINES = (NaiveEngine,) + ALL_ENGINE_CLASSES

#: Worker counts the full (slow) sweep exercises; CI keeps to 2.
ALL_WORKERS = (1, 2, 4)

_EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    "examples",
    "queries",
    "clean",
)


def _read_examples():
    corpus = {}
    for name in sorted(os.listdir(_EXAMPLES_DIR)):
        if name.endswith(".rq"):
            path = os.path.join(_EXAMPLES_DIR, name)
            with open(path, "r", encoding="utf-8") as handle:
                corpus["example:" + name[:-3]] = handle.read()
    return corpus


WORKLOAD = {
    "star": LubmGenerator.query_star(),
    "linear": LubmGenerator.query_linear(),
    "snowflake": LubmGenerator.query_snowflake(),
    "complex": LubmGenerator.query_complex(),
}
WORKLOAD.update(_read_examples())


def engine_id(cls):
    return cls.profile.name


def _optimizer(graph, views=False):
    from repro.optimizer import Optimizer

    return Optimizer.for_graph(graph, views=views)


def run_canonical(
    engine_class,
    graph,
    query,
    backend="inprocess",
    workers=None,
    optimize=False,
    views=False,
    optimizer=None,
):
    """(canonical JSON bytes, metrics counters) for one execution.

    Returns (None, None) when the engine's fragment does not cover the
    query -- support is a property of the plan, so it cannot differ
    between backends.  Pass a prebuilt ``optimizer`` to skip the
    per-run catalog/view build (it is engine- and backend-independent).
    """
    ctx = SparkContext(4, backend=backend, workers=workers)
    engine = engine_class(ctx)
    engine.load(graph)
    if optimizer is not None:
        engine.set_optimizer(optimizer)
    elif optimize:
        engine.set_optimizer(_optimizer(graph, views=views))
    if not engine.supports(query):
        return None, None
    result = engine.execute(query)
    payload = canonical_json(canonical_result(result, query))
    counters = {name: value for name, value in ctx.metrics.snapshot()}
    return payload, counters


@pytest.fixture(scope="module")
def parsed_workload():
    return {name: parse_sparql(text) for name, text in WORKLOAD.items()}


@pytest.fixture(scope="module")
def oracle(lubm_graph, parsed_workload):
    """In-process canonical bytes and counters per (engine, query)."""
    answers = {}
    for engine_class in ENGINES:
        for name, query in parsed_workload.items():
            answers[(engine_class.profile.name, name)] = run_canonical(
                engine_class, lubm_graph, query
            )
    return answers


@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_bytes(
    engine_class, query_name, lubm_graph, parsed_workload, oracle
):
    expected_payload, expected_counters = oracle[
        (engine_class.profile.name, query_name)
    ]
    payload, counters = run_canonical(
        engine_class,
        lubm_graph,
        parsed_workload[query_name],
        backend="parallel",
        workers=2,
    )
    if expected_payload is None:
        assert payload is None
        pytest.skip("engine fragment does not cover this query")
    assert payload == expected_payload
    assert counters == expected_counters


@pytest.mark.slow
@pytest.mark.parametrize("workers", ALL_WORKERS)
@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_across_pool_sizes(
    engine_class, query_name, workers, lubm_graph, parsed_workload, oracle
):
    expected_payload, expected_counters = oracle[
        (engine_class.profile.name, query_name)
    ]
    payload, counters = run_canonical(
        engine_class,
        lubm_graph,
        parsed_workload[query_name],
        backend="parallel",
        workers=workers,
    )
    assert payload == expected_payload
    assert counters == expected_counters


@pytest.mark.parametrize("views", [False, True], ids=["optimize", "views"])
def test_parallel_matches_oracle_under_optimizer(
    views, lubm_graph, parsed_workload
):
    # The optimizer rewrites join orders and substitutes ExtVP views;
    # the backend must be invisible through that whole pipeline too.
    query = parsed_workload["complex"]
    expected = run_canonical(
        NaiveEngine, lubm_graph, query, optimize=True, views=views
    )
    got = run_canonical(
        NaiveEngine,
        lubm_graph,
        query,
        backend="parallel",
        workers=2,
        optimize=True,
        views=views,
    )
    assert got == expected


@pytest.fixture(scope="module")
def view_optimizer(lubm_graph):
    """One shared views-enabled optimizer: engine/backend-independent."""
    return _optimizer(lubm_graph, views=True)


@pytest.fixture(scope="module")
def views_oracle(lubm_graph, parsed_workload, view_optimizer):
    """In-process canonical bytes/counters with views substituted."""
    answers = {}
    for engine_class in ENGINES:
        for name, query in parsed_workload.items():
            answers[(engine_class.profile.name, name)] = run_canonical(
                engine_class, lubm_graph, query, optimizer=view_optimizer
            )
    return answers


@pytest.mark.slow
@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_with_views(
    engine_class,
    query_name,
    lubm_graph,
    parsed_workload,
    views_oracle,
    view_optimizer,
):
    got = run_canonical(
        engine_class,
        lubm_graph,
        parsed_workload[query_name],
        backend="parallel",
        workers=2,
        optimizer=view_optimizer,
    )
    assert got == views_oracle[(engine_class.profile.name, query_name)]


@pytest.fixture
def starts_per_context(monkeypatch):
    """The most ``Process.start`` calls any one context made while the
    test runs (a worker's context is its second argument)."""
    most = [0]
    start = BaseProcess.start

    def counting_start(self):
        ctx = self._args[1]
        ctx.process_starts = getattr(ctx, "process_starts", 0) + 1
        most[0] = max(most[0], ctx.process_starts)
        start(self)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    return most


@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_one_context_serves_the_whole_corpus(
    engine_class, lubm_graph, parsed_workload, starts_per_context
):
    """One engine per backend runs every query in turn: each query after
    the first on the parallel side is a job sent to the pool its context
    forked once.  Bytes and counter deltas per query are the oracle's."""
    engines = []
    for backend in ("inprocess", "parallel"):
        engine = engine_class(SparkContext(4, backend=backend, workers=2))
        engine.load(lubm_graph)
        engines.append(engine)
    ran = 0
    for name in sorted(parsed_workload):
        query = parsed_workload[name]
        if not engines[0].supports(query):
            continue
        answers = []
        for engine in engines:
            before = engine.ctx.metrics.snapshot()
            result = engine.execute(query)
            answers.append(
                (
                    canonical_json(canonical_result(result, query)),
                    dict(engine.ctx.metrics.snapshot() - before),
                )
            )
        assert answers[1] == answers[0], name
        ran += 1
    assert ran >= 2
    assert starts_per_context[0] <= 2


def test_each_context_of_the_assess_matrix_forks_at_most_its_workers(
    lubm_graph, starts_per_context
):
    bench = BenchRun(lubm_graph, RuntimeConfig(backend="parallel", workers=2))
    queries = {name: WORKLOAD[name] for name in ("star", "linear", "snowflake", "complex")}
    bench.run(ENGINES, queries)
    assert not bench.incorrect()
    assert 0 < starts_per_context[0] <= 2


def test_metrics_invariant_to_worker_count(lubm_graph, parsed_workload):
    # Scheduling must not leak into the cost model: the merged counters
    # are identical for every pool size, not merely the result bytes.
    query = parsed_workload["snowflake"]
    baselines = [
        run_canonical(
            NaiveEngine,
            lubm_graph,
            query,
            backend="parallel",
            workers=workers,
        )[1]
        for workers in ALL_WORKERS
    ]
    assert baselines[0] == baselines[1] == baselines[2]


def test_oracle_answers_are_nonempty(oracle):
    # An all-empty workload would make the byte-comparison vacuous.
    assert any(
        payload is not None and '"rows":[[' in payload
        for payload, _counters in oracle.values()
    )
