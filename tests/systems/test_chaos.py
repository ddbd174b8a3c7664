"""Chaos determinism: seeded fault schedules must be invisible in answers,
visible in recovery counters, conserved in traces, and byte-reproducible.

This is the executable form of the survey's fault-tolerance column: every
engine runs under an adversarial (but seeded, hence deterministic)
schedule of task failures, partition losses, and stragglers, and must
return exactly the fault-free answers while the recovery machinery --
retries, lineage recomputation, speculation -- does its work on the
counters and in the trace tree.
"""

import json

import pytest

from repro.data.lubm import LubmGenerator
from repro.explain import EngineExplain, verify_conservation
from repro.spark.context import SparkContext
from repro.spark.faults import FaultScheduler
from repro.spark.parallel import parallel_available
from repro.spark.tracing import normalize_spans, trace_to_json
from repro.sparql.parser import parse_sparql
from repro.systems import (
    ALL_ENGINE_CLASSES,
    NaiveEngine,
    S2RdfEngine,
    SparqlgxEngine,
)

needs_fork = pytest.mark.skipif(
    not parallel_available(),
    reason="parallel backend needs the fork start method",
)

ENGINES = (NaiveEngine,) + ALL_ENGINE_CLASSES

#: High enough rates that every engine hits faults on the workload, with
#: an attempt budget making permanent failure astronomically unlikely.
CHAOS_SPEC = "fail:p=0.35;lose:p=0.4;straggle:p=0.15,delay=2;seed=%d"
MAX_ATTEMPTS = 12

STAR = LubmGenerator.query_star()


def engine_id(cls):
    return cls.profile.name


def canonical(solution_set):
    return sorted(
        tuple(sorted((name, term.n3()) for name, term in solution.items()))
        for solution in solution_set
    )


def chaos_run(
    engine_class,
    graph,
    query_text,
    seed,
    trace=False,
    backend="inprocess",
    workers=None,
):
    """One engine execution under the seeded chaos schedule.

    Returns (canonical rows, marginal metrics delta, context).  Tracing,
    when requested, brackets only the query (not the load), and uses the
    traced driver path that caches operator outputs -- which is exactly
    what gives ``lose`` events cached partitions to evict.

    ``backend``/``workers`` put the same seeded schedule under the
    parallel executor: fault decisions are pure functions of
    (seed, kind, stage, partition, attempt), so workers reproduce the
    serial decisions and the recovery counters must reconcile exactly.
    """
    sc = SparkContext(
        4,
        faults=FaultScheduler.from_spec(CHAOS_SPEC % seed),
        max_task_attempts=MAX_ATTEMPTS,
        speculation=True,
        backend=backend,
        workers=workers,
    )
    engine = engine_class(sc)
    engine.load(graph)
    if trace:
        sc.tracer.clear().enable()
    before = sc.metrics.snapshot()
    result = engine.execute(query_text)
    delta = sc.metrics.snapshot() - before
    if trace:
        sc.tracer.disable()
    return canonical(result), delta, sc


@pytest.fixture(scope="module")
def fault_free_star(lubm_graph):
    engine = NaiveEngine(SparkContext(4))
    engine.load(lubm_graph)
    return canonical(engine.execute(STAR))


@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_chaos_preserves_answers_on_every_engine(
    engine_class, lubm_graph, fault_free_star
):
    rows, delta, _sc = chaos_run(engine_class, lubm_graph, STAR, seed=7)
    assert rows == fault_free_star
    # The schedule actually bit: failures happened and were retried away.
    assert delta.tasks_failed > 0
    assert delta.tasks_retried == delta.tasks_failed  # none became permanent


def test_chaos_results_byte_identical_to_fault_free(lubm_graph):
    plain = SparqlgxEngine(SparkContext(4))
    plain.load(lubm_graph)
    reference = json.dumps(canonical(plain.execute(STAR)))
    rows, _delta, _sc = chaos_run(SparqlgxEngine, lubm_graph, STAR, seed=3)
    assert json.dumps(rows) == reference


@pytest.mark.parametrize("seed", [3, 7, 23])
def test_same_seed_reproduces_counters_exactly(lubm_graph, seed):
    _rows, first, _sc = chaos_run(SparqlgxEngine, lubm_graph, STAR, seed)
    _rows, second, _sc = chaos_run(SparqlgxEngine, lubm_graph, STAR, seed)
    assert dict(first) == dict(second)


def test_same_seed_reproduces_trace_json_byte_identically(lubm_graph):
    traces = []
    for _ in range(2):
        _rows, _delta, sc = chaos_run(
            SparqlgxEngine, lubm_graph, STAR, seed=7, trace=True
        )
        traces.append(trace_to_json(sc.tracer.roots))
    assert traces[0] == traces[1]
    payload = json.loads(traces[0])
    kinds = set()

    def walk(span):
        kinds.add(span["kind"])
        for child in span.get("children", ()):
            walk(child)

    for span in payload["spans"]:
        walk(span)
    # The schedule's events are in the trace, not just in flat counters.
    assert "fault" in kinds and "retry" in kinds


def test_conservation_holds_with_recovery_spans(lubm_graph):
    _rows, delta, sc = chaos_run(
        SparqlgxEngine, lubm_graph, STAR, seed=7, trace=True
    )
    run = EngineExplain(
        engine="SPARQLGX",
        supported=True,
        rows=None,
        spans=list(sc.tracer.roots),
        totals=delta,
    )
    mismatches = verify_conservation(run)
    assert mismatches == {}, "span deltas diverge from totals: %r" % mismatches
    # Recovery counters participate in the conserved decomposition.
    assert delta.tasks_failed > 0
    flat = {counter: value for counter, value in delta if value}
    assert "tasks_failed" in flat


@needs_fork
@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_chaos_reconciles_with_inprocess(
    lubm_graph, seed, workers
):
    # Same seed, same schedule: the forked pool must land on the exact
    # answers and the exact recovery counters the serial oracle reports.
    rows_serial, delta_serial, _sc = chaos_run(
        SparqlgxEngine, lubm_graph, STAR, seed=seed
    )
    rows_parallel, delta_parallel, _sc = chaos_run(
        SparqlgxEngine,
        lubm_graph,
        STAR,
        seed=seed,
        backend="parallel",
        workers=workers,
    )
    assert rows_parallel == rows_serial
    assert dict(delta_parallel) == dict(delta_serial)
    # The reconciliation is not vacuous: the schedule actually bit.
    assert delta_parallel.tasks_failed > 0
    assert delta_parallel.tasks_retried == delta_parallel.tasks_failed


@needs_fork
@pytest.mark.parametrize(
    "engine_class", [NaiveEngine, S2RdfEngine], ids=engine_id
)
def test_parallel_chaos_traces_normalize_identically(
    lubm_graph, engine_class
):
    # Span ``seq`` numbers and cross-task sibling order are the only
    # concurrency-nondeterministic trace fields (docs/PARALLEL.md);
    # after normalize_spans() the trees must be equal, retry spans and
    # all.
    _rows, delta_serial, sc_serial = chaos_run(
        engine_class, lubm_graph, STAR, seed=7, trace=True
    )
    _rows, delta_parallel, sc_parallel = chaos_run(
        engine_class,
        lubm_graph,
        STAR,
        seed=7,
        trace=True,
        backend="parallel",
        workers=2,
    )
    serial_spans = normalize_spans(sc_serial.tracer.roots)
    parallel_spans = normalize_spans(sc_parallel.tracer.roots)
    assert parallel_spans == serial_spans
    assert dict(delta_parallel) == dict(delta_serial)

    kinds = set()

    def walk(span):
        kinds.add(span["kind"])
        for child in span.get("children", ()):
            walk(child)

    for span in parallel_spans:
        walk(span)
    assert "fault" in kinds and "retry" in kinds


@needs_fork
@pytest.mark.slow
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_chaos_preserves_answers_on_every_engine(
    engine_class, lubm_graph, fault_free_star
):
    rows, delta, _sc = chaos_run(
        engine_class,
        lubm_graph,
        STAR,
        seed=7,
        backend="parallel",
        workers=2,
    )
    assert rows == fault_free_star
    assert delta.tasks_failed > 0
    assert delta.tasks_retried == delta.tasks_failed


def test_partition_loss_recovery_fires_under_traced_chaos(lubm_graph):
    # Traced execution caches operator outputs, so a lose-heavy schedule
    # must evict some of them and trigger lineage recomputation.
    _rows, delta, _sc = chaos_run(
        SparqlgxEngine, lubm_graph, STAR, seed=7, trace=True
    )
    assert delta.partitions_recomputed > 0
    assert delta.recompute_comparisons > 0
