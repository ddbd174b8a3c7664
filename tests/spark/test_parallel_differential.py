"""Oracle-differential: the parallel backend is byte-invisible.

Every engine, on every query of the shared workload, answers on a forked
worker pool what the reference evaluator answers, for every pool size,
with the cost-based optimizer and ExtVP views too, and charges the
counter deltas its in-process twin charges.  A named slice of the
differential matrix (tests/differential/matrix.py), whose one assertion
this is; CI runs the 2-worker column, the full workers x views sweep
carries the ``slow`` marker.
"""

import pytest

from repro.bench import BenchRun
from repro.runtime import RuntimeConfig
from repro.spark.parallel import parallel_available
from repro.systems import ALL_ENGINE_CLASSES, NaiveEngine
from tests.differential.matrix import (
    Cell,
    check,
    check_graph,
    corpus,
    dataset,
    serve_corpus,
)

pytestmark = pytest.mark.skipif(
    not parallel_available(),
    reason="parallel backend needs the fork start method",
)

ENGINES = (NaiveEngine,) + ALL_ENGINE_CLASSES

#: Worker counts the full (slow) sweep exercises; CI keeps to 2.
ALL_WORKERS = (1, 2, 4)

WORKLOAD = ("star", "linear", "snowflake", "complex") + tuple(
    key for key in corpus("lubm") if key.startswith("example:")
)


def engine_id(cls):
    return cls.profile.name


def forked(engine_class, workers=2, **plan):
    return Cell.of(
        engine_class.profile.name, backend="parallel", workers=workers, **plan
    )


@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_bytes(engine_class, query_name):
    check(forked(engine_class), "lubm", query_name)


@pytest.mark.slow
@pytest.mark.parametrize("workers", ALL_WORKERS)
@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_across_pool_sizes(
    engine_class, query_name, workers
):
    check(forked(engine_class, workers), "lubm", query_name)


@pytest.mark.parametrize("views", [False, True], ids=["optimize", "views"])
def test_parallel_matches_oracle_under_optimizer(views):
    # The optimizer rewrites join orders and substitutes ExtVP views;
    # the backend must be invisible through that whole pipeline too.
    check(forked(NaiveEngine, optimize=True, views=views), "lubm", "complex")


@pytest.mark.slow
@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_with_views(engine_class, query_name):
    check(forked(engine_class, optimize=True, views=True), "lubm", query_name)


@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_one_context_serves_the_whole_corpus(engine_class, starts_per_context):
    """One fresh engine per backend runs the canonical corpus in turn:
    each query after the first on the parallel side is a job sent to the
    pool its context forked once."""
    serve_corpus(forked(engine_class), "lubm", WORKLOAD)
    assert starts_per_context[0] <= 2


def test_each_context_of_the_assess_matrix_forks_at_most_its_workers(
    lubm_graph, starts_per_context
):
    bench = BenchRun(lubm_graph, RuntimeConfig(backend="parallel", workers=2))
    bench.run(ENGINES, {name: corpus("lubm")[name] for name in WORKLOAD[:4]})
    assert not bench.incorrect()
    assert 0 < starts_per_context[0] <= 2


def test_metrics_invariant_to_worker_count():
    # Scheduling must not leak into the cost model: the merged counters
    # are identical for every pool size, not merely the result bytes.
    costs = [
        check_graph(forked(NaiveEngine, workers), dataset("lubm"), query).cost
        for query in [corpus("lubm")["snowflake"]]
        for workers in ALL_WORKERS
    ]
    assert costs[0] == costs[1] == costs[2]


def test_oracle_answers_are_nonempty():
    # An all-empty workload would make the byte-comparison vacuous.
    assert any(check(forked(NaiveEngine), "lubm", name).nonempty for name in WORKLOAD)
