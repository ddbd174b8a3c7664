"""Fault injection and lineage recovery on the raw substrate.

The regression anchors: a seeded schedule is deterministic, recovery is
invisible in query *results* (only in the recovery counters), exhausting
``max_task_attempts`` raises the typed :class:`TaskFailedError` (not a
bare exception), and recovery cost scales with uncached lineage depth.
"""

import pytest

from repro.spark.context import SparkContext
from repro.spark.faults import (
    FaultRule,
    FaultScheduler,
    FaultSpecError,
    TaskFailedError,
)
from repro.spark.sql.session import SparkSession


def chain(sc, depth=5, n=24, parts=4):
    rdd = sc.parallelize(range(n), parts)
    for _ in range(depth):
        rdd = rdd.map(lambda x: x + 1)
    return rdd


def fault_free(depth=5, n=24, parts=4):
    return chain(SparkContext(parts), depth, n, parts).collect()


class TestSpecGrammar:
    def test_full_spec_parses(self):
        scheduler = FaultScheduler.from_spec(
            "fail:p=0.3;lose:p=0.5;straggle:p=0.1,delay=3;seed=99"
        )
        assert scheduler.seed == 99
        assert [r.kind for r in scheduler.rules] == ["fail", "lose", "straggle"]
        assert scheduler.rules[2].delay == 3

    def test_bare_targeted_clause_fires_once(self):
        scheduler = FaultScheduler.from_spec("fail:stage=3,partition=1")
        (rule,) = scheduler.rules
        assert (rule.stage, rule.partition, rule.times) == (3, 1, 1)

    def test_empty_clauses_tolerated(self):
        assert FaultScheduler.from_spec("fail:p=0.5;;").active

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:p=1",       # unknown kind
            "fail:boom=1",       # unknown parameter
            "fail:p",            # missing '='
            "fail:p=nope",       # not a number
            "fail:p=1.5",        # probability out of range
            "straggle:delay=0",  # delay must be >= 1
            "seed=7",            # no rules at all
            "",                  # empty spec
        ],
    )
    def test_malformed_specs_raise_typed_error(self, bad):
        with pytest.raises(FaultSpecError):
            FaultScheduler.from_spec(bad)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        decisions = []
        for _ in range(2):
            scheduler = FaultScheduler.from_spec("fail:p=0.5;seed=11")
            decisions.append(
                [
                    scheduler.decide_task(stage, part, attempt) is not None
                    for stage in range(5)
                    for part in range(4)
                    for attempt in range(1, 4)
                ]
            )
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_different_seeds_differ(self):
        def pattern(seed):
            scheduler = FaultScheduler([FaultRule("fail", p=0.5)], seed=seed)
            return [
                scheduler.decide_task(stage, part, 1) is not None
                for stage in range(10)
                for part in range(10)
            ]

        assert pattern(1) != pattern(2)

    def test_fork_resets_firing_state(self):
        scheduler = FaultScheduler([FaultRule("fail", times=1)])
        assert scheduler.decide_task(1, 0, 1) is not None
        assert scheduler.decide_task(1, 0, 2) is None  # exhausted
        forked = scheduler.fork()
        assert forked.decide_task(1, 0, 1) is not None


class TestRetry:
    def test_failed_task_is_retried_and_result_unchanged(self):
        sc = SparkContext(4, faults=FaultScheduler([FaultRule("fail", times=1)]))
        assert chain(sc).collect() == fault_free()
        snap = sc.metrics.snapshot()
        assert snap.tasks_failed == 1
        assert snap.tasks_retried == 1

    def test_exhaustion_raises_typed_error(self):
        sc = SparkContext(
            4, faults=FaultScheduler([FaultRule("fail")]), max_task_attempts=3
        )
        with pytest.raises(TaskFailedError) as excinfo:
            chain(sc).collect()
        error = excinfo.value
        assert isinstance(error, RuntimeError)
        assert error.attempts == 3
        assert error.partition == 0
        assert error.stage >= 1
        message = str(error)
        assert "stage=%d" % error.stage in message
        assert "partition=0" in message
        assert "3 attempt(s)" in message

    def test_max_task_attempts_one_means_no_retry(self):
        sc = SparkContext(
            2,
            faults=FaultScheduler([FaultRule("fail", times=1)]),
            max_task_attempts=1,
        )
        with pytest.raises(TaskFailedError) as excinfo:
            chain(sc).collect()
        assert excinfo.value.attempts == 1
        assert sc.metrics.snapshot().tasks_retried == 0


class TestPartitionLoss:
    def test_lost_partition_recomputed_from_lineage(self):
        sc = SparkContext(4, faults=FaultScheduler())
        tail = chain(sc).cache()
        first = tail.collect()
        sc.faults.add_rule(FaultRule("lose", stage=tail.id, times=1))
        before = sc.metrics.snapshot()
        assert tail.collect() == first == fault_free()
        delta = sc.metrics.snapshot() - before
        assert delta.partitions_recomputed == 1
        assert delta.recompute_comparisons > 0

    def test_recovery_cost_scales_with_lineage_depth(self):
        def recovery_tasks(depth, cache_mid):
            sc = SparkContext(2, faults=FaultScheduler())
            rdd = sc.parallelize(range(16), 2)
            for level in range(1, depth + 1):
                rdd = rdd.map(lambda x: x + 1)
                if cache_mid and level == depth - 1:
                    rdd = rdd.cache()
            tail = rdd.cache()
            tail.count()
            sc.faults.add_rule(FaultRule("lose", stage=tail.id, times=1))
            before = sc.metrics.snapshot()
            tail.count()
            return (sc.metrics.snapshot() - before).recompute_comparisons

        deep = recovery_tasks(8, cache_mid=False)
        shallow = recovery_tasks(8, cache_mid=True)
        assert 0 < shallow < deep

    def test_checkpoint_is_immune_to_loss(self):
        sc = SparkContext(2, faults=FaultScheduler([FaultRule("lose")]))
        cp = chain(sc, parts=2).checkpoint()
        assert cp.is_checkpointed
        results = [cp.collect() for _ in range(3)]
        assert results[0] == results[1] == results[2]
        assert sc.metrics.snapshot().partitions_recomputed == 0

    def test_loss_cap_prevents_eviction_livelock(self):
        sc = SparkContext(2, faults=FaultScheduler([FaultRule("lose")]))
        cached = chain(sc, parts=2).cache()
        expected = fault_free(parts=2)
        for _ in range(6):
            assert cached.collect() == expected
        snap = sc.metrics.snapshot()
        cap = sc.faults.max_losses_per_partition * cached.num_partitions
        assert 0 < snap.partitions_recomputed <= cap


class TestStragglers:
    def test_straggler_charges_delay_without_speculation(self):
        sc = SparkContext(
            2,
            faults=FaultScheduler([FaultRule("straggle", times=2, delay=5)]),
        )
        assert chain(sc, parts=2).collect() == fault_free(parts=2)
        snap = sc.metrics.snapshot()
        assert snap["stragglers"] == 2
        assert snap["straggler_delay_units"] == 10
        assert snap.speculative_launches == 0

    def test_speculation_launches_backup_copies(self):
        def run(speculation):
            sc = SparkContext(
                2,
                faults=FaultScheduler([FaultRule("straggle", times=2)]),
                speculation=speculation,
            )
            chain(sc, parts=2).collect()
            return sc.metrics.snapshot()

        off, on = run(False), run(True)
        assert on.speculative_launches == 2
        assert on.tasks == off.tasks + 2  # each backup copy is a real task


class TestFaultSpans:
    def test_fault_and_retry_spans_recorded(self):
        sc = SparkContext(4, faults=FaultScheduler([FaultRule("fail", times=1)]))
        sc.tracer.enable()
        chain(sc).collect()
        sc.tracer.disable()
        spans = [s for root in sc.tracer.roots for s in root.walk()]
        faults = [s for s in spans if s.kind == "fault"]
        retries = [s for s in spans if s.kind == "retry"]
        assert len(faults) == 1 and faults[0].name == "fail"
        assert faults[0].metrics.get("tasks_failed") == 1
        assert {"stage", "partition", "attempt"} <= set(faults[0].attrs)
        assert len(retries) == 1 and retries[0].name == "attempt2"
        assert retries[0].metrics.get("tasks_retried") == 1

    def test_lose_span_contains_the_recovery(self):
        sc = SparkContext(2, faults=FaultScheduler())
        tail = chain(sc, parts=2).cache()
        tail.collect()
        sc.faults.add_rule(FaultRule("lose", stage=tail.id, times=1))
        sc.tracer.enable()
        tail.collect()
        sc.tracer.disable()
        lose = [
            s
            for root in sc.tracer.roots
            for s in root.walk()
            if s.kind == "fault" and s.name == "lose"
        ]
        assert len(lose) == 1
        assert lose[0].metrics.get("partitions_recomputed") == 1
        # the recomputation's tasks are charged inside the lose span
        assert lose[0].metrics.get("tasks", 0) > 0


class TestKnobThreading:
    def test_session_forwards_fault_knobs(self):
        session = SparkSession(
            SparkContext(faults="fail:p=1", max_task_attempts=2)
        )
        df = session.createDataFrame([(1, "a"), (2, "b")], ["n", "s"])
        with pytest.raises(TaskFailedError):
            df.collect()

    def test_session_recovers_transparently(self):
        plain = SparkSession().createDataFrame([(1,), (2,), (3,)], ["n"])
        session = SparkSession(
            SparkContext(faults=FaultScheduler([FaultRule("fail", times=1)]))
        )
        df = session.createDataFrame([(1,), (2,), (3,)], ["n"])
        assert df.collect() == plain.collect()
        assert session.ctx.metrics.snapshot().tasks_retried == 1

    def test_session_rejects_ctx_plus_faults(self):
        # Fault knobs belong to the context; the session takes none.
        with pytest.raises(TypeError):
            SparkSession(ctx=SparkContext(2), faults="fail:p=1")

    def test_context_rejects_bad_attempt_limit(self):
        with pytest.raises(ValueError):
            SparkContext(2, max_task_attempts=0)
