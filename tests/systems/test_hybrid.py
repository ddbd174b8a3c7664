"""Hybrid-engine tests: the four strategies of [21] and their costs."""

import copy
from functools import lru_cache
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.lubm import LubmGenerator
from repro.data.watdiv import WatdivGenerator
from repro.server.protocol import canonical_json, canonical_result
from repro.spark.context import SparkContext
from repro.spark.metrics import Header
from repro.spark.rdd import RDD
from repro.spark.rows import rows
from repro.sparql.algebra import evaluate, pattern_variables
from repro.sparql.ast import TriplePattern, Variable, connected_order
from repro.sparql.fragments import features_of
from repro.sparql.parser import parse_sparql
from repro.systems.base import fold_joins
from repro.systems.hybrid import HybridEngine, JoinStrategy
from tests.differential import matrix
from tests.systems.conftest import assert_engine_matches_reference
from tests.systems.test_engine_pins import LUBM_EXTRA, LUBM_PREFIX

PREFIX = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

STAR = PREFIX + """
SELECT ?s ?d ?a WHERE {
  ?s rdf:type lubm:GraduateStudent .
  ?s lubm:memberOf ?d .
  ?s lubm:age ?a .
}
"""

SNOWFLAKE = LubmGenerator.query_snowflake()

DISCONNECTED = PREFIX + """
SELECT ?u ?d WHERE {
  ?u rdf:type lubm:University .
  ?d rdf:type lubm:Department .
}
"""


def build(lubm_graph, strategy, **kwargs):
    engine = HybridEngine(SparkContext(4), strategy=strategy, **kwargs)
    engine.load(lubm_graph)
    return engine


def run_cost(engine, query):
    before = engine.ctx.metrics.snapshot()
    engine.execute(query)
    return engine.ctx.metrics.snapshot() - before


class TestCorrectnessPerStrategy:
    @pytest.mark.parametrize("strategy", list(JoinStrategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("query", [STAR, SNOWFLAKE, DISCONNECTED],
                             ids=["star", "snowflake", "disconnected"])
    def test_all_strategies_agree_with_reference(
        self, lubm_graph, strategy, query
    ):
        engine = build(lubm_graph, strategy)
        assert_engine_matches_reference(engine, lubm_graph, query)


class TestStrategyCostProperties:
    def test_rdd_strategy_never_broadcasts(self, lubm_graph):
        engine = build(lubm_graph, JoinStrategy.RDD)
        cost = run_cost(engine, SNOWFLAKE)
        assert cost.broadcast_bytes == 0
        assert cost.shuffle_records > 0

    def test_dataframe_strategy_broadcasts_small_sides(self, lubm_graph):
        engine = build(
            lubm_graph, JoinStrategy.DATAFRAME, broadcast_threshold=10**6
        )
        cost = run_cost(engine, SNOWFLAKE)
        assert cost.broadcast_bytes > 0

    def test_dataframe_threshold_zero_degrades_to_partitioned(self, lubm_graph):
        engine = build(
            lubm_graph, JoinStrategy.DATAFRAME, broadcast_threshold=0
        )
        cost = run_cost(engine, SNOWFLAKE)
        assert cost.broadcast_bytes == 0

    def test_hybrid_exploits_subject_partitioning_on_stars(self, lubm_graph):
        hybrid = build(lubm_graph, JoinStrategy.HYBRID)
        rdd = build(lubm_graph, JoinStrategy.RDD)
        hybrid_cost = run_cost(hybrid, STAR)
        rdd_cost = run_cost(rdd, STAR)
        # Subject-subject joins stay on their executor under hybrid.
        assert (
            hybrid_cost.shuffle_remote_records
            <= rdd_cost.shuffle_remote_records
        )

    def test_hybrid_beats_rdd_on_remote_traffic_for_snowflake(self, lubm_graph):
        hybrid = build(lubm_graph, JoinStrategy.HYBRID)
        rdd = build(lubm_graph, JoinStrategy.RDD)
        assert (
            run_cost(hybrid, SNOWFLAKE).shuffle_remote_records
            <= run_cost(rdd, SNOWFLAKE).shuffle_remote_records
        )

    def test_sql_strategy_generates_self_joins(self, lubm_graph):
        engine = build(lubm_graph, JoinStrategy.SPARK_SQL)
        engine.execute(STAR)
        assert engine.last_sql.count("triples") >= 3

    def test_sql_strategy_cross_join_on_disconnected_patterns(self, lubm_graph):
        engine = build(lubm_graph, JoinStrategy.SPARK_SQL)
        engine.execute(DISCONNECTED)
        assert "CROSS JOIN" in engine.last_sql

    def test_subject_partitioned_store(self, lubm_graph):
        engine = build(lubm_graph, JoinStrategy.HYBRID)
        partitions = engine.triples.collectPartitions()
        for index, partition in enumerate(partitions):
            for s, _p, _o in partition:
                assert engine._partitioner.partition_for(s) == index

    def test_estimated_size_uses_predicate_counts(self, lubm_graph):
        engine = build(lubm_graph, JoinStrategy.HYBRID)
        query = parse_sparql(STAR)
        patterns = query.where.triple_patterns()
        for pattern in patterns:
            assert engine._estimated_size(pattern) > 0

    def test_only_the_sql_strategy_builds_the_triples_view(self, lubm_graph):
        for strategy in JoinStrategy:
            engine = build(lubm_graph, strategy)
            assert engine.session is None
            engine.execute(STAR)
            if strategy is JoinStrategy.SPARK_SQL:
                triples = engine.session.table("triples")
                assert triples.count() == len(lubm_graph)
            else:
                assert engine.session is None

    def test_a_staged_copy_builds_its_own_view(self, lubm_graph):
        """The view is made lazily, so a copy brought to a new head by a
        reload must not read (or fill) its original's session."""
        engine = build(lubm_graph, JoinStrategy.SPARK_SQL)
        before = engine.execute(STAR)
        head = lubm_graph.copy()
        for triple in list(head.triples((None, None, None)))[:50]:
            head.remove(triple)
        staged = copy.copy(engine)
        staged.apply_delta(None, head)
        assert staged.execute(STAR).same_as(evaluate(parse_sparql(STAR), head))
        assert staged.session is not engine.session
        assert engine.execute(STAR).same_as(before)

    def test_unknown_constant_short_circuits(self, lubm_graph):
        engine = build(lubm_graph, JoinStrategy.HYBRID)
        result = engine.execute(
            PREFIX + "SELECT ?s WHERE { ?s lubm:noSuchPredicate ?o }"
        )
        assert len(result) == 0


# ----------------------------------------------------------------------
# The plan on the executor against the greedy fold it replaced
# ----------------------------------------------------------------------


def keyer(names):
    """Bindings (dicts) as ``(key, binding)`` pairs, the key their values
    for *names*."""
    return lambda part: [(tuple(b[n] for n in names), b) for b in part]


def merge_joined(joined: RDD) -> RDD:
    return joined.mapPartitions(
        lambda part: [{**left, **(right or {})} for _, (left, right) in part]
    )


def hash_join_bindings(left: RDD, right: RDD, shared) -> RDD:
    """The keyed hash join of bindings as dicts, priced as dicts."""
    if not shared:
        product = left.cartesian(right)
        return product.map(lambda pair: {**pair[0], **pair[1]})
    key = keyer(sorted(shared))
    return merge_joined(left.mapPartitions(key).join(right.mapPartitions(key)))


def reference_generic(
    engine: HybridEngine, patterns: List[TriplePattern], use_partitioning: bool
) -> RDD:
    """SPARQL-Hybrid's greedy fold and its two join operators as they ran
    before the plan went to the optimizer's executor, over bindings as
    dicts (so every shuffle and broadcast prices dicts): smallest-first,
    broadcast/partitioned per join, and with *use_partitioning* a
    subject-subject join zipped partition-locally."""
    threshold = engine.broadcast_threshold

    def scan(pattern):
        found = engine._pattern_rdd(pattern)
        header = found.header
        return found.map(lambda row: dict(zip(header, row)))

    def subject_variable(pattern):
        subject = pattern.subject
        return subject.name if isinstance(subject, Variable) else None

    def broadcast_join(left, right, shared):
        if not shared:
            return hash_join_bindings(left, right, shared)
        key = keyer(shared)
        return merge_joined(
            left.mapPartitions(key).broadcastJoin(right.mapPartitions(key))
        )

    def local_subject_join(left, right, subject_var):
        def keyed(part):
            return [(b[subject_var], b) for b in part]

        left_keyed = left.mapPartitions(keyed)
        right_keyed = right.mapPartitions(keyed)
        left_placed = left_keyed.partitionBy(engine._partitioner)
        right_placed = right_keyed.partitionBy(engine._partitioner)
        return merge_joined(left_placed.join(right_placed))

    ordered = connected_order(sorted(patterns, key=engine._estimated_size))
    incoming = iter(ordered)
    first = next(incoming)
    result_size = engine._estimated_size(first)
    subject_keyed_var = subject_variable(first)

    def join(result, matches, shared):
        nonlocal result_size, subject_keyed_var
        pattern = next(incoming)
        size = engine._estimated_size(pattern)
        subject_var = subject_variable(pattern)
        accumulated_size = result_size
        result_size = max(result_size, size)
        if (
            use_partitioning
            and subject_keyed_var is not None
            and shared == [subject_keyed_var]
            and subject_var == subject_keyed_var
        ):
            return local_subject_join(result, matches, shared[0])
        if size <= threshold:
            return broadcast_join(result, matches, shared)
        if shared and accumulated_size <= threshold:
            subject_keyed_var = None
            return broadcast_join(matches, result, shared)
        if subject_var is not None and shared == [subject_var]:
            subject_keyed_var = subject_var
        else:
            subject_keyed_var = None
        return hash_join_bindings(result, matches, shared)

    return fold_joins(ordered, scan, join=join)


GRAPHS = ("lubm", "watdiv")
CONFIGS = [
    (strategy, parallelism, threshold)
    for strategy in (JoinStrategy.HYBRID, JoinStrategy.DATAFRAME)
    for parallelism in (1, 4)
    for threshold in (0, 200, 10**6)
]


@lru_cache(maxsize=None)
def _engines(dataset, strategy, parallelism, threshold):
    """(the engine as it is, the same engine running the reference fold),
    both warm on *dataset*."""
    graph = matrix.dataset(dataset)
    pair = []
    for _ in range(2):
        engine = HybridEngine(
            SparkContext(parallelism),
            strategy=strategy,
            broadcast_threshold=threshold,
        )
        pair.append(engine.load(graph))
    reference = pair[1]
    terms = reference.dictionary.terms

    def evaluate(patterns):
        header = Header(pattern_variables(patterns))
        return rows(
            reference_generic(
                reference, patterns, strategy is JoinStrategy.HYBRID
            ).map(lambda b: tuple(terms[b[name]] for name in header)),
            header,
        )

    reference._evaluate_bgp = evaluate
    return tuple(pair)


def assert_like_reference(dataset, config, text):
    """Equal answers, every counter but ``tasks`` equal, ``tasks`` no
    higher."""
    engine, reference = _engines(dataset, *config)
    query = parse_sparql(text)
    got, want = engine.measure(query), reference.measure(query)
    assert canonical_json(canonical_result(got.answer, query)) == (
        canonical_json(canonical_result(want.answer, query))
    ), text
    got_cost, want_cost = dict(got.cost), dict(want.cost)
    assert got_cost.pop("tasks") <= want_cost.pop("tasks"), text
    assert got_cost == want_cost, text


def _pin_queries():
    """The engine pins' LUBM-1 and WatDiv queries in SPARQL-Hybrid's
    fragment."""
    lubm = dict(LubmGenerator.all_queries())
    lubm.update({k: LUBM_PREFIX + v for k, v in LUBM_EXTRA.items()})
    corpus = {"lubm": lubm, "watdiv": WatdivGenerator.all_queries()}
    return [
        pytest.param(dataset, text, id="%s-%s" % (dataset, name))
        for dataset, queries in sorted(corpus.items())
        for name, text in sorted(queries.items())
        if features_of(parse_sparql(text))
        <= HybridEngine.profile.sparql_features
    ]


@pytest.mark.parametrize(
    "config", CONFIGS, ids=lambda c: "%s-p%d-t%d" % (c[0].value, c[1], c[2])
)
@pytest.mark.parametrize("dataset,text", _pin_queries())
def test_the_plan_charges_what_the_greedy_fold_did(dataset, text, config):
    assert_like_reference(dataset, config, text)


@st.composite
def fragment_bgps(draw, dataset):
    """A :func:`matrix.fragment_query` core, anchored on a constant or
    not, as a ``SELECT *`` over its BGP."""

    def choose(options):
        return draw(st.sampled_from(options))

    wrappers = draw(st.sampled_from([(), ("CONSTANT",)]))
    text = matrix.fragment_query(
        matrix.dataset(dataset), choose, "SELECT", wrappers
    )
    patterns = parse_sparql(text).where.triple_patterns()
    return "SELECT * WHERE { %s }" % matrix.render_patterns(patterns)


@pytest.mark.parametrize("dataset", GRAPHS)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_fragment_bgps_charge_what_the_greedy_fold_did(dataset, data):
    text = data.draw(fragment_bgps(dataset))
    config = data.draw(st.sampled_from(CONFIGS))
    assert_like_reference(dataset, config, text)


def test_a_colocated_step_moves_no_record(lubm_graph):
    """The claim's star: every join is on the subject the store hashed,
    keyed by the bare subject, so every shuffled record stays put (a
    1-tuple key would hash elsewhere: 84 remote records)."""
    engine = build(lubm_graph, JoinStrategy.HYBRID)
    query = LubmGenerator.query_star()
    patterns = parse_sparql(query).where.triple_patterns()
    strategies = [step.strategy for step in engine._plan(patterns)]
    assert strategies == ["scan"] + ["colocated"] * (len(patterns) - 1)
    cost = run_cost(engine, query)
    assert cost.shuffle_records > 0
    assert cost.shuffle_remote_records == 0
