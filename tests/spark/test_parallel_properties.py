"""Property-based oracle-differential on the forked backend.

For every small random graph and fragment query over it, the parallel
backend answers as the reference does and charges its in-process twin's
counters -- a named slice of the differential matrix
(tests/differential/matrix.py).  And the shuffle codec: what a reduce
task decodes is, partition by partition, the bucket the serial shuffle
builds.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rdf.terms import URI
from repro.spark.context import SparkContext
from repro.spark.parallel import parallel_available
from repro.spark.partitioner import HashPartitioner, Partitioner
from repro.spark.rdd import ShuffleBlocks
from tests.differential.matrix import Cell, check_graph, fragment_queries, small_graphs

pytestmark = pytest.mark.skipif(
    not parallel_available(),
    reason="parallel backend needs the fork start method",
)

NS = "http://example.org/"


@given(graph=small_graphs, data=st.data())
@settings(max_examples=25, deadline=None)
def test_parallel_equals_inprocess_on_random_bgps(graph, data):
    text = data.draw(fragment_queries(graph))
    for workers in (2, 3):
        check_graph(Cell.of("Naive", backend="parallel", workers=workers), graph, text)


@given(graph=small_graphs, data=st.data())
@settings(max_examples=10, deadline=None)
def test_partitioned_engine_agrees_on_random_bgps(graph, data):
    # A second engine family (vertical partitioning) exercises shuffle
    # paths the naive scan-join plan never builds.
    text = data.draw(fragment_queries(graph))
    check_graph(Cell.of("SPARQLGX", backend="parallel", workers=2), graph, text)


#: Keys of mixed kinds the placement hash is defined on; values anything
#: that pickles.  Few distinct keys and many partitions leave fragments
#: -- and whole map and reduce partitions -- empty.
pair_keys = st.one_of(
    st.integers(-4, 12),
    st.text("abc", max_size=2),
    st.integers(0, 3).map(lambda n: URI("%sk%d" % (NS, n))),
)
pair_partitions = st.lists(
    st.lists(
        st.tuples(pair_keys, st.one_of(st.integers(), st.text("xy", max_size=3))),
        max_size=12,
    ),
    min_size=2,
    max_size=5,
)


class ReprLengthPartitioner(Partitioner):
    """A custom placement, through the base class's ``partitions_for``."""

    def partition_for(self, key):
        return len(repr(key)) % self.num_partitions


@given(
    partitions=pair_partitions,
    num_out=st.integers(1, 6),
    kind=st.sampled_from([HashPartitioner, ReprLengthPartitioner]),
)
@settings(max_examples=40, deadline=None)
def test_decoded_blocks_equal_the_serial_buckets(partitions, num_out, kind):
    """What a reduce task decodes from the blocks the driver routed is,
    partition by partition, the bucket the serial shuffle builds -- and
    an empty fragment is no block at all."""
    partitioner = kind(num_out)

    def shuffled(**backend):
        ctx = SparkContext(4, **backend)
        return ctx.fromPartitions(partitions).partitionBy(partitioner)

    serial, forked = shuffled(), shuffled(backend="parallel", workers=2)
    assert forked._materialize() == serial._materialize()
    charged = [
        {name: value for name, value in side.ctx.metrics.snapshot() if value}
        for side in (forked, serial)
    ]
    assert charged[0] == charged[1]
    assert isinstance(forked._buckets, ShuffleBlocks)
    fragments = [
        shuffled()._map_fragments(index)[0] for index in range(len(partitions))
    ]
    for index in range(num_out):
        assert forked._buckets[index] == serial._buckets[index]
        assert len(forked._buckets.blocks[index]) == sum(
            bool(task_fragments[index]) for task_fragments in fragments
        )


#: A lineage as a plan, built the same way on each backend's context:
#: ``("leaf", records, partitions)`` or an operator over sub-plans.
#: Every operator yields ``(small int, str)`` pairs, so any plan composes.
leaf_plans = st.tuples(
    st.just("leaf"),
    st.lists(st.tuples(st.integers(0, 5), st.text("ab", max_size=2)), min_size=2, max_size=10),
    st.integers(1, 5),
)


def operator_plans(children):
    partitions = st.integers(1, 5)
    return st.one_of(
        st.tuples(st.just("partitionBy"), children, partitions),
        st.tuples(st.sampled_from(["join", "leftOuterJoin"]), children, children, st.none() | partitions),
        st.tuples(st.just("union"), children, children),
        st.tuples(st.just("cartesian"), children, children),
        st.tuples(st.just("reduceByKey"), children, partitions),
        st.tuples(st.just("cache"), children),
    )


lineage_plans = st.recursive(leaf_plans, operator_plans, max_leaves=5)


def build(plan, ctx):
    """The RDD *plan* describes on *ctx*.  A cached node is collected
    once as it is built -- its own job -- so that later stages read it
    from the cache on both backends."""
    kind, args = plan[0], plan[1:]
    if kind == "leaf":
        records, partitions = args
        return ctx.parallelize(records, partitions)
    if kind == "partitionBy":
        return build(args[0], ctx).partitionBy(HashPartitioner(args[1]))
    if kind in ("join", "leftOuterJoin"):
        left, right, partitions = args
        joined = getattr(build(left, ctx), kind)(build(right, ctx), partitions)
        return joined.map(lambda kv: (kv[0], repr(kv[1])))
    if kind == "union":
        return build(args[0], ctx).union(build(args[1], ctx))
    if kind == "cartesian":
        pairs = build(args[0], ctx).cartesian(build(args[1], ctx))
        return pairs.map(lambda ab: ((ab[0][0] + ab[1][0]) % 6, ab[0][1] + ab[1][1]))
    if kind == "reduceByKey":
        return build(args[0], ctx).reduceByKey(min, args[1])
    cached = build(args[0], ctx).cache()
    cached.collect()
    return cached


JOIN = ("join", ("leaf", [(i % 4, "a") for i in range(9)], 5), ("leaf", [(i % 3, "b") for i in range(7)], 3), 4)


@given(plan=lineage_plans, workers=st.sampled_from([1, 2, 3]))
@example(plan=JOIN, workers=3)
@example(plan=("union", ("cache", JOIN), ("partitionBy", JOIN, 3)), workers=2)
@settings(max_examples=40, deadline=None)
def test_random_lineages_answer_and_charge_as_the_oracle(plan, workers):
    """Shuffles read aligned keep a worker's own fragments in the worker;
    a later job (the second ``collect()``, or one over a cached node)
    fetches them first.  Neither is visible: over random lineages, with
    partition counts the worker count need not divide, every answer and
    every counter is the in-process backend's."""
    runs = []
    for backend in ({}, {"backend": "parallel", "workers": workers}):
        ctx = SparkContext(4, **backend)
        root = build(plan, ctx)
        answers = [root.collect(), root.collect()]
        charged = {name: value for name, value in ctx.metrics.snapshot() if value}
        runs.append((repr(answers), charged))
    assert runs[1] == runs[0]
