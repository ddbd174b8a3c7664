"""Property-based oracle-differential on the forked backend.

For every small random graph and fragment query over it, the parallel
backend answers as the reference does and charges its in-process twin's
counters -- a named slice of the differential matrix
(tests/differential/matrix.py).  And the shuffle codec: what a reduce
task decodes is, partition by partition, the bucket the serial shuffle
builds.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
