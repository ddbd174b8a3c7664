"""Property-based oracle-differential: random graphs, random BGPs.

The hand-written differential suite covers the committed workload; this
one closes the gap with generated inputs.  For every random small graph
and random connected basic graph pattern, the parallel backend must
produce the exact canonical wire bytes the in-process oracle produces,
and the merged driver-side cost counters (records scanned, shuffle
records) must be invariant to the worker-pool size -- scheduling is not
allowed to leak into the cost model.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.server.protocol import canonical_json, canonical_result
from repro.spark.context import SparkContext
from repro.spark.parallel import parallel_available
from repro.spark.partitioner import (
    FunctionPartitioner,
    HashPartitioner,
    RangePartitioner,
)
from repro.spark.rdd import ShuffleBlocks
from repro.sparql.parser import parse_sparql
from repro.systems import NaiveEngine, SparqlgxEngine

pytestmark = pytest.mark.skipif(
    not parallel_available(),
    reason="parallel backend needs the fork start method",
)

NS = "http://example.org/"
PREDICATES = 3

#: One random edge: (subject id, predicate id, object id or literal id).
edges = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, PREDICATES - 1),
        st.one_of(st.integers(0, 5), st.text("ab", max_size=2)),
    ),
    min_size=1,
    max_size=30,
)

#: Per-pattern choices for a connected BGP: predicate id and whether the
#: pattern extends the chain or fans out of the first variable (a star).
shapes = st.lists(
    st.tuples(st.integers(0, PREDICATES - 1), st.booleans()),
    min_size=1,
    max_size=3,
)


def build_graph(raw_edges):
    triples = []
    for s, p, o in raw_edges:
        obj = (
            URI("%so%d" % (NS, o))
            if isinstance(o, int)
            else Literal(o)
        )
        triples.append(
            Triple(URI("%ss%d" % (NS, s)), URI("%sp%d" % (NS, p)), obj)
        )
    return RDFGraph(triples)


def build_bgp(raw_shapes):
    """A connected BGP: each pattern chains or stars off earlier ones."""
    patterns = []
    for index, (pred, chain) in enumerate(raw_shapes):
        subject = "?v%d" % index if chain else "?v0"
        patterns.append(
            "%s <%sp%d> ?v%d ." % (subject, NS, pred, index + 1)
        )
    variables = sorted({v for p in patterns for v in p.split() if v[0] == "?"})
    return "SELECT %s WHERE { %s }" % (
        " ".join(variables),
        " ".join(patterns),
    )


def run_canonical(engine_class, graph, query, backend, workers=None):
    ctx = SparkContext(4, backend=backend, workers=workers)
    engine = engine_class(ctx)
    engine.load(graph)
    result = engine.execute(query)
    counters = ctx.metrics.snapshot()
    return (
        canonical_json(canonical_result(result, query)),
        counters.records_scanned,
        counters.shuffle_records,
    )


@given(raw_edges=edges, raw_shapes=shapes)
@settings(max_examples=25, deadline=None)
def test_parallel_equals_inprocess_on_random_bgps(raw_edges, raw_shapes):
    graph = build_graph(raw_edges)
    query = parse_sparql(build_bgp(raw_shapes))
    oracle = run_canonical(NaiveEngine, graph, query, "inprocess")
    for workers in (2, 3):
        assert (
            run_canonical(NaiveEngine, graph, query, "parallel", workers)
            == oracle
        )


@given(raw_edges=edges, raw_shapes=shapes)
@settings(max_examples=10, deadline=None)
def test_partitioned_engine_agrees_on_random_bgps(raw_edges, raw_shapes):
    # A second engine family (vertical partitioning) exercises shuffle
    # paths the naive scan-join plan never builds.
    graph = build_graph(raw_edges)
    query = parse_sparql(build_bgp(raw_shapes))
    oracle = run_canonical(SparqlgxEngine, graph, query, "inprocess")
    assert (
        run_canonical(SparqlgxEngine, graph, query, "parallel", 2) == oracle
    )


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


def partitioner_for(kind, num_out, keys):
    if kind == "hash":
        return HashPartitioner(num_out)
    if kind == "function":
        return FunctionPartitioner(
            num_out, lambda key: len(repr(key)) % num_out, "repr-length"
        )
    bounds = sorted(keys)
    step = max(len(bounds) // num_out, 1)
    return RangePartitioner(num_out, bounds[step::step][: num_out - 1])


@given(
    partitions=pair_partitions,
    num_out=st.integers(1, 6),
    kind=st.sampled_from(["hash", "range", "function"]),
)
@settings(max_examples=40, deadline=None)
def test_decoded_blocks_equal_the_serial_buckets(partitions, num_out, kind):
    """What a reduce task decodes from the blocks the driver routed is,
    partition by partition, the bucket the serial shuffle builds -- and
    an empty fragment is no block at all."""
    if kind == "range":
        # Range placement compares keys: give it keys of one kind.
        partitions = [
            [(repr(key), value) for key, value in part] for part in partitions
        ]
    partitioner = partitioner_for(
        kind, num_out, [key for part in partitions for key, _value in part]
    )

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
