"""Property-based tests: RDD operators agree with plain-Python semantics."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner

ints = st.lists(st.integers(-50, 50), max_size=60)
pairs = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-100, 100)), max_size=60
)
partitions = st.integers(1, 7)


def make_sc():
    return SparkContext(default_parallelism=4)


@given(data=ints, n=partitions)
@settings(max_examples=60, deadline=None)
def test_collect_preserves_order_and_content(data, n):
    assert make_sc().parallelize(data, n).collect() == data


@given(size=st.integers(0, 400), n=st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_parallelize_slices_item_i_into_partition_i_times_n_over_size(size, n):
    """The contiguous slices put item i where the per-item placement
    ``i * n // size`` did (n capped at the item count, at least one)."""
    parts = make_sc().parallelize(range(size), n).collectPartitions()
    n = max(1, min(n, size))
    expected = [[] for _ in range(n)]
    for i in range(size):
        expected[i * n // max(size, 1)].append(i)
    assert parts == expected


@given(data=ints, n=partitions)
@settings(max_examples=60, deadline=None)
def test_map_matches_builtin(data, n):
    rdd = make_sc().parallelize(data, n)
    assert rdd.map(lambda x: x * 3 + 1).collect() == [x * 3 + 1 for x in data]


@given(data=ints, n=partitions)
@settings(max_examples=60, deadline=None)
def test_filter_matches_builtin(data, n):
    rdd = make_sc().parallelize(data, n)
    assert rdd.filter(lambda x: x % 2 == 0).collect() == [
        x for x in data if x % 2 == 0
    ]

@given(data=ints, n=partitions)
@settings(max_examples=60, deadline=None)
def test_count_matches_len(data, n):
    assert make_sc().parallelize(data, n).count() == len(data)


@given(data=ints, n=partitions)
@settings(max_examples=60, deadline=None)
def test_distinct_matches_set(data, n):
    rdd = make_sc().parallelize(data, n)
    assert sorted(rdd.distinct().collect()) == sorted(set(data))


@given(data=ints, n=partitions)
@settings(max_examples=60, deadline=None)
def test_sortBy_matches_sorted(data, n):
    rdd = make_sc().parallelize(data, n)
    assert rdd.sortBy(lambda x: x).collect() == sorted(data)
    assert rdd.sortBy(lambda x: x, ascending=False).collect() == sorted(
        data, reverse=True
    )


@given(data=pairs, n=partitions)
@settings(max_examples=60, deadline=None)
def test_reduceByKey_matches_counter(data, n):
    rdd = make_sc().parallelize(data, n)
    expected = Counter()
    for key, value in data:
        expected[key] += value
    assert dict(rdd.reduceByKey(lambda a, b: a + b).collect()) == dict(
        expected
    )


@given(left=pairs, right=pairs)
@settings(max_examples=40, deadline=None)
def test_join_matches_nested_loop(left, right):
    sc = make_sc()
    result = sorted(sc.parallelize(left).join(sc.parallelize(right)).collect())
    expected = sorted(
        (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2
    )
    assert result == expected


@given(left=pairs, right=pairs)
@settings(max_examples=40, deadline=None)
def test_broadcast_join_equals_partitioned_join(left, right):
    sc = make_sc()
    partitioned = sorted(
        sc.parallelize(left).join(sc.parallelize(right)).collect()
    )
    broadcast = sorted(
        sc.parallelize(left).broadcastJoin(sc.parallelize(right)).collect()
    )
    assert partitioned == broadcast


@given(left=pairs, right=pairs)
@settings(max_examples=40, deadline=None)
def test_leftOuterJoin_keeps_all_left(left, right):
    sc = make_sc()
    result = sc.parallelize(left).leftOuterJoin(sc.parallelize(right)).collect()
    right_keys = {k for k, _v in right}
    # Every left record appears at least once.
    left_counter = Counter(k for k, _v in left)
    result_counter = Counter(k for k, _pair in result)
    for key, count in left_counter.items():
        assert result_counter[key] >= count
    # Unmatched rows carry None.
    for key, (lv, rv) in result:
        if key not in right_keys:
            assert rv is None


@given(data=pairs, n=partitions)
@settings(max_examples=60, deadline=None)
def test_partitionBy_is_content_preserving_and_placed(data, n):
    sc = make_sc()
    part = HashPartitioner(n)
    placed = sc.parallelize(data).partitionBy(part)
    assert sorted(placed.collect()) == sorted(data)
    for index, bucket in enumerate(placed.collectPartitions()):
        assert all(part.partition_for(k) == index for k, _v in bucket)


@given(data=ints, a=partitions, b=partitions)
@settings(max_examples=40, deadline=None)
def test_repartition_then_coalesce_preserves_multiset(data, a, b):
    sc = make_sc()
    rdd = sc.parallelize(data, a).repartition(b).coalesce(1)
    assert sorted(rdd.collect()) == sorted(data)


@given(data=ints)
@settings(max_examples=40, deadline=None)
def test_union_is_multiset_sum(data):
    sc = make_sc()
    a = sc.parallelize(data)
    b = sc.parallelize(data)
    assert Counter(a.union(b).collect()) == Counter(data + data)
