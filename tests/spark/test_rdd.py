"""Unit tests for the RDD core: transformations, actions, shuffles."""

import pytest

from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner, Partitioner


class TestBasicTransformations:
    def test_parallelize_collect_roundtrip(self, sc):
        data = list(range(37))
        assert sc.parallelize(data).collect() == data

    def test_parallelize_respects_partition_count(self, sc):
        rdd = sc.parallelize(range(100), 8)
        assert rdd.num_partitions == 8
        assert sum(len(p) for p in rdd.collectPartitions()) == 100

    def test_parallelize_more_partitions_than_items(self, sc):
        rdd = sc.parallelize([1, 2], 10)
        assert rdd.num_partitions == 2
        assert sorted(rdd.collect()) == [1, 2]

    def test_parallelize_empty(self, sc):
        assert sc.parallelize([]).collect() == []

    def test_map(self, sc):
        assert sc.parallelize([1, 2, 3]).map(lambda x: x * 10).collect() == [
            10,
            20,
            30,
        ]

    def test_filter(self, sc):
        result = sc.parallelize(range(10)).filter(lambda x: x % 2 == 0)
        assert result.collect() == [0, 2, 4, 6, 8]

    def test_flatMap(self, sc):
        result = sc.parallelize([1, 2]).flatMap(lambda x: [x] * x)
        assert result.collect() == [1, 2, 2]

    def test_mapPartitions_sees_whole_partition(self, sc):
        rdd = sc.parallelize(range(8), 4)
        sizes = rdd.mapPartitions(lambda p: [len(p)]).collect()
        assert sum(sizes) == 8
        assert len(sizes) == 4

    def test_mapPartitionsWithIndex(self, sc):
        rdd = sc.parallelize(range(4), 4)
        tagged = rdd.mapPartitionsWithIndex(
            lambda i, part: [(i, x) for x in part]
        )
        indices = {i for i, _x in tagged.collect()}
        assert indices <= {0, 1, 2, 3}

    def test_keyBy(self, sc):
        assert sc.parallelize([3, 4]).keyBy(lambda x: x % 2).collect() == [
            (1, 3),
            (0, 4),
        ]

    def test_keys_values(self, sc):
        pairs = sc.parallelize([("a", 1), ("b", 2)])
        assert pairs.keys().collect() == ["a", "b"]
        assert pairs.values().collect() == [1, 2]

    def test_union_preserves_duplicates(self, sc):
        a = sc.parallelize([1, 2])
        b = sc.parallelize([2, 3])
        assert sorted(a.union(b).collect()) == [1, 2, 2, 3]

    def test_distinct(self, sc):
        rdd = sc.parallelize([1, 2, 2, 3, 3, 3])
        assert sorted(rdd.distinct().collect()) == [1, 2, 3]


class TestWideTransformations:
    def test_reduceByKey(self, sc):
        pairs = sc.parallelize([("a", 1), ("b", 2), ("a", 3)])
        assert sorted(pairs.reduceByKey(lambda x, y: x + y).collect()) == [
            ("a", 4),
            ("b", 2),
        ]

    def test_map_side_combine_reduces_shuffle_volume(self, sc):
        # 100 records, 2 keys: combining ships at most 2 records per map
        # partition instead of all 100.
        pairs = sc.parallelize([(i % 2, 1) for i in range(100)], 4)
        before = sc.metrics.snapshot()
        pairs.reduceByKey(lambda a, b: a + b).collect()
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records <= 8  # 4 partitions x 2 keys

    def test_partitionBy_places_keys_deterministically(self, sc):
        pairs = sc.parallelize([(i, i) for i in range(40)])
        part = HashPartitioner(4)
        placed = pairs.partitionBy(part)
        for index, bucket in enumerate(placed.collectPartitions()):
            for key, _value in bucket:
                assert part.partition_for(key) == index

    def test_partitionBy_same_partitioner_is_noop(self, sc):
        pairs = sc.parallelize([(i, i) for i in range(10)])
        placed = pairs.partitionBy(HashPartitioner(4))
        again = placed.partitionBy(HashPartitioner(4))
        assert again is placed

    def test_join(self, sc):
        left = sc.parallelize([("a", 1), ("b", 2), ("a", 3)])
        right = sc.parallelize([("a", "x"), ("c", "y")])
        assert sorted(left.join(right).collect()) == [
            ("a", (1, "x")),
            ("a", (3, "x")),
        ]

    def test_leftOuterJoin(self, sc):
        left = sc.parallelize([("a", 1), ("b", 2)])
        right = sc.parallelize([("a", "x")])
        assert sorted(left.leftOuterJoin(right).collect()) == [
            ("a", (1, "x")),
            ("b", (2, None)),
        ]

    def test_rightOuterJoin(self, sc):
        left = sc.parallelize([("a", 1)])
        right = sc.parallelize([("a", "x"), ("b", "y")])
        assert sorted(left.rightOuterJoin(right).collect()) == [
            ("a", (1, "x")),
            ("b", (None, "y")),
        ]

    def test_fullOuterJoin(self, sc):
        left = sc.parallelize([("a", 1)])
        right = sc.parallelize([("b", "y")])
        assert sorted(left.fullOuterJoin(right).collect()) == [
            ("a", (1, None)),
            ("b", (None, "y")),
        ]

    def test_join_on_shared_partitioner_moves_no_data(self, sc):
        part = HashPartitioner(4)
        left = sc.parallelize([(i, "l%d" % i) for i in range(50)]).partitionBy(
            part
        )
        right = sc.parallelize(
            [(i, "r%d" % i) for i in range(50)]
        ).partitionBy(part)
        left.cache().collect()
        right.cache().collect()
        before = sc.metrics.snapshot()
        assert left.join(right).count() == 50
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records == 0

    def test_broadcastJoin_matches_partitioned_join(self, sc):
        left = sc.parallelize([(i % 5, i) for i in range(30)])
        right = sc.parallelize([(i, "x%d" % i) for i in range(5)])
        partitioned = sorted(left.join(right).collect())
        broadcast = sorted(left.broadcastJoin(right).collect())
        assert partitioned == broadcast

    def test_broadcastJoin_shuffles_nothing(self, sc):
        left = sc.parallelize([(i % 5, i) for i in range(30)])
        right = sc.parallelize([(i, "x") for i in range(5)])
        before = sc.metrics.snapshot()
        left.broadcastJoin(right).collect()
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records == 0
        assert cost.broadcast_bytes > 0

    def test_cogroup(self, sc):
        left = sc.parallelize([("a", 1), ("a", 2)])
        right = sc.parallelize([("a", "x"), ("b", "y")])
        grouped = dict(left.cogroup(right).collect())
        assert sorted(grouped["a"][0]) == [1, 2]
        assert grouped["a"][1] == ["x"]
        assert grouped["b"] == ([], ["y"])

    def test_cartesian(self, sc):
        a = sc.parallelize([1, 2], 1)
        b = sc.parallelize(["x", "y"], 1)
        assert sorted(a.cartesian(b).collect()) == [
            (1, "x"),
            (1, "y"),
            (2, "x"),
            (2, "y"),
        ]

    def test_cartesian_charges_nested_loop_comparisons(self, sc):
        a = sc.parallelize(range(10), 2)
        b = sc.parallelize(range(20), 2)
        before = sc.metrics.snapshot()
        assert a.cartesian(b).count() == 200
        cost = sc.metrics.snapshot() - before
        assert cost.join_comparisons == 200


class TestActions:
    def test_count(self, sc):
        assert sc.parallelize(range(17)).count() == 17

    def test_first_and_take(self, sc):
        rdd = sc.parallelize([7, 8, 9], 2)
        assert rdd.first() == 7
        assert rdd.take(2) == [7, 8]
        assert rdd.take(100) == [7, 8, 9]

    def test_first_on_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.emptyRDD().first()

    def test_isEmpty(self, sc):
        assert sc.emptyRDD().isEmpty()
        assert not sc.parallelize([1]).isEmpty()

    def test_foreach(self, sc):
        seen = []
        sc.parallelize([1, 2, 3]).foreach(seen.append)
        assert seen == [1, 2, 3]


class TestCaching:
    def test_cache_prevents_recomputation(self, sc):
        calls = []

        def traced(x):
            calls.append(x)
            return x

        rdd = sc.parallelize(range(10)).map(traced).cache()
        rdd.collect()
        first = len(calls)
        rdd.collect()
        assert len(calls) == first


class Split5(Partitioner):
    """A custom placement: keys below 5 on partition 0, the rest on 1."""

    def partition_for(self, key):
        return 0 if key < 5 else 1


class TestCustomPartitioner:
    def test_custom_partitioner(self, sc):
        pairs = sc.parallelize([(i, i) for i in range(10)])
        part = Split5(2)
        placed = pairs.partitionBy(part)
        buckets = placed.collectPartitions()
        assert all(k < 5 for k, _v in buckets[0])
        assert all(k >= 5 for k, _v in buckets[1])


class TestExecutorModel:
    def test_remote_vs_local_shuffle_accounting(self):
        # 2 executors, 4 partitions: partition i lives on executor i % 2.
        sc = SparkContext(default_parallelism=4, num_executors=2)
        pairs = sc.parallelize([(i, i) for i in range(100)], 4)
        before = sc.metrics.snapshot()
        pairs.partitionBy(HashPartitioner(4)).collect()
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records == 100
        assert 0 < cost.shuffle_remote_records < 100

    def test_executor_for_is_modular(self):
        sc = SparkContext(default_parallelism=8, num_executors=3)
        assert sc.executor_for(0) == 0
        assert sc.executor_for(3) == 0
        assert sc.executor_for(4) == 1
