"""Unit tests for the metrics collector and size estimation."""

from repro.spark.metrics import MetricsCollector, MetricsSnapshot, estimate_size


class TestEstimateSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size("abcd") == 4
        assert estimate_size(b"abc") == 3

    def test_unicode_counts_bytes_not_chars(self):
        assert estimate_size("é") == 2

    def test_containers_sum_elements(self):
        assert estimate_size((1, 2)) == 8 + (8 + 4) * 2
        assert estimate_size([1]) == 8 + 12
        assert estimate_size({"a": 1}) == 8 + 1 + 8 + 8

    def test_string_shorter_than_its_integer_code_costs_less(self):
        # The ratio logic the encoding claim relies on.
        long_uri = "http://example.org/resource/a-very-long-identifier"
        assert estimate_size(long_uri) > estimate_size(42)


class TestMetricsCollector:
    def test_incr_and_get(self):
        collector = MetricsCollector()
        collector.incr("x")
        collector.incr("x", 4)
        assert collector.get("x") == 5
        assert collector.get("missing") == 0

    def test_snapshot_is_immutable_copy(self):
        collector = MetricsCollector()
        collector.incr("tasks", 3)
        snapshot = collector.snapshot()
        collector.incr("tasks", 10)
        assert snapshot["tasks"] == 3

    def test_snapshot_subtraction(self):
        collector = MetricsCollector()
        collector.incr("a", 5)
        before = collector.snapshot()
        collector.incr("a", 2)
        collector.incr("b", 1)
        diff = collector.snapshot() - before
        assert diff["a"] == 2
        assert diff["b"] == 1

    def test_record_helpers_populate_expected_counters(self):
        collector = MetricsCollector()
        collector.record_task()
        collector.record_scan(10, partitions=2)
        collector.record_shuffle(100, 40, 800)
        collector.record_join(50, 20, 30)
        collector.record_broadcast(5, 64)
        snapshot = collector.snapshot()
        assert snapshot.tasks == 1
        assert snapshot.records_scanned == 10
        assert snapshot["partitions_scanned"] == 2
        assert snapshot.shuffle_records == 100
        assert snapshot.shuffle_remote_records == 40
        assert snapshot.shuffle_bytes == 800
        assert snapshot.join_comparisons == 50
        assert snapshot["join_probe_lookups"] == 20
        assert snapshot["join_output_records"] == 30
        assert snapshot["broadcast_count"] == 1
        assert snapshot.broadcast_bytes == 64

    def test_locality_fraction(self):
        collector = MetricsCollector()
        collector.record_shuffle(100, 25, 0)
        assert collector.snapshot().locality_fraction() == 0.75

    def test_locality_fraction_no_shuffle_is_one(self):
        assert MetricsSnapshot({}).locality_fraction() == 1.0

    def test_snapshot_iteration_sorted(self):
        snapshot = MetricsSnapshot({"b": 2, "a": 1})
        assert list(snapshot) == [("a", 1), ("b", 2)]
