"""Tests for accumulators."""

from repro.spark.accumulator import Accumulator


class TestAccumulator:
    def test_default_integer_sum(self, sc):
        acc = sc.accumulator(0, name="matches")
        sc.parallelize(range(10)).foreach(lambda x: acc.add(1))
        assert acc.value == 10

    def test_iadd_syntax(self, sc):
        acc = sc.accumulator(0)

        def bump(x):
            nonlocal acc
            acc += x

        sc.parallelize([1, 2, 3]).foreach(bump)
        assert acc.value == 6

    def test_custom_add_function(self, sc):
        acc = sc.accumulator(
            zero=[], add=lambda a, b: a + b, name="collector"
        )
        sc.parallelize(["a", "b"]).foreach(lambda x: acc.add([x]))
        assert acc.value == ["a", "b"]

    def test_used_inside_transformations(self, sc):
        acc = sc.accumulator(0, name="filtered_out")

        def keep(x):
            if x % 2:
                return True
            acc.add(1)
            return False

        result = sc.parallelize(range(10)).filter(keep).collect()
        assert result == [1, 3, 5, 7, 9]
        assert acc.value == 5

    def test_repr(self):
        acc = Accumulator(0, name="x")
        acc.add(2)
        assert "x" in repr(acc) and "2" in repr(acc)
