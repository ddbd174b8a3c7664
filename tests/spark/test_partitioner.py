"""Unit tests for partitioners and the stable hash."""

import pytest

from repro.spark.partitioner import HashPartitioner, Partitioner, stable_hash


class TestStableHash:
    def test_deterministic_for_strings(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_known_types(self):
        assert stable_hash(5) == 5
        assert stable_hash(True) == 1
        assert stable_hash(None) == 0
        assert isinstance(stable_hash(3.5), int)
        assert isinstance(stable_hash(("a", 1)), int)

    def test_negative_int_wraps_to_unsigned(self):
        assert stable_hash(-1) == 0xFFFFFFFF

    def test_tuple_order_matters(self):
        assert stable_hash(("a", "b")) != stable_hash(("b", "a"))

    def test_arbitrary_objects_fall_back_to_repr(self):
        class Thing:
            def __repr__(self):
                return "Thing()"

        assert stable_hash(Thing()) == stable_hash(Thing())


class TestHashPartitioner:
    def test_in_range(self):
        part = HashPartitioner(7)
        for key in ["a", "b", 1, 2.5, None, ("x", 1)]:
            assert 0 <= part.partition_for(key) < 7

    def test_equality_by_type_and_count(self):
        class Other(Partitioner):
            pass

        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)
        assert HashPartitioner(4) != Other(4)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_hashable(self):
        assert len({HashPartitioner(4), HashPartitioner(4)}) == 1
