"""Unit tests for DataFrames: relational ops, joins, aggregation, storage."""

import pytest

from repro.spark.column import col, lit
from repro.spark.dataframe import DataFrame
from repro.spark.row import Row


@pytest.fixture
def people(session):
    return session.createDataFrame(
        [
            (1, "alice", 30, "athens"),
            (2, "bob", 25, "berlin"),
            (3, "carol", 35, "athens"),
            (4, "dave", 25, "cairo"),
        ],
        ["id", "name", "age", "city"],
    )


class TestProjection:
    def test_select_by_name(self, people):
        result = people.select("name", "age")
        assert result.columns == ["name", "age"]
        assert result.collect()[0] == Row(["name", "age"], ("alice", 30))

    def test_select_expression_with_alias(self, people):
        result = people.select((col("age") + lit(1)).alias("next_age"))
        assert result.columns == ["next_age"]
        assert [r["next_age"] for r in result.collect()] == [31, 26, 36, 26]

    def test_select_unknown_column_raises(self, people):
        with pytest.raises(KeyError):
            people.select("nope").collect()

    def test_select_duplicate_output_raises(self, people):
        with pytest.raises(ValueError):
            people.select("age", "age")

    def test_withColumn_appends(self, people):
        result = people.withColumn("senior", col("age") >= lit(30))
        assert result.columns[-1] == "senior"
        assert [r["senior"] for r in result.collect()] == [
            True,
            False,
            True,
            False,
        ]

    def test_withColumn_replaces_existing(self, people):
        result = people.withColumn("age", col("age") * lit(2))
        assert result.columns == people.columns
        assert [r["age"] for r in result.collect()] == [60, 50, 70, 50]

    def test_withColumnRenamed(self, people):
        renamed = people.withColumnRenamed("age", "years")
        assert "years" in renamed.columns and "age" not in renamed.columns

    def test_drop(self, people):
        result = people.drop("id", "city")
        assert result.columns == ["name", "age"]


class TestFilterSortLimit:
    def test_where(self, people):
        result = people.where(col("city") == lit("athens"))
        assert {r["name"] for r in result.collect()} == {"alice", "carol"}

    def test_where_compound(self, people):
        result = people.where(
            (col("age") > lit(24)) & (col("city") != lit("athens"))
        )
        assert {r["name"] for r in result.collect()} == {"bob", "dave"}

    def test_where_unknown_column_raises(self, people):
        with pytest.raises(KeyError):
            people.where(col("salary") > lit(5))

    def test_orderBy_single(self, people):
        names = [r["name"] for r in people.orderBy("age").collect()]
        assert names[0] in ("bob", "dave")
        assert names[-1] == "carol"

    def test_orderBy_multi_direction(self, people):
        result = people.orderBy(
            "age", "name", ascending=[True, False]
        ).collect()
        assert [r["name"] for r in result] == ["dave", "bob", "alice", "carol"]

    def test_limit(self, people):
        assert people.limit(2).count() == 2

    def test_distinct(self, session):
        df = session.createDataFrame([(1,), (1,), (2,)], ["x"])
        assert df.distinct().count() == 2

    def test_union(self, people):
        doubled = people.union(people)
        assert doubled.count() == 8

    def test_union_arity_mismatch_raises(self, people, session):
        other = session.createDataFrame([(1,)], ["x"])
        with pytest.raises(ValueError):
            people.union(other)


class TestJoins:
    @pytest.fixture
    def cities(self, session):
        return session.createDataFrame(
            [("athens", "GR"), ("berlin", "DE")], ["city", "country"]
        )

    def test_inner_join(self, people, cities):
        joined = people.join(cities, on="city")
        assert set(joined.columns) == {"city", "id", "name", "age", "country"}
        assert joined.count() == 3  # cairo drops out

    def test_left_join_keeps_unmatched(self, people, cities):
        joined = people.join(cities, on="city", how="left", hint="shuffle")
        assert joined.count() == 4
        cairo = [r for r in joined.collect() if r["city"] == "cairo"][0]
        assert cairo["country"] is None

    def test_right_join(self, people, cities, session):
        extra = session.createDataFrame(
            [("athens", "GR"), ("oslo", "NO")], ["city", "country"]
        )
        joined = people.join(extra, on="city", how="right", hint="shuffle")
        oslo = [r for r in joined.collect() if r["city"] == "oslo"]
        assert len(oslo) == 1 and oslo[0]["name"] is None

    def test_outer_join(self, people, cities, session):
        extra = session.createDataFrame([("oslo", "NO")], ["city", "country"])
        joined = people.join(extra, on="city", how="outer", hint="shuffle")
        assert joined.count() == 5

    def test_broadcast_hint_forces_broadcast(self, people, cities, sc):
        before = sc.metrics.snapshot()
        people.join(cities, on="city", hint="broadcast").collect()
        cost = sc.metrics.snapshot() - before
        assert cost["broadcast_joins"] == 1
        assert cost["partitioned_joins"] == 0

    def test_auto_broadcast_below_threshold(self, people, cities, sc, session):
        session.autoBroadcastJoinThreshold = 10**9
        before = sc.metrics.snapshot()
        people.join(cities, on="city").collect()
        cost = sc.metrics.snapshot() - before
        assert cost["broadcast_joins"] == 1

    def test_no_auto_broadcast_when_disabled(self, people, cities, sc, session):
        session.autoBroadcastJoinThreshold = None
        before = sc.metrics.snapshot()
        people.join(cities, on="city").collect()
        cost = sc.metrics.snapshot() - before
        assert cost["partitioned_joins"] == 1

    def test_ambiguous_columns_raise(self, people, session):
        other = session.createDataFrame(
            [("athens", 99)], ["city", "age"]
        )
        with pytest.raises(ValueError):
            people.join(other, on="city")

    def test_broadcast_outer_join_rejected(self, people, cities):
        with pytest.raises(ValueError):
            people.join(cities, on="city", how="left", hint="broadcast")

    def test_crossJoin(self, session):
        a = session.createDataFrame([(1,), (2,)], ["x"])
        b = session.createDataFrame([("u",), ("v",)], ["y"])
        assert a.crossJoin(b).count() == 4

    def test_crossJoin_overlap_raises(self, session):
        a = session.createDataFrame([(1,)], ["x"])
        with pytest.raises(ValueError):
            a.crossJoin(a)


class TestAggregation:
    def test_groupBy_count(self, people):
        counts = {
            r["city"]: r["count"]
            for r in people.groupBy("city").count().collect()
        }
        assert counts == {"athens": 2, "berlin": 1, "cairo": 1}

    def test_agg_sum_avg_min_max(self, people):
        result = people.groupBy("city").agg(
            ("sum", "age", "total"),
            ("avg", "age", "mean"),
            ("min", "age", "youngest"),
            ("max", "age", "oldest"),
        )
        athens = [r for r in result.collect() if r["city"] == "athens"][0]
        assert athens["total"] == 65
        assert athens["mean"] == 32.5
        assert athens["youngest"] == 30
        assert athens["oldest"] == 35

    def test_count_distinct(self, session):
        df = session.createDataFrame(
            [("a", 1), ("a", 1), ("a", 2)], ["k", "v"]
        )
        result = df.groupBy("k").agg(("count_distinct", "v", "n"))
        assert result.collect()[0]["n"] == 2

    def test_count_star(self, people):
        result = people.groupBy("city").agg(("count", "*", "n"))
        assert sum(r["n"] for r in result.collect()) == 4

    def test_unknown_aggregate_raises(self, people):
        with pytest.raises(ValueError):
            people.groupBy("city").agg(("median", "age", "m"))


class TestActionsAndStorage:
    def test_collect_returns_rows(self, people):
        rows = people.collect()
        assert all(isinstance(r, Row) for r in rows)
        assert rows[0]["name"] == "alice"

    def test_take_first_isEmpty(self, people, session):
        assert len(people.take(2)) == 2
        assert people.first()["id"] == 1
        assert session.emptyDataFrame(["x"]).isEmpty()

    def test_columnar_storage_is_smaller_on_repetitive_data(self, session):
        rows = [("constant-string-value", i % 3) for i in range(200)]
        df = session.createDataFrame(rows, ["text", "bucket"])
        row_bytes = df.storage_bytes(columnar=False)
        col_bytes = df.storage_bytes(columnar=True)
        assert col_bytes < row_bytes

    def test_duplicate_columns_rejected(self, session, sc):
        with pytest.raises(ValueError):
            DataFrame(session, sc.parallelize([(1, 2)]), ["a", "a"])

    def test_createDataFrame_from_dicts_and_rows(self, session):
        df = session.createDataFrame(
            [{"a": 1, "b": 2}, Row(["a", "b"], (3, 4))], ["a", "b"]
        )
        assert [tuple(r) for r in df.collect()] == [(1, 2), (3, 4)]

    def test_createDataFrame_arity_mismatch_raises(self, session):
        with pytest.raises(ValueError):
            session.createDataFrame([(1, 2, 3)], ["a", "b"])
