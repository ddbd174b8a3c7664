"""Tests for SQL HAVING / BETWEEN / LIKE and the extra RDD operators."""

import pytest

from repro.spark.column import LikeExpr, col
from repro.spark.sql.lexer import SqlSyntaxError


@pytest.fixture
def orders(session):
    df = session.createDataFrame(
        [
            ("alice", 100, "books"),
            ("bob", 250, "tools"),
            ("alice", 50, "books"),
            ("carol", 300, "games"),
            ("ted", 80, "toolsets"),
        ],
        ["customer", "amount", "category"],
    )
    session.createOrReplaceTempView("orders", df)
    return session


class TestHaving:
    def test_filters_aggregates(self, orders):
        result = orders.sql(
            "SELECT customer, SUM(amount) AS total FROM orders "
            "GROUP BY customer HAVING total > 150 ORDER BY total"
        )
        assert [tuple(r) for r in result.collect()] == [
            ("bob", 250),
            ("carol", 300),
        ]

    def test_having_on_count(self, orders):
        result = orders.sql(
            "SELECT customer, COUNT(*) AS n FROM orders "
            "GROUP BY customer HAVING n >= 2"
        )
        assert [tuple(r) for r in result.collect()] == [("alice", 2)]

    def test_having_can_reference_group_key(self, orders):
        result = orders.sql(
            "SELECT customer, COUNT(*) AS n FROM orders "
            "GROUP BY customer HAVING customer = 'bob'"
        )
        assert result.collect()[0]["customer"] == "bob"


class TestBetween:
    def test_inclusive_bounds(self, orders):
        result = orders.sql(
            "SELECT customer FROM orders WHERE amount BETWEEN 80 AND 250 "
            "ORDER BY customer"
        )
        assert [r["customer"] for r in result.collect()] == [
            "alice",
            "bob",
            "ted",
        ]

    def test_not_between(self, orders):
        result = orders.sql(
            "SELECT customer FROM orders WHERE amount NOT BETWEEN 80 AND 250"
        )
        assert {r["customer"] for r in result.collect()} == {
            "alice",
            "carol",
        }

    def test_between_with_expressions(self, orders):
        result = orders.sql(
            "SELECT customer FROM orders WHERE amount * 2 BETWEEN 500 AND 700"
        )
        assert {r["customer"] for r in result.collect()} == {
            "bob",
            "carol",
        }


class TestLike:
    def test_percent_wildcard(self, orders):
        result = orders.sql(
            "SELECT customer FROM orders WHERE category LIKE 'tool%' "
            "ORDER BY customer"
        )
        assert [r["customer"] for r in result.collect()] == ["bob", "ted"]

    def test_underscore_wildcard(self, orders):
        result = orders.sql(
            "SELECT customer FROM orders WHERE category LIKE 'tool_'"
        )
        assert [r["customer"] for r in result.collect()] == ["bob"]

    def test_not_like(self, orders):
        result = orders.sql(
            "SELECT DISTINCT customer FROM orders WHERE category NOT LIKE '%s'"
        )
        assert result.count() == 0  # every category ends in 's'

    def test_regex_metacharacters_escaped(self, session):
        df = session.createDataFrame([("a.c",), ("abc",)], ["v"])
        session.createOrReplaceTempView("t", df)
        result = session.sql("SELECT v FROM t WHERE v LIKE 'a.c'")
        assert [r["v"] for r in result.collect()] == ["a.c"]

    def test_like_expr_null_is_false(self):
        expr = LikeExpr(col("x"), "a%")
        assert expr.eval({"x": None}) is False

    def test_like_needs_string_pattern(self, orders):
        with pytest.raises(SqlSyntaxError):
            orders.sql("SELECT customer FROM orders WHERE category LIKE 5")
