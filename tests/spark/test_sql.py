"""Tests for the Spark SQL stack: lexer, parser, optimizer, execution."""

import pytest

from repro.spark.column import (
    Alias,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    LikeExpr,
    Literal,
    UnaryOp,
    col,
    lit,
)
from repro.spark.sql.ast import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    Union,
)
from repro.spark.sql.catalyst import (
    estimated_rows,
    fold_constants,
    optimize,
    output_columns,
)
from repro.spark.sql.executor import (
    SqlAnalysisError,
    _execute_node,
    resolve_name,
)
from repro.spark.sql.lexer import SqlSyntaxError, Token, tokenize
from repro.spark.sql.parser import parse_sql


@pytest.fixture
def catalog(session):
    orders = session.createDataFrame(
        [
            (1, "alice", 100, "books"),
            (2, "bob", 250, "tools"),
            (3, "alice", 50, "books"),
            (4, "carol", 300, "games"),
        ],
        ["order_id", "customer", "amount", "category"],
    )
    customers = session.createDataFrame(
        [("alice", "GR"), ("bob", "DE"), ("carol", "US")],
        ["name", "country"],
    )
    session.createOrReplaceTempView("orders", orders)
    session.createOrReplaceTempView("customers", customers)
    return session


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a FROM t WHERE x = 'hi'")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "keyword", "ident", "keyword", "ident", "keyword",
            "ident", "op", "string", "eof",
        ]

    def test_string_escapes(self):
        tokens = tokenize(r"SELECT 'it\'s'")
        assert tokens[1].value == "it's"

    def test_qualified_identifier_is_one_token(self):
        tokens = tokenize("SELECT a.b FROM t")
        assert tokens[1] == Token("ident", "a.b", 7)

    def test_numbers(self):
        tokens = tokenize("SELECT 12, 3.5")
        assert tokens[1].kind == "number" and tokens[3].kind == "number"

    def test_backquoted_identifier(self):
        tokens = tokenize("SELECT `weird name` FROM t")
        assert tokens[1] == Token("ident", "weird name", 7)

    def test_garbage_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT #~@ FROM")

    def test_comparison_operators(self):
        values = [t.value for t in tokenize("a <= b >= c <> d != e")]
        assert "<=" in values and ">=" in values and "<>" in values


class TestParser:
    def test_simple_select(self):
        plan = parse_sql("SELECT a, b FROM t")
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Scan)
        assert [name for _e, name in plan.items] == ["a", "b"]

    def test_select_star(self):
        plan = parse_sql("SELECT * FROM t")
        assert isinstance(plan, Scan)

    def test_where_builds_filter(self):
        plan = parse_sql("SELECT a FROM t WHERE a > 3 AND b = 'x'")
        assert isinstance(plan.child, Filter)

    def test_join_with_on(self):
        plan = parse_sql("SELECT a FROM t JOIN u ON t.k = u.k")
        join = plan.child
        assert isinstance(join, Join) and join.how == "inner"

    def test_join_kinds(self):
        for sql_kind, expected in [
            ("LEFT JOIN", "left"),
            ("LEFT OUTER JOIN", "left"),
            ("RIGHT JOIN", "right"),
            ("FULL OUTER JOIN", "outer"),
        ]:
            plan = parse_sql(
                "SELECT a FROM t %s u ON t.k = u.k" % sql_kind
            )
            assert plan.child.how == expected

    def test_cross_join_needs_no_on(self):
        plan = parse_sql("SELECT a FROM t CROSS JOIN u")
        assert plan.child.how == "cross"

    def test_join_without_on_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t JOIN u")

    def test_group_by_aggregates(self):
        plan = parse_sql(
            "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY k"
        )
        aggregate = plan.child
        assert aggregate.group_by == ["k"]
        assert ("count", "*", "n") in aggregate.aggregates
        assert ("sum", "v", "total") in aggregate.aggregates

    def test_count_distinct(self):
        plan = parse_sql("SELECT COUNT(DISTINCT v) AS n FROM t")
        assert plan.child.aggregates == [("count_distinct", "v", "n")]

    def test_non_grouped_column_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT k, v, COUNT(*) AS n FROM t GROUP BY k")

    def test_order_limit_offset(self):
        plan = parse_sql(
            "SELECT a FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2"
        )
        assert isinstance(plan, Limit)
        assert plan.count == 5 and plan.offset == 2
        sort = plan.child
        assert sort.orders == [("a", False), ("b", True)]

    def test_union_all_vs_union(self):
        plan = parse_sql("SELECT a FROM t UNION ALL SELECT a FROM u")
        assert plan._describe() == "Union(ALL)"
        plan = parse_sql("SELECT a FROM t UNION SELECT a FROM u")
        assert "Distinct" in plan.pretty()

    def test_in_list_and_is_null(self):
        plan = parse_sql(
            "SELECT a FROM t WHERE a IN (1, 2) AND b IS NOT NULL"
        )
        assert isinstance(plan.child, Filter)

    def test_pretty_renders_tree(self):
        text = parse_sql("SELECT a FROM t WHERE a = 1").pretty()
        assert "Project" in text and "Filter" in text and "Scan" in text


class TestCatalyst:
    def test_fold_constants(self):
        folded = fold_constants((lit(2) + lit(3)) * lit(4))
        assert folded.value == 20

    def test_fold_boolean_shortcuts(self):
        expr = fold_constants(lit(True) & (col("a") > lit(1)))
        assert repr(expr) == repr(col("a") > lit(1))
        assert fold_constants(lit(False) & (col("a") > lit(1))).value is False
        assert fold_constants(lit(True) | (col("a") > lit(1))).value is True

    def test_predicate_pushdown_reaches_scan(self, catalog):
        text = catalog.explain(
            "SELECT orders.amount FROM orders JOIN customers "
            "ON orders.customer = customers.name WHERE orders.amount > 100"
        )
        lines = text.splitlines()
        filter_depth = next(
            i for i, l in enumerate(lines) if "Filter" in l
        )
        join_depth = next(i for i, l in enumerate(lines) if "Join" in l)
        assert filter_depth > join_depth  # filter moved below the join

    def test_projection_pruning_limits_scan_columns(self, catalog):
        text = catalog.explain("SELECT customer FROM orders")
        assert "[customer]" in text

    def test_build_side_swap_puts_smaller_right(self, catalog):
        text = catalog.explain(
            "SELECT orders.amount FROM customers JOIN orders "
            "ON customers.name = orders.customer"
        )
        # orders (4 rows) should stay left; customers (3 rows) moves right.
        lines = [l.strip() for l in text.splitlines() if "Scan" in l]
        assert "orders" in lines[0]

    def test_output_columns_qualified(self, catalog):
        plan = parse_sql("SELECT * FROM orders AS o")
        assert output_columns(plan, catalog) == [
            "o.order_id", "o.customer", "o.amount", "o.category",
        ]

    def test_estimated_rows(self, catalog):
        scan = Scan("orders")
        assert estimated_rows(scan, catalog) == 4
        assert estimated_rows(Filter(col("x") > lit(1), scan), catalog) < 4


class TestExecution:
    def test_select_where(self, catalog):
        result = catalog.sql(
            "SELECT customer, amount FROM orders WHERE amount >= 100"
        )
        assert {tuple(r) for r in result.collect()} == {
            ("alice", 100), ("bob", 250), ("carol", 300),
        }

    def test_join(self, catalog):
        result = catalog.sql(
            "SELECT orders.order_id, customers.country FROM orders "
            "JOIN customers ON orders.customer = customers.name "
            "ORDER BY order_id"
        )
        assert [tuple(r) for r in result.collect()] == [
            (1, "GR"), (2, "DE"), (3, "GR"), (4, "US"),
        ]

    def test_group_by(self, catalog):
        result = catalog.sql(
            "SELECT customer, SUM(amount) AS total FROM orders "
            "GROUP BY customer ORDER BY total DESC"
        )
        assert [tuple(r) for r in result.collect()] == [
            ("carol", 300), ("bob", 250), ("alice", 150),
        ]

    def test_distinct(self, catalog):
        result = catalog.sql("SELECT DISTINCT category FROM orders")
        assert result.count() == 3

    def test_limit_offset(self, catalog):
        result = catalog.sql(
            "SELECT order_id FROM orders ORDER BY order_id LIMIT 2 OFFSET 1"
        )
        assert [r["order_id"] for r in result.collect()] == [2, 3]

    def test_union_all(self, catalog):
        result = catalog.sql(
            "SELECT customer FROM orders UNION ALL SELECT customer FROM orders"
        )
        assert result.count() == 8

    def test_union_dedupes(self, catalog):
        result = catalog.sql(
            "SELECT customer FROM orders UNION SELECT customer FROM orders"
        )
        assert result.count() == 3

    def test_cross_join(self, catalog):
        result = catalog.sql(
            "SELECT orders.order_id, customers.name FROM orders "
            "CROSS JOIN customers"
        )
        assert result.count() == 12

    def test_self_join_with_aliases(self, catalog):
        result = catalog.sql(
            "SELECT a.order_id, b.order_id AS other FROM orders AS a "
            "JOIN orders AS b ON a.customer = b.customer "
            "WHERE a.order_id != b.order_id"
        )
        assert {tuple(r) for r in result.collect()} == {(1, 3), (3, 1)}

    def test_in_and_is_null(self, catalog, session):
        nullable = session.createDataFrame(
            [(1, None), (2, "x")], ["id", "tag"]
        )
        session.createOrReplaceTempView("nullable", nullable)
        assert session.sql(
            "SELECT id FROM nullable WHERE tag IS NULL"
        ).collect()[0]["id"] == 1
        assert session.sql(
            "SELECT id FROM nullable WHERE id IN (2, 3)"
        ).collect()[0]["id"] == 2

    def test_arithmetic_in_projection(self, catalog):
        result = catalog.sql(
            "SELECT amount * 2 AS double_amount FROM orders "
            "WHERE order_id = 1"
        )
        assert result.collect()[0]["double_amount"] == 200

    def test_unknown_table_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.sql("SELECT a FROM missing")

    def test_unknown_column_raises(self, catalog):
        with pytest.raises(SqlAnalysisError):
            catalog.sql("SELECT missing_col FROM orders")

    def test_ambiguous_column_raises(self, catalog):
        with pytest.raises(SqlAnalysisError):
            catalog.sql(
                "SELECT customer FROM orders AS a JOIN orders AS b "
                "ON a.order_id = b.order_id"
            )

    def test_unoptimized_execution_agrees(self, catalog):
        sql = (
            "SELECT orders.customer, SUM(amount) AS total FROM orders "
            "JOIN customers ON orders.customer = customers.name "
            "WHERE amount > 60 GROUP BY customer ORDER BY customer"
        )
        optimized = [tuple(r) for r in catalog.sql(sql).collect()]
        plain = [tuple(r) for r in catalog.sql(sql, optimized=False).collect()]
        assert optimized == plain

    def test_a_swapped_join_keeps_its_column_order(self, catalog):
        # customers is the smaller table, so the build-side rule swaps the
        # first join: at the root and in a UNION's positional inputs the
        # columns must still come out in the order the query wrote.
        one = "SELECT * FROM customers JOIN orders ON name = customer"
        other = "SELECT * FROM orders JOIN customers ON name = customer"
        for sql in (one, one + " UNION ALL " + other):
            optimized = catalog.sql(sql)
            plain = catalog.sql(sql, optimized=False)
            assert optimized.columns == plain.columns
            assert sorted(map(tuple, optimized.collect()), key=repr) == sorted(
                map(tuple, plain.collect()), key=repr
            )
        # Nothing moved, nothing added: the other order is still a bare join.
        assert catalog.explain(other).startswith("Join(")


_SCAN = Scan("orders")
_PLAN_SAMPLES = {
    Scan: _SCAN,
    Filter: Filter(col("amount") > lit(60), _SCAN),
    Join: Join(_SCAN, Scan("customers"), col("customer") == col("name")),
    Project: Project([(col("amount") + lit(1), "more")], _SCAN),
    Aggregate: Aggregate(["customer"], [("sum", "amount", "total")], _SCAN),
    Distinct: Distinct(_SCAN),
    Sort: Sort([("amount", False)], _SCAN),
    Limit: Limit(2, 1, _SCAN),
    Union: Union(_SCAN, _SCAN),
}
_EXPRESSION_SAMPLES = {
    ColumnRef: col("a"),
    Literal: lit(1),
    BinaryOp: col("b") + lit(1),
    UnaryOp: ~col("a"),
    InList: col("a").isin(lit(1), col("b")),
    LikeExpr: LikeExpr(col("a"), "x%"),
    Alias: col("a").alias("b"),
}


def _typed_fields(node, base):
    """The values (and list elements) of *node*'s attributes that are *base*s."""
    found = []
    for value in vars(node).values():
        found.extend(
            v for v in (value if isinstance(value, list) else [value])
            if isinstance(v, base)
        )
    return found


class TestTraversalIsTotal:
    """Every node class is walked, rebuilt, described and executed."""

    @pytest.mark.parametrize(
        "cls", LogicalPlan.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_plan_node(self, cls, catalog):
        plan = _PLAN_SAMPLES[cls]  # a new node class needs a sample here
        rebuilt = plan.map_children(lambda child: child)
        assert type(rebuilt) is cls and rebuilt == plan
        assert [id(c) for c in plan.children()] == [
            id(c) for c in _typed_fields(plan, LogicalPlan)
        ]
        columns = output_columns(plan, catalog)
        assert estimated_rows(plan, catalog) >= 1
        assert len(_execute_node(plan, catalog).columns) == len(columns)
        assert optimize(plan, catalog).pretty()

    @pytest.mark.parametrize(
        "cls", Expression.__subclasses__(), ids=lambda cls: cls.__name__
    )
    def test_expression_node(self, cls):
        expr = _EXPRESSION_SAMPLES[cls]
        rebuilt = expr.map_children(lambda child: child)
        assert type(rebuilt) is cls and rebuilt.same_as(expr)
        assert [id(c) for c in expr.children()] == [
            id(c) for c in _typed_fields(expr, Expression)
        ]
        assert fold_constants(expr).same_as(expr)
        row = {"a": "xy", "b": 2}
        assert rebuilt.eval(row) == expr.eval(row)

    def test_an_unknown_node_is_refused_not_guessed(self, catalog):
        for describe in (output_columns, estimated_rows, _execute_node):
            with pytest.raises(TypeError):
                describe(LogicalPlan(), catalog)


class TestResolveName:
    def test_exact(self):
        assert resolve_name("a.x", ["a.x", "b.x"]) == "a.x"

    def test_suffix(self):
        assert resolve_name("y", ["a.x", "a.y"]) == "a.y"

    def test_missing_raises(self):
        with pytest.raises(SqlAnalysisError):
            resolve_name("z", ["a.x"])

    def test_ambiguous_raises(self):
        with pytest.raises(SqlAnalysisError):
            resolve_name("x", ["a.x", "b.x"])
