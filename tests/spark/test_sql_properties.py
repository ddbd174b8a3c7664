"""Property-based tests: the SQL engine agrees with plain-Python oracles."""

from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.spark.context import SparkContext
from repro.spark.sql.session import SparkSession

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),           # k
        st.integers(-50, 50),        # v
        st.sampled_from(["red", "green", "blue"]),  # tag
    ),
    min_size=1,
    max_size=40,
)


def make_session(rows, name="t", columns=("k", "v", "tag")):
    session = SparkSession(SparkContext(4))
    session.createOrReplaceTempView(
        name, session.createDataFrame(rows, list(columns))
    )
    return session


@given(rows=rows_strategy, threshold=st.integers(-50, 50))
@settings(max_examples=50, deadline=None)
def test_where_matches_filter(rows, threshold):
    session = make_session(rows)
    result = session.sql("SELECT k, v FROM t WHERE v >= %d" % threshold)
    expected = sorted((k, v) for k, v, _tag in rows if v >= threshold)
    assert sorted(tuple(r) for r in result.collect()) == expected


@given(rows=rows_strategy)
@settings(max_examples=50, deadline=None)
def test_group_by_sum_count_matches_counter(rows):
    session = make_session(rows)
    result = session.sql(
        "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM t GROUP BY k"
    )
    totals = defaultdict(int)
    counts = Counter()
    for k, v, _tag in rows:
        totals[k] += v
        counts[k] += 1
    assert {tuple(r) for r in result.collect()} == {
        (k, totals[k], counts[k]) for k in totals
    }


@given(rows=rows_strategy)
@settings(max_examples=50, deadline=None)
def test_order_by_matches_sorted(rows):
    session = make_session(rows)
    result = session.sql("SELECT v FROM t ORDER BY v DESC")
    assert [r["v"] for r in result.collect()] == sorted(
        (v for _k, v, _t in rows), reverse=True
    )


@given(rows=rows_strategy)
@settings(max_examples=50, deadline=None)
def test_distinct_matches_set(rows):
    session = make_session(rows)
    result = session.sql("SELECT DISTINCT tag FROM t")
    assert {r["tag"] for r in result.collect()} == {
        tag for _k, _v, tag in rows
    }


@given(left=rows_strategy, right=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_join_matches_nested_loop(left, right):
    session = SparkSession(SparkContext(4))
    session.createOrReplaceTempView(
        "a", session.createDataFrame(left, ["k", "v", "tag"])
    )
    session.createOrReplaceTempView(
        "b",
        session.createDataFrame(
            [(k, v) for k, v, _t in right], ["k2", "w"]
        ),
    )
    result = session.sql(
        "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k2"
    )
    expected = sorted(
        (v, w)
        for k, v, _t in left
        for k2, w, _t2 in right
        if k == k2
    )
    assert sorted(tuple(r) for r in result.collect()) == expected


@given(
    left=rows_strategy,
    right=rows_strategy,
    select=st.sampled_from(["a.k, a.v, b.w", "*"]),
    tables=st.sampled_from(["a JOIN b", "b JOIN a"]),
)
@settings(max_examples=60, deadline=None)
def test_optimized_and_plain_plans_agree(left, right, select, tables):
    session = SparkSession(SparkContext(4))
    session.createOrReplaceTempView(
        "a", session.createDataFrame(left, ["k", "v", "tag"])
    )
    session.createOrReplaceTempView(
        "b",
        session.createDataFrame(
            [(k, v) for k, v, _t in right], ["k2", "w"]
        ),
    )
    sql = "SELECT %s FROM %s ON a.k = b.k2 WHERE a.v > 0 AND b.w < 10" % (
        select,
        tables,
    )
    optimized = session.sql(sql)
    plain = session.sql(sql, optimized=False)
    # The build-side rule swaps a join's inputs; no rule may move a column.
    assert optimized.columns == plain.columns
    assert sorted(tuple(r) for r in optimized.collect()) == sorted(
        tuple(r) for r in plain.collect()
    )


@given(rows=rows_strategy, low=st.integers(-20, 0), high=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_between_matches_range_check(rows, low, high):
    session = make_session(rows)
    result = session.sql(
        "SELECT v FROM t WHERE v BETWEEN %d AND %d" % (low, high)
    )
    expected = sorted(v for _k, v, _t in rows if low <= v <= high)
    assert sorted(r["v"] for r in result.collect()) == expected
