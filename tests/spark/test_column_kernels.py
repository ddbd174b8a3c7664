"""Compiled column kernels against ``Expression.eval``, their definition.

A DataFrame operator compiles its expressions once into a comprehension
over the row tuple's positions (``ColumnCompiler``); ``eval`` over the
row as a mapping of column names is the reference.  Both must agree on
every node kind, null rules included, and raise the same exception type
where the reference raises.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf.terms import Literal as TermLiteral, URI
from repro.spark import kernels
from repro.spark.column import (
    Alias,
    BinaryOp,
    ColumnCompiler,
    ColumnRef,
    InList,
    LikeExpr,
    Literal,
    UnaryOp,
    tuple_display,
)
from repro.spark.kernels import comprehension

COLUMNS = ["a", "b", "c"]
OPERATORS = ["=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "and", "or"]

values = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.booleans(),
    st.text("ab%_", max_size=3),
    st.sampled_from([URI("http://x/a"), TermLiteral("a"), TermLiteral(2)]),
)
leaves = st.one_of(
    st.builds(ColumnRef, st.sampled_from(COLUMNS)),
    st.builds(Literal, values),
)


def _extend(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(OPERATORS), children, children),
        st.builds(
            UnaryOp,
            st.sampled_from(["not", "isnull", "isnotnull", "neg"]),
            children,
        ),
        st.builds(InList, children, st.lists(children, max_size=3)),
        st.builds(LikeExpr, children, st.text("ab%_", max_size=3)),
        st.builds(Alias, children, st.just("x")),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)
rows = st.tuples(values, values, values)


def outcome(thunk):
    """What *thunk* returns, or the type of what it raises."""
    try:
        value = thunk()
    except Exception as exc:  # the reference raising is an outcome too
        return ("raises", type(exc))
    return ("value", type(value), repr(value))


@settings(max_examples=300, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=3), rows)
def test_projection_equals_eval(exprs, row):
    compiler = ColumnCompiler(COLUMNS)
    project = comprehension(
        "select",
        tuple_display(map(compiler.value, exprs)),
        namespace=compiler.namespace,
    )
    named = dict(zip(COLUMNS, row))
    expected = outcome(lambda: [tuple(e.eval(named) for e in exprs)])
    assert outcome(lambda: project([row])) == expected


@settings(max_examples=300, deadline=None)
@given(expressions, rows)
def test_filter_equals_bool_of_eval(condition, row):
    compiler = ColumnCompiler(COLUMNS)
    keep = comprehension(
        "where",
        "v",
        condition=compiler.truth(condition),
        namespace=compiler.namespace,
    )
    named = dict(zip(COLUMNS, row))
    expected = outcome(
        lambda: [row] if bool(condition.eval(named)) else []
    )
    assert outcome(lambda: keep([row])) == expected


@settings(max_examples=150, deadline=None)
@given(expressions, rows)
def test_sort_key_equals_eval(expr, row):
    key = ColumnCompiler(COLUMNS).sort_key(expr)

    def reference():
        value = expr.eval(dict(zip(COLUMNS, row)))
        return (value is None, value)

    assert outcome(lambda: key(row)) == outcome(reference)


def test_both_sides_are_evaluated_before_the_null_test():
    """``eval`` evaluates both operands, then tests for ``None``: a right
    side that raises raises also when the left one is null."""
    row = (None, "x", 1)
    named = dict(zip(COLUMNS, row))
    raising = UnaryOp("neg", ColumnRef("b"))
    for expr in (
        BinaryOp("=", BinaryOp("+", ColumnRef("a"), Literal(1)), raising),
        BinaryOp("*", ColumnRef("a"), raising),
    ):
        compiler = ColumnCompiler(COLUMNS)
        project = comprehension(
            "select",
            tuple_display([compiler.value(expr)]),
            namespace=compiler.namespace,
        )
        expected = outcome(lambda: [(expr.eval(named),)])
        assert expected[0] == "raises"
        assert outcome(lambda: project([row])) == expected


def test_a_second_run_compiles_no_new_source(lubm_graph):
    from repro.runtime import build_engine

    engine = build_engine("S2RDF", lubm_graph)
    query = (
        "PREFIX lubm: <http://repro.example.org/lubm#>"
        " SELECT ?s ?d ?n WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n ."
        " ?d lubm:subOrganizationOf ?u }"
    )
    first = engine.measure(query)
    compiled = list(kernels._KERNELS)
    second = engine.measure(query)
    assert list(kernels._KERNELS) == compiled
    assert len(kernels._KERNELS) == len(compiled)
    assert first.rows == second.rows > 0
