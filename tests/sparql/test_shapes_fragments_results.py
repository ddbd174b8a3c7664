"""Tests for query shapes, fragments, and solution sets."""

import pytest
from hypothesis import given, strategies as st

from repro.rdf.terms import BNode, Literal, URI
from repro.sparql.algebra import apply_solution_modifiers
from repro.sparql.ast import (
    GroupGraphPattern,
    SelectQuery,
    TriplePattern,
    Variable,
)
from repro.sparql.fragments import features_of
from repro.sparql.parser import parse_sparql
from repro.sparql.results import Solution, SolutionSet
from repro.sparql.shapes import (
    JoinKind,
    QueryShape,
    classify_patterns,
    classify_shape,
    join_edges,
)

PREFIX = "PREFIX ex: <http://x/>\n"


def patterns_of(text):
    return parse_sparql(PREFIX + text).where.triple_patterns()


class TestShapes:
    def test_empty_and_single(self):
        assert classify_patterns([]) is QueryShape.EMPTY
        assert (
            classify_patterns(patterns_of("SELECT * WHERE { ?s ex:p ?o }"))
            is QueryShape.SINGLE
        )

    def test_star(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b . ?s ex:r ?c }"
        )
        assert classify_patterns(patterns) is QueryShape.STAR

    def test_star_requires_variable_subject(self):
        patterns = patterns_of(
            "SELECT * WHERE { ex:x ex:p ?a . ex:x ex:q ?b }"
        )
        assert classify_patterns(patterns) is not QueryShape.STAR

    def test_linear(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c ex:r ?d }"
        )
        assert classify_patterns(patterns) is QueryShape.LINEAR

    def test_linear_order_independent(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?b ex:q ?c . ?a ex:p ?b . ?c ex:r ?d }"
        )
        assert classify_patterns(patterns) is QueryShape.LINEAR

    def test_snowflake(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?s ex:p ?a . ?s ex:link ?t . "
            "?t ex:q ?b . ?t ex:r ?c . ?s ex:w ?d }"
        )
        assert classify_patterns(patterns) is QueryShape.SNOWFLAKE

    def test_complex_object_object(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?a ex:p ?x . ?b ex:q ?x }"
        )
        assert classify_patterns(patterns) is QueryShape.COMPLEX

    def test_complex_disconnected(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?a ex:p ?b . ?c ex:q ?d }"
        )
        assert classify_patterns(patterns) is QueryShape.COMPLEX

    def test_classify_shape_on_query(self):
        query = parse_sparql(
            PREFIX + "SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b }"
        )
        assert classify_shape(query) is QueryShape.STAR

    def test_join_edges_kinds(self):
        star = patterns_of("SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b }")
        assert join_edges(star)[0][3] is JoinKind.SUBJECT_SUBJECT
        chain = patterns_of("SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }")
        assert join_edges(chain)[0][3] in (
            JoinKind.SUBJECT_OBJECT,
            JoinKind.OBJECT_SUBJECT,
        )
        oo = patterns_of("SELECT * WHERE { ?a ex:p ?x . ?b ex:q ?x }")
        assert join_edges(oo)[0][3] is JoinKind.OBJECT_OBJECT

    def test_predicate_join_is_other(self):
        patterns = patterns_of("SELECT * WHERE { ?a ?p ?b . ?c ?p ?d }")
        assert join_edges(patterns)[0][3] is JoinKind.OTHER


class TestFragments:
    def test_pure_bgp(self):
        query = parse_sparql(PREFIX + "SELECT ?s WHERE { ?s ex:p ?o }")
        assert features_of(query) == {"BGP"}

    def test_filter_is_bgp_plus(self):
        query = parse_sparql(
            PREFIX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o > 1) }"
        )
        assert features_of(query) == {"BGP", "FILTER"}

    def test_modifiers_detected(self):
        query = parse_sparql(
            PREFIX
            + "SELECT DISTINCT ?s WHERE { ?s ex:p ?o } ORDER BY ?s LIMIT 1 OFFSET 1"
        )
        features = features_of(query)
        assert {"DISTINCT", "ORDER BY", "LIMIT", "OFFSET"} <= features

    def test_nested_features_found(self):
        query = parse_sparql(
            PREFIX
            + "SELECT ?s WHERE { ?s ex:p ?o . OPTIONAL { ?s ex:q ?r . FILTER(?r > 1) } }"
        )
        features = features_of(query)
        assert "OPTIONAL" in features and "FILTER" in features

    def test_union_detected(self):
        query = parse_sparql(
            PREFIX + "SELECT ?s WHERE { { ?s a ex:A } UNION { ?s a ex:B } }"
        )
        assert "UNION" in features_of(query)


class TestSolution:
    def test_bind_and_get(self):
        s = Solution().bind("x", Literal(1))
        assert s["x"] == Literal(1)
        assert s.get(Variable("x")) == Literal(1)
        assert s.get("missing") is None

    def test_immutability(self):
        s = Solution()
        with pytest.raises(AttributeError):
            s.foo = 1
        s2 = s.bind("x", Literal(1))
        assert "x" not in s and "x" in s2

    def test_compatible(self):
        a = Solution({"x": Literal(1), "y": Literal(2)})
        b = Solution({"y": Literal(2), "z": Literal(3)})
        c = Solution({"y": Literal(9)})
        assert a.compatible(b)
        assert not a.compatible(c)
        assert Solution().compatible(a)

    def test_merge(self):
        a = Solution({"x": Literal(1)})
        b = Solution({"y": Literal(2)})
        merged = a.merge(b)
        assert merged["x"] == Literal(1) and merged["y"] == Literal(2)

    def test_equality_and_hash(self):
        assert Solution({"x": Literal(1)}) == Solution({"x": Literal(1)})
        assert len({Solution({"x": Literal(1)}), Solution({"x": Literal(1)})}) == 1


class TestSolutionSet:
    def test_multiset_same_as(self):
        a = SolutionSet(["x"], [Solution({"x": Literal(1)})] * 2)
        b = SolutionSet(["x"], [Solution({"x": Literal(1)})] * 2)
        c = SolutionSet(["x"], [Solution({"x": Literal(1)})])
        assert a.same_as(b)
        assert not a.same_as(c)  # multiplicities differ

    def test_order_irrelevant(self):
        one = Solution({"x": Literal(1)})
        two = Solution({"x": Literal(2)})
        assert SolutionSet(["x"], [one, two]).same_as(
            SolutionSet(["x"], [two, one])
        )

    def test_distinct(self):
        s = Solution({"x": Literal(1)})
        dedup = SolutionSet(["x"], [s, s]).distinct()
        assert len(dedup) == 1

    def test_solution_is_read_at_the_header(self):
        s = Solution({"x": Literal(1), "y": Literal(2)})
        kept = SolutionSet(["x", "z"], [s])
        assert kept.rows == [(Literal(1), None)]
        assert kept.solutions[0].variables() == ["x"]

    def test_to_table_respects_header(self):
        s = Solution({"x": Literal(1), "y": Literal(2)})
        table = SolutionSet(["y", "x"], [s]).to_table()
        assert table == [
            (Literal(2).n3(), Literal(1).n3()),
        ]

    def test_to_table_empty_cell_for_unbound(self):
        table = SolutionSet(["x"], [Solution()]).to_table()
        assert table == [("",)]

    def test_variables_accept_variable_objects(self):
        s = SolutionSet([Variable("x")])
        assert s.variables == ["x"]


def _pool():
    """Five terms, none rendered yet; rows share them."""
    return [
        URI("http://x/a"),
        BNode("b"),
        Literal('say "hi"\\\n\u2028é'),
        Literal("1", language="en"),
        Literal(7),
    ]


_names = ["a", "b", "c", "d", "e"]
#: Bindings as positions in the pool, over the header's names and one more.
_bindings = st.lists(
    st.dictionaries(st.sampled_from(_names + ["unprojected"]), st.integers(0, 4)),
    max_size=8,
)
_headers = st.lists(st.sampled_from(_names), max_size=5)


def _solutions(bindings):
    pool = _pool()
    return [{n: pool[i] for n, i in binding.items()} for binding in bindings]


class TestAnswerKernels:
    """The generated projection and table kernels against the per-cell
    comprehensions they replaced, kept here as oracles."""

    @given(bindings=_bindings, header=_headers, wrap=st.booleans())
    def test_projection_is_the_per_cell_comprehension(
        self, bindings, header, wrap
    ):
        solutions = _solutions(bindings)
        if wrap:
            solutions = [Solution(solution) for solution in solutions]
        query = SelectQuery([Variable(n) for n in header], GroupGraphPattern())
        rows = apply_solution_modifiers(query, solutions).rows
        assert rows == [tuple([s.get(n) for n in header]) for s in solutions]
        assert all(type(row) is tuple for row in rows)

    @given(bindings=_bindings, header=_headers)
    def test_table_is_the_per_cell_rendering(self, bindings, header):
        answer = SolutionSet(header, map(Solution, _solutions(bindings)))
        table = answer.to_table()  # renders each term the first time
        expected = [
            tuple([term.n3() if term is not None else "" for term in row])
            for row in answer.rows
        ]
        assert table == expected
        assert answer.to_table() == expected  # read from the kept text
