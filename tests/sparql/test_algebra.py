"""Tests for algebra translation and the reference evaluator."""

import pytest

from repro.rdf.terms import Literal, URI
from repro.rdf.turtle import parse_turtle
from repro.sparql.algebra import (
    AlgebraFilter,
    AlgebraJoin,
    AlgebraUnion,
    BGP,
    LeftJoin,
    evaluate,
    translate,
)
from repro.sparql.parser import parse_sparql

PREFIX = "PREFIX ex: <http://x/>\n"


@pytest.fixture(scope="module")
def data():
    return parse_turtle(
        """
        @prefix ex: <http://x/> .
        ex:alice a ex:Student ; ex:age 30 ; ex:knows ex:bob .
        ex:bob a ex:Student ; ex:age 25 ; ex:knows ex:carol .
        ex:carol a ex:Prof ; ex:age 55 .
        ex:dave a ex:Student ; ex:age 22 .
        """
    )


def run(data, text):
    return evaluate(parse_sparql(PREFIX + text), data)


class TestTranslation:
    def test_plain_bgp(self):
        node = translate(
            parse_sparql(PREFIX + "SELECT * WHERE { ?s ex:p ?o . ?o ex:q ?r }")
        )
        assert isinstance(node, BGP)
        assert len(node.patterns) == 2

    def test_filter_wraps_group(self):
        node = translate(
            parse_sparql(
                PREFIX + "SELECT * WHERE { ?s ex:p ?o . FILTER(?o > 1) }"
            )
        )
        assert isinstance(node, AlgebraFilter)
        assert isinstance(node.child, BGP)

    def test_optional_becomes_leftjoin(self):
        node = translate(
            parse_sparql(
                PREFIX
                + "SELECT * WHERE { ?s ex:p ?o . OPTIONAL { ?s ex:q ?r } }"
            )
        )
        assert isinstance(node, LeftJoin)

    def test_union_joined_with_bgp(self):
        node = translate(
            parse_sparql(
                PREFIX
                + "SELECT * WHERE { ?s ex:p ?o { ?s a ex:A } UNION { ?s a ex:B } }"
            )
        )
        assert isinstance(node, AlgebraJoin)
        assert isinstance(node.right, AlgebraUnion)

    def test_filter_scopes_to_whole_group(self):
        # Filter placed before the pattern still applies (group scope).
        node = translate(
            parse_sparql(
                PREFIX + "SELECT * WHERE { FILTER(?o > 1) ?s ex:p ?o }"
            )
        )
        assert isinstance(node, AlgebraFilter)


class TestEvaluation:
    def test_single_pattern(self, data):
        result = run(data, "SELECT ?s WHERE { ?s a ex:Student }")
        assert len(result) == 3

    def test_join_two_patterns(self, data):
        result = run(
            data, "SELECT ?s ?o WHERE { ?s ex:knows ?o . ?o a ex:Prof }"
        )
        assert result.to_table() == [("<http://x/bob>", "<http://x/carol>")]

    def test_filter_numeric(self, data):
        result = run(
            data, "SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a >= 30) }"
        )
        assert len(result) == 2

    def test_filter_error_rejects(self, data):
        # Comparing a URI with < is a type error -> row rejected, not crash.
        result = run(
            data, "SELECT ?s WHERE { ?s ex:knows ?o . FILTER(?o < 5) }"
        )
        assert len(result) == 0

    def test_optional_keeps_unmatched(self, data):
        result = run(
            data,
            "SELECT ?s ?o WHERE { ?s a ex:Student . OPTIONAL { ?s ex:knows ?o } }",
        )
        assert len(result) == 3
        unmatched = [s for s in result if s.get("o") is None]
        assert len(unmatched) == 1

    def test_union_bag_semantics(self, data):
        result = run(
            data,
            "SELECT ?s WHERE { { ?s a ex:Student } UNION { ?s ex:age ?a } }",
        )
        # 3 students + 4 age rows = 7 solutions (bag, no dedup).
        assert len(result) == 7

    def test_distinct(self, data):
        result = run(
            data,
            "SELECT DISTINCT ?s WHERE { { ?s a ex:Student } UNION { ?s ex:age ?a } }",
        )
        assert len(result) == 4

    def test_order_by_with_limit_offset(self, data):
        result = run(
            data,
            "SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY DESC(?a) LIMIT 2 OFFSET 1",
        )
        ages = [int(s.get("a").lexical) for s in result]
        assert ages == [30, 25]

    def test_ask_true_false(self, data):
        assert run(data, "ASK { ex:alice ex:knows ex:bob }") is True
        assert run(data, "ASK { ex:bob ex:knows ex:alice }") is False

    def test_cartesian_on_disconnected_patterns(self, data):
        result = run(
            data, "SELECT ?a ?b WHERE { ?a a ex:Prof . ?b a ex:Prof }"
        )
        assert len(result) == 1

    def test_empty_group(self, data):
        result = run(data, "SELECT ?x WHERE { }")
        assert len(result) == 1  # the empty solution

    def test_unsatisfiable_pattern(self, data):
        result = run(data, "SELECT ?s WHERE { ?s ex:nothere ?o }")
        assert len(result) == 0

    def test_same_variable_twice_in_pattern(self, data):
        result = run(data, "SELECT ?s WHERE { ?s ex:knows ?s }")
        assert len(result) == 0

    def test_bound_subject_lookup(self, data):
        result = run(data, "SELECT ?o WHERE { ex:alice ex:knows ?o }")
        assert result.to_table() == [("<http://x/bob>",)]

    def test_variable_predicate(self, data):
        result = run(data, "SELECT ?p WHERE { ex:alice ?p ex:bob }")
        assert result.to_table() == [("<http://x/knows>",)]

    def test_order_unbound_sorts_first(self, data):
        result = run(
            data,
            "SELECT ?s ?o WHERE { ?s a ex:Student . OPTIONAL { ?s ex:knows ?o } } ORDER BY ?o",
        )
        assert result.solutions[0].get("o") is None


class TestFilterBuiltins:
    def test_regex(self, data):
        result = run(
            data,
            'SELECT ?s WHERE { ?s a ?t . FILTER REGEX(STR(?s), "ali") }',
        )
        assert len(result) == 1

    def test_regex_case_insensitive_flag(self, data):
        result = run(
            data,
            'SELECT ?s WHERE { ?s a ?t . FILTER REGEX(STR(?s), "ALI", "i") }',
        )
        assert len(result) == 1

    def test_invalid_regex_pattern_fails_the_row(self, data):
        # An unbalanced "(" is an expression error, not a crash: every
        # row fails the FILTER, and NOT of an error is still an error.
        for text in (
            'SELECT ?s WHERE { ?s a ?t . FILTER REGEX(STR(?s), "(") }',
            'SELECT ?s WHERE { ?s a ?t . FILTER(!REGEX(STR(?s), "(")) }',
        ):
            assert len(run(data, text)) == 0

    def test_bound_in_optional(self, data):
        result = run(
            data,
            "SELECT ?s WHERE { ?s a ex:Student . "
            "OPTIONAL { ?s ex:knows ?o } FILTER(!BOUND(?o)) }",
        )
        assert result.to_table() == [("<http://x/dave>",)]

    def test_isiri_isliteral(self, data):
        result = run(
            data,
            "SELECT ?o WHERE { ex:alice ?p ?o . FILTER ISLITERAL(?o) }",
        )
        assert len(result) == 1  # only the age literal

    def test_in_expression(self, data):
        result = run(
            data,
            "SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a IN (25, 30)) }",
        )
        assert len(result) == 2

    def test_arithmetic(self, data):
        result = run(
            data,
            "SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a * 2 > 100) }",
        )
        assert len(result) == 1  # carol, 55*2

    def test_logical_or_error_recovery(self, data):
        # Left operand errors (URI compare); right decides true.
        result = run(
            data,
            "SELECT ?s WHERE { ?s ex:knows ?o . FILTER(?o < 1 || ?s = ex:alice) }",
        )
        assert len(result) == 1
