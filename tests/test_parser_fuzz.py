"""Fuzz the parsers: arbitrary text must parse or raise the designated
error type -- never crash with an unrelated exception.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.ntriples import NTriplesParseError, parse_ntriples
from repro.rdf.turtle import TurtleParseError, parse_turtle
from repro.spark.sql.lexer import SqlSyntaxError
from repro.spark.sql.parser import parse_sql
from repro.sparql.parser import parse_sparql
from repro.sparql.tokenizer import SparqlParseError

# Hundreds of hypothesis examples per parser: correctness net for local
# runs, dead weight on every CI push.
pytestmark = pytest.mark.slow

# Text biased toward query-looking garbage: keywords, braces, names.
_fragments = st.sampled_from(
    [
        "SELECT", "WHERE", "{", "}", "?x", "?y", "ex:p", "<http://x/a>",
        "FILTER", "(", ")", "OPTIONAL", "UNION", ".", ";", ",", '"str"',
        "42", "3.14", "1e5", ".5", "1.e3", "-2.5E-3", "-1", "OFFSET",
        "PREFIX", "ASK", "a", "&&", "||", "=", "<", "ORDER",
        "BY", "LIMIT", "*", "FROM", "JOIN", "ON", "GROUP", "t", "x",
        # Non-ASCII digits: the grammars' digits are [0-9] only.
        "\u0663", "1.\u0665", "\uff11",
    ]
)
_near_queries = st.lists(_fragments, max_size=12).map(" ".join)
_random_text = st.text(max_size=60)


@given(st.one_of(_near_queries, _random_text))
@settings(max_examples=150, deadline=None)
def test_sparql_parser_total(text):
    try:
        parse_sparql(text)
    except (SparqlParseError, KeyError):
        # KeyError: unbound prefix -- a declared, typed failure.
        pass


@given(st.one_of(_near_queries, _random_text))
@settings(max_examples=150, deadline=None)
def test_sql_parser_total(text):
    try:
        parse_sql(text)
    except SqlSyntaxError:
        pass


@given(st.one_of(_near_queries, _random_text))
@settings(max_examples=120, deadline=None)
def test_turtle_parser_total(text):
    try:
        parse_turtle(text)
    except (TurtleParseError, KeyError, ValueError):
        pass


@given(st.one_of(_near_queries, _random_text))
@settings(max_examples=120, deadline=None)
def test_ntriples_parser_total(text):
    try:
        parse_ntriples(text)
    except NTriplesParseError:
        pass
