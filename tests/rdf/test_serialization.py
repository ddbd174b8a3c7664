"""Tests for N-Triples and Turtle parsing/serialization, incl. roundtrips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import (
    NTriplesParseError,
    iter_ntriples,
    load_ntriples_file,
    parse_ntriples,
    parse_ntriples_line,
    save_ntriples_file,
    serialize_ntriples,
)
from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triple import Triple
from repro.rdf.turtle import TurtleParseError, parse_turtle


class TestNTriplesParsing:
    def test_basic_triple(self):
        t = parse_ntriples_line("<http://x/s> <http://x/p> <http://x/o> .")
        assert t == Triple(URI("http://x/s"), URI("http://x/p"), URI("http://x/o"))

    def test_literal_object(self):
        t = parse_ntriples_line('<http://x/s> <http://x/p> "hello" .')
        assert t.object == Literal("hello")

    def test_typed_literal(self):
        t = parse_ntriples_line(
            '<http://x/s> <http://x/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        assert t.object.to_python() == 5

    def test_language_literal(self):
        t = parse_ntriples_line('<http://x/s> <http://x/p> "bonjour"@fr .')
        assert t.object.language == "fr"

    def test_bnode_subject_and_object(self):
        t = parse_ntriples_line("_:a <http://x/p> _:b .")
        assert t.subject == BNode("a") and t.object == BNode("b")

    def test_escapes(self):
        t = parse_ntriples_line(r'<http://x/s> <http://x/p> "line\nquote\"tab\t" .')
        assert t.object.lexical == 'line\nquote"tab\t'

    def test_unicode_escape(self):
        t = parse_ntriples_line(r'<http://x/s> <http://x/p> "é" .')
        assert t.object.lexical == "é"

    def test_comments_and_blank_lines_skipped(self):
        graph = parse_ntriples("# comment\n\n<http://x/s> <http://x/p> <http://x/o> .\n")
        assert len(graph) == 1

    def test_one_document_shares_one_object_per_uri(self):
        first, second = iter_ntriples(
            [
                "<http://x/s> <http://x/p> <http://x/o> .",
                "<http://x/o> <http://x/p> <http://x/s> .",
            ]
        )
        assert first.subject is second.object
        assert first.predicate is second.predicate
        assert first.object is second.subject
        # Separate documents (and lone lines) share nothing.
        line = "<http://x/s> <http://x/p> <http://x/o> ."
        alone = parse_ntriples_line(line)
        assert alone == parse_ntriples_line(line) == first
        assert alone.subject is not first.subject

    def test_missing_dot_raises(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line("<http://x/s> <http://x/p> <http://x/o>")

    def test_invalid_subject_raises(self):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line('"literal" <http://x/p> <http://x/o> .')

    def test_error_reports_line_number(self):
        with pytest.raises(NTriplesParseError) as info:
            parse_ntriples("<http://x/s> <http://x/p> <http://x/o> .\nbad line\n")
        assert info.value.line_number == 2

    def test_file_roundtrip(self, tmp_path):
        graph = RDFGraph(
            [
                Triple(URI("http://x/s"), URI("http://x/p"), Literal(1)),
                Triple(URI("http://x/s"), URI("http://x/p"), Literal("text")),
            ]
        )
        path = tmp_path / "out.nt"
        written = save_ntriples_file(str(path), graph)
        assert written == 2
        assert load_ntriples_file(str(path)) == graph


_uris = st.sampled_from(
    [URI("http://x/%s" % c) for c in "abcdefgh"]
)
_literals = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=12,
    ).map(Literal),
    st.integers(-1000, 1000).map(Literal),
    st.booleans().map(Literal),
)
_subjects = st.one_of(_uris, st.sampled_from([BNode("b1"), BNode("b2")]))
_objects = st.one_of(_uris, _literals, st.just(BNode("b3")))
_triples = st.builds(Triple, _subjects, _uris, _objects)


@given(st.lists(_triples, max_size=25))
@settings(max_examples=80, deadline=None)
def test_ntriples_roundtrip_property(triples):
    graph = RDFGraph(triples)
    assert parse_ntriples(serialize_ntriples(graph)) == graph


class TestTurtle:
    def test_prefixes_and_a(self):
        graph = parse_turtle(
            """
            @prefix ex: <http://x/> .
            ex:alice a ex:Person .
            """
        )
        assert len(graph) == 1
        triple = next(iter(graph))
        assert triple.predicate.value.endswith("#type")

    def test_semicolon_and_comma(self):
        graph = parse_turtle(
            """
            @prefix ex: <http://x/> .
            ex:a ex:p ex:b, ex:c ; ex:q "v" .
            """
        )
        assert len(graph) == 3

    def test_literals(self):
        graph = parse_turtle(
            """
            @prefix ex: <http://x/> .
            ex:a ex:num 5 ; ex:pi 3.14 ; ex:flag true ; ex:s "str" .
            """
        )
        objects = {t.object.to_python() for t in graph}
        assert objects == {5, 3.14, True, "str"}

    def test_typed_and_lang_literals(self):
        graph = parse_turtle(
            """
            @prefix ex: <http://x/> .
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            ex:a ex:p "5"^^xsd:integer ; ex:q "hi"@en .
            """
        )
        literals = {t.object for t in graph}
        assert Literal("hi", language="en") in literals

    def test_full_uris(self):
        graph = parse_turtle("<http://x/s> <http://x/p> <http://x/o> .")
        assert len(graph) == 1

    def test_unbound_prefix_raises(self):
        with pytest.raises(KeyError):
            parse_turtle("ex:a ex:p ex:b .")

    def test_garbage_raises(self):
        with pytest.raises(TurtleParseError):
            parse_turtle("@prefix ex <oops>")
