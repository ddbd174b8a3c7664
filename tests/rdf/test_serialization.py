"""Tests for N-Triples and Turtle parsing/serialization, incl. roundtrips."""

import re

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
from repro.sparql.parser import parse_sparql
from repro.sparql.tokenizer import SparqlParseError


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


#: ASCII paths, and paths IRIREF allows raw: non-ASCII characters but
#: whitespace (SPARQL's IRI token stops at Unicode whitespace).
_uris = st.one_of(
    st.sampled_from([URI("http://x/%s" % c) for c in "abcdefgh"]),
    st.text(
        st.characters(
            min_codepoint=0xA1, blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")
        ),
        min_size=1,
        max_size=4,
    ).map(lambda path: URI("http://x/" + path)),
)
#: Quotes, backslashes, every escape N-Triples has, controls, non-ASCII.
_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from("\"'\\\n\r\t\b\f\u2028\x85é日\U0001d11e"),
    ),
    max_size=12,
)
_literals = st.one_of(
    _text.map(Literal),
    st.builds(Literal, _text, language=st.sampled_from(["en", "fr-CA"])),
    st.builds(Literal, _text, datatype=_uris),
    st.integers(-1000, 1000).map(Literal),
    st.booleans().map(Literal),
)
_subjects = st.one_of(_uris, st.sampled_from([BNode("b1"), BNode("b2")]))
_objects = st.one_of(_uris, _literals, st.just(BNode("b3")))
_triples = st.builds(Triple, _subjects, _uris, _objects)


@given(st.lists(_triples, max_size=25))
@settings(max_examples=80, deadline=None)
def test_ntriples_roundtrip_property(triples):
    """What ``n3()`` writes, N-Triples, Turtle and SPARQL read back."""
    graph = RDFGraph(triples)
    text = serialize_ntriples(graph)
    assert parse_ntriples(text) == graph
    assert parse_turtle(text) == graph
    for triple in triples:
        if isinstance(triple.object, BNode):
            continue  # a variable in a query pattern
        query = parse_sparql("ASK { ?s ?p %s }" % triple.object.n3())
        assert query.where.elements[0].object == triple.object


#: One IRI, its ``A`` written as a UCHAR in each spelling.
_ESCAPED_IRIS = ["<http://x/\\u0041>", "<http://x/\\U00000041>"]


@pytest.mark.parametrize("iri", _ESCAPED_IRIS)
def test_an_escape_in_an_iri_reads_as_its_character(iri):
    """Regression: ``<http://x/\\u0041>`` was kept as written, though the
    N-Triples, Turtle and SPARQL grammars all decode UCHAR in an IRI."""
    expected = URI("http://x/A")
    (triple,) = parse_ntriples("%s <http://x/p> %s .\n" % (iri, iri))
    assert triple.subject == triple.object == expected
    (triple,) = parse_turtle("%s <http://x/p> %s .\n" % (iri, iri))
    assert triple.subject == triple.object == expected
    query = parse_sparql("ASK { ?s ?p %s }" % iri)
    assert query.where.elements[0].object == expected
    # A prefix's namespace too.
    (triple,) = parse_turtle("@prefix x: <http://x/\\u0041/> .\nx:s x:p x:o .\n")
    assert triple.subject == URI("http://x/A/s")
    query = parse_sparql("PREFIX x: <http://x/\\u0041/> ASK { x:s ?p ?o }")
    assert query.where.elements[0].subject == URI("http://x/A/s")


@pytest.mark.parametrize("escape", ["\\u0020", "\\u003E", "\\u005C", "\\U0000007C"])
def test_an_escape_to_a_character_iriref_forbids_is_an_error(escape):
    """``n3()`` writes an IRI as it is: a space or ``>`` decoded into one
    would be written where nothing reads it back."""
    iri = "<http://x/%s>" % escape
    with pytest.raises(NTriplesParseError, match="cannot stand in an IRI"):
        parse_ntriples("<http://x/s> <http://x/p> %s .\n" % iri)
    with pytest.raises(ValueError, match="cannot stand in an IRI"):
        parse_turtle("<http://x/s> <http://x/p> %s .\n" % iri)
    with pytest.raises(ValueError, match="cannot stand in an IRI"):
        parse_turtle("@prefix x: %s .\n" % iri)
    with pytest.raises(ValueError, match="cannot stand in an IRI"):
        parse_sparql("ASK { ?s ?p %s }" % iri)
    with pytest.raises(ValueError, match="cannot stand in an IRI"):
        parse_sparql("PREFIX x: %s ASK { ?s ?p ?o }" % iri)


@pytest.mark.parametrize(
    "iri",
    ["http://x/a b", 'http://x/a"b', "http://x/{a}", "http://x/a|b",
     "http://x/a^b", "http://x/a`b", "http://x/a\\b"],
)
def test_a_raw_character_iriref_forbids_is_a_parse_error(iri):
    """Such an IRI was loaded, and no query could name it: N-Triples and
    Turtle read one IRIREF pattern, and the error names the line.  So
    does a prefix's IRI, SPARQL's too (it was read unchecked, and with
    ``x:c`` named an IRI no query could write), naming the token's
    position."""
    first = "<http://x/s> <http://x/p> <http://x/o> .\n"
    for line in (
        "<%s> <http://x/p> <http://x/o> .\n" % iri,
        "<http://x/s> <%s> <http://x/o> .\n" % iri,
        "<http://x/s> <http://x/p> <%s> .\n" % iri,
        '<http://x/s> <http://x/p> "1"^^<%s> .\n' % iri,
    ):
        with pytest.raises(NTriplesParseError, match="^line 2: "):
            parse_ntriples(first + line)
        with pytest.raises(TurtleParseError, match="^line 2: cannot lex"):
            parse_turtle(first + line)
    with pytest.raises(TurtleParseError, match="^line 1: cannot lex"):
        parse_turtle("@prefix x: <%s> .\nx:c x:p x:o .\n" % iri)
    with pytest.raises(SparqlParseError, match="at position 1[08]$"):
        parse_sparql("PREFIX x: <%s> ASK { x:c ?p ?o }" % iri)


def test_iriref_admits_as_written_exactly_what_an_escape_may_decode_to():
    from repro.rdf.terms import _NOT_IN_IRI, IRIREF

    iriref = re.compile(IRIREF)
    chars = set(map(chr, range(0x10000))) | {chr(0x10FFFF)}
    admitted = {char for char in chars if iriref.fullmatch("<%s>" % char)}
    assert admitted == chars - _NOT_IN_IRI


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

    @pytest.mark.parametrize("number", ["\u0663", "1.\u0665", "\u0661\u0662"])
    def test_a_non_ascii_digit_raises(self, number):
        # Turtle's digits are [0-9]; "<s> <p> \u0663 ." used to load as 3.
        with pytest.raises(TurtleParseError):
            parse_turtle("<http://x/s> <http://x/p> %s ." % number)
