"""The bulk loader against a term-by-term reference, and its two fixed
error paths.

``iter_ntriples`` matches one line pattern and shares one object per
token.  It must be indistinguishable -- triples and error texts -- from
the slow spelling kept here as the oracle: a walk that matches one term
at a time and unescapes character by character.  ``RDFGraph(triples)``
and ``add_all`` must leave the indexes repeated ``add`` leaves, and the
row loader behind ``load_ntriples_file`` and ``parse_ntriples`` the
indexes ``RDFGraph(iter_ntriples(lines))`` builds.
"""

import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import (
    NTriplesParseError,
    _rows,
    iter_ntriples,
    load_ntriples_file,
    parse_ntriples,
    parse_ntriples_line,
)
from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triple import Triple

# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------

_REFERENCE_TERM = re.compile(
    r"""
    \s*
    (?: <(?P<uri>[^>]*)>
      | _:(?P<bnode>[A-Za-z0-9_]+)
      | "(?P<lexical>(?:[^"\\]|\\.)*)"
        (?: \^\^<(?P<datatype>[^>]*)> | @(?P<lang>[A-Za-z0-9\-]+) )?
    )
    """,
    re.VERBOSE,
)
#: IRIREF's body: characters it does not forbid, one at a time, or UCHAR.
_IRI_BODY = re.compile(
    r"""(?: [^\x00-\x20<>"{}|^`\\] | \\u[0-9A-Fa-f]{4} | \\U[0-9A-Fa-f]{8} )*""",
    re.VERBOSE,
)
_PAIRS = {
    "\\t": "\t", "\\b": "\b", "\\n": "\n", "\\r": "\r", "\\f": "\f",
    '\\"': '"', "\\'": "'", "\\\\": "\\",
}


def reference_code_point(escape):
    """The character ``\\`` + *escape* names (``u`` and four digits, or
    ``U`` and eight), or the error that names the escape."""
    try:
        return chr(int(escape[1:], 16))
    except (ValueError, OverflowError):
        raise ValueError(
            "bad escape \\%s: not a Unicode code point" % escape
        ) from None


#: What IRIREF forbids an escape in an IRI to decode to.
_NOT_IN_IRI = {chr(code) for code in range(0x21)} | set('<>"{}|^`\\')


def reference_unescape(text, iri=False):
    """*text* with its escapes decoded: in an IRI, UCHAR only.  In a
    literal, a backslash that starts neither ECHAR nor UCHAR -- another
    character, or a ``\\u``/``\\U`` that the text ends before its
    digits do -- is an error naming what follows it."""
    if iri and _IRI_BODY.fullmatch(text) is None:
        raise ValueError("not a term: %r" % ("<%s>" % text))
    out, index = [], 0
    while index < len(text):
        if text[index] == "\\" and index + 1 < len(text):
            pair = text[index : index + 2]
            if pair in _PAIRS and not iri:
                out.append(_PAIRS[pair])
                index += 2
                continue
            width = {"\\u": 6, "\\U": 10}.get(pair)
            if width is not None and index + width <= len(text):
                escape = text[index + 1 : index + width]
                char = reference_code_point(escape)
                if iri and char in _NOT_IN_IRI:
                    raise ValueError(
                        "bad escape \\%s: %r cannot stand in an IRI" % (escape, char)
                    )
                out.append(char)
                index += width
                continue
            if not iri:
                escape = text[index + 1 :] if width is not None else pair[1]
                raise ValueError("bad escape \\%s: neither ECHAR nor UCHAR" % escape)
        out.append(text[index])
        index += 1
    return "".join(out)


def reference_term(line, position, number):
    match = _REFERENCE_TERM.match(line, position)
    if match is None:
        raise NTriplesParseError(number, line, "expected a term")
    try:
        if match.group("uri") is not None:
            term = URI(reference_unescape(match.group("uri"), iri=True))
        elif match.group("bnode") is not None:
            term = BNode(match.group("bnode"))
        else:
            datatype = match.group("datatype")
            term = Literal(
                reference_unescape(match.group("lexical")),
                datatype=None
                if datatype is None
                else URI(reference_unescape(datatype, iri=True)),
                language=match.group("lang"),
            )
    except (ValueError, OverflowError) as exc:
        raise NTriplesParseError(number, line, str(exc)) from exc
    return term, match.end()


def reference_triples(lines):
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        subject, position = reference_term(line, 0, number)
        predicate, position = reference_term(line, position, number)
        obj, position = reference_term(line, position, number)
        if line[position:].strip() != ".":
            raise NTriplesParseError(number, line, "expected terminating '.'")
        try:
            yield Triple(subject, predicate, obj)
        except ValueError as exc:
            raise NTriplesParseError(number, line, str(exc)) from exc


def outcome(parse, lines):
    """Every triple up to the first error, then the error's text."""
    seen = []
    try:
        for triple in parse(lines):
            seen.append(tuple(repr(term) for term in triple))
    except NTriplesParseError as exc:
        seen.append((exc.line_number, str(exc)))
    return seen


# ----------------------------------------------------------------------
# Generated lines
# ----------------------------------------------------------------------

_hex = st.sampled_from("0123456789abcdefABCDEF")
_escape = st.one_of(
    st.sampled_from(
        ["\\n", "\\r", "\\t", "\\b", "\\f", '\\"', "\\'", "\\\\", "\\q", "\\u12"]
    ),
    st.builds("\\u{}".format, st.text(_hex, min_size=4, max_size=4)),
    st.builds("\\U000{}".format, st.text(_hex, min_size=5, max_size=5)),
    # A code point no character has, and digits that are not hex.
    st.sampled_from(["\\UFFFFFFFF", "\\U00110000", "\\uZZZZ", "\\u 1f "]),
)
_plain = st.text(
    st.characters(blacklist_characters='"\\\n\r', blacklist_categories=("Cs",)),
    max_size=6,
)
_lexical = st.lists(st.one_of(_plain, _escape), max_size=4).map("".join)
_reference = st.one_of(
    st.sampled_from(["", "http://x/p", "http://x/s", "http://x/o", "a b", 'q"q']),
    st.text(
        st.characters(blacklist_characters=">\n\r", blacklist_categories=("Cs",)),
        max_size=8,
    ),
    # UCHAR: a character, one IRIREF forbids, none at all, a short one.
    st.lists(
        st.one_of(
            st.sampled_from(["http://x/", "\\u0041", "\\U0001F600", "\\u00e9"]),
            st.sampled_from(["\\u0020", "\\u003E", "\\u005C", "\\u007b", "\\u0000"]),
            st.sampled_from(["\\uZZZZ", "\\UFFFFFFFF", "\\u12", "\\n"]),
        ),
        min_size=1,
        max_size=3,
    ).map("".join),
)
_label = st.text("abzAZ09_", min_size=1, max_size=4)
_language = st.text("enUS-09", min_size=1, max_size=5)
_uri = st.builds("<{}>".format, _reference)
_bnode = st.one_of(st.builds("_:{}".format, _label), st.sampled_from(["_:a_:b", "_:"]))
_literal = st.one_of(
    st.builds('"{}"'.format, _lexical),
    st.builds('"{}"@{}'.format, _lexical, _language),
    st.builds('"{}"^^{}'.format, _lexical, _uri),
    st.builds('"{}"@{}^^{}'.format, _lexical, _language, _uri),
)
_term = st.one_of(_uri, _uri, _bnode, _literal)
_gap = st.sampled_from(["", " ", "  ", "\t", " \t "])
_end = st.sampled_from(["", "\n", "\r\n", " \n"])
_dot = st.sampled_from([".", ".", ".", "", ". .", ". junk", ".<http://x/p>", ";"])
_statement = st.builds(
    "{}{}{}{}{}{}{}{}{}{}".format,
    _gap, _term, _gap, _term, _gap, _term, _gap, _dot, _gap, _end,
)
_line = st.one_of(
    _statement,
    _statement,
    st.sampled_from(["", "\n", "   \n", "# a comment\n", "  # indented\n", "junk\n"]),
    st.builds("{}{}{}.\n".format, _term, _gap, _term),
    st.builds("{} {} {} {} .\n".format, _term, _term, _term, _term),
)


@settings(max_examples=600, deadline=None)
@given(st.lists(_line, max_size=6))
def test_the_line_pattern_accepts_and_rejects_what_the_walk_does(lines):
    assert outcome(iter_ntriples, lines) == outcome(reference_triples, lines)


@settings(max_examples=200, deadline=None)
@given(_statement)
def test_one_line_alone_is_the_walk(line):
    alone = outcome(lambda lines: filter(None, map(parse_ntriples_line, lines)), [line])
    assert alone == outcome(reference_triples, [line])


def test_repeated_tokens_are_one_object_literals_too():
    first, second, third = iter_ntriples(
        [
            '<http://x/s> <http://x/p> "v\\u0041"@en .',
            '_:b <http://x/p>  "v\\u0041"@en.',
            '_:b <http://x/q> "7"^^<http://x/p> .',
        ]
    )
    assert first.object is second.object and first.object.lexical == "vA"
    assert second.subject is third.subject
    # A datatype is the same object as the URI written out elsewhere.
    assert third.object.datatype is first.predicate
    # The table dies with the call.
    (again,) = iter_ntriples(['<http://x/s> <http://x/p> "v\\u0041"@en .'])
    assert again == first and again.object is not first.object


_pool = [URI("http://x/%d" % i) for i in range(4)] + [BNode("b")]
_objects = _pool + [Literal("1"), Literal(1), Literal("1", language="en")]
_triples = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_pool),
        st.sampled_from(_pool[:4]),
        st.sampled_from(_objects),
    ),
    max_size=40,
)


def keys_in_order(index):
    return [(outer, list(inner)) for outer, inner in index.items()]


@settings(max_examples=300, deadline=None)
@given(_triples, _triples)
def test_bulk_insertion_equals_one_by_one(first, second):
    graph = RDFGraph(first)
    one_by_one = RDFGraph()
    assert sum(one_by_one.add(triple) for triple in first) == len(graph)
    assert graph.add_all(second) == sum(one_by_one.add(t) for t in second)
    indexes = (graph._spo, graph._pos, graph._osp)
    expected = (one_by_one._spo, one_by_one._pos, one_by_one._osp)
    assert indexes == expected
    assert [keys_in_order(index) for index in indexes] == [
        keys_in_order(index) for index in expected
    ]
    assert len(graph) == len(set(first + second)) == len(list(graph))


def test_size_is_right_when_the_source_fails_part_way():
    graph = RDFGraph()
    with pytest.raises(NTriplesParseError, match="line 3"):
        graph.add_all(
            iter_ntriples(
                [
                    "<http://x/s> <http://x/p> <http://x/o> .",
                    "<http://x/s> <http://x/p> <http://x/o> .",
                    "<http://x/s> <http://x/p> .",
                ]
            )
        )
    assert len(graph) == len(list(graph)) == 1


# ----------------------------------------------------------------------
# The row loader: file and text straight into the indexes
# ----------------------------------------------------------------------


def built(load):
    """The graph *load* builds, as its three indexes in key order and
    how many objects each distinct term is held as; or the error."""
    try:
        graph = load()
    except NTriplesParseError as exc:
        return ("error", exc.line_number, str(exc))
    objects = {}
    for index in (graph._spo, graph._pos, graph._osp):
        for outer, inner in index.items():
            objects.setdefault(outer, set()).add(id(outer))
            for key, members in inner.items():
                objects.setdefault(key, set()).add(id(key))
                for member in members:
                    objects.setdefault(member, set()).add(id(member))
    assert len(graph) == len(list(graph))
    return (
        [keys_in_order(index) for index in (graph._spo, graph._pos, graph._osp)],
        sorted(len(ids) for ids in objects.values()),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, max_size=8))
def test_the_row_loader_builds_what_iter_ntriples_builds(lines):
    # Every line ends, so the file and the text have the same lines.
    lines = [line if line.endswith("\n") else line + "\n" for line in lines]
    expected = built(lambda: RDFGraph(iter_ntriples(lines)))
    assert built(lambda: parse_ntriples("".join(lines))) == expected
    assert built(lambda: parse_ntriples(lines)) == expected
    handle, path = tempfile.mkstemp(suffix=".nt")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as out:
            out.write("".join(lines))
        assert built(lambda: load_ntriples_file(path)) == expected
    finally:
        os.unlink(path)
    if expected[0] != "error":
        # One object per token: no term is held twice.
        assert set(expected[1]) <= {1}


def test_a_row_load_that_raises_part_way_keeps_the_graph_whole():
    graph = RDFGraph(
        iter_ntriples(["<http://x/s> <http://x/p> <http://x/o> ."])
    )
    before = graph.canonical_order()
    with pytest.raises(NTriplesParseError, match="line 4"):
        graph.add_rows(
            _rows(
                [
                    "<http://x/s> <http://x/p> <http://x/o> .",
                    "<http://x/s> <http://x/p> <http://x/o2> .",
                    "# a comment",
                    '"x" <http://x/p> <http://x/o> .',
                ]
            )
        )
    assert len(graph) == len(list(graph)) == 2
    # The layouts were dropped: the new triple is in the order.
    assert len(graph.canonical_order()) == 2 and len(before) == 1


# ----------------------------------------------------------------------
# Errors that used to lose their line number
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("<> <http://p> <http://o> .", "URI cannot be empty"),
        ("<http://s> <> <http://o> .", "URI cannot be empty"),
        # Was loaded, silently, as the plain literal "x".
        ('<http://s> <http://p> "x"^^<> .', "URI cannot be empty"),
        # The reason names the escape, not int()'s or chr()'s complaint.
        ('<http://s> <http://p> "\\uZZZZ" .', "bad escape \\uZZZZ: not a"),
        ('<http://s> <http://p> "\\UFFFFFFFF" .', "bad escape \\UFFFFFFFF: not"),
        ('<http://s> <http://p> "\\U00110000" .', "bad escape \\U00110000: not"),
    ],
)
def test_a_bad_term_is_a_parse_error_with_its_line(bad, reason):
    text = "<http://s> <http://p> <http://o> .\n\n" + bad
    with pytest.raises(NTriplesParseError) as raised:
        parse_ntriples(text)
    assert raised.value.line_number == 3
    assert str(raised.value).startswith("line 3: " + reason)
    assert str(raised.value).endswith("(in %r)" % bad)
    with pytest.raises(NTriplesParseError, match="line 7: "):
        parse_ntriples_line(bad, 7)


def test_a_bad_escape_in_a_commit_line_is_named():
    """What ``serve`` answers for a change set with a bad escape: the
    escape itself, and neither ``int()``'s nor ``chr()``'s wording."""
    line = '<http://s> <http://p> "a\\uZZZZb" .'
    with pytest.raises(NTriplesParseError) as raised:
        parse_ntriples(line)
    assert str(raised.value) == (
        "line 1: bad escape \\uZZZZ: not a Unicode code point (in %r)" % line
    )
    assert isinstance(raised.value, ValueError)
