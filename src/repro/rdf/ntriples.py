"""N-Triples: line-oriented parsing and serialization.

The interchange format for loading data into engines (HDFS files in the
surveyed systems; local files or strings here).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.triple import Triple, TripleValidityError


class NTriplesParseError(ValueError):
    """Raised with the offending line number and content."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        super().__init__(
            "line %d: %s (in %r)" % (line_number, reason, line.strip())
        )
        self.line_number = line_number


#: A literal token, split.
_LITERAL = r"""
    "(?P<lexical>(?:[^"\\]|\\.)*)"
    (?: \^\^<(?P<datatype>[^>]*)> | @(?P<language>[A-Za-z0-9\-]+) )?
"""
_LITERAL_RE = re.compile(_LITERAL, re.VERBOSE)
#: One term of any kind, captured as text.  The lookahead keeps a
#: blank-node label maximal (``_`` may continue a label *and* start the
#: next term), so a term matches in exactly one way and the line pattern
#: cannot split a line differently from the term-by-term walk.
_TOKEN = r"( <[^>]*> | _:[A-Za-z0-9_]+ (?![A-Za-z0-9_]) | %s )" % re.sub(
    r"\(\?P<\w+>", "(?:", _LITERAL
)
_TERM_RE = re.compile(r"\s*" + _TOKEN, re.VERBOSE)
#: A whole well-formed line.
_LINE_RE = re.compile(
    r"\s* %s \s* %s \s* %s \s* \. \s* \Z" % (_TOKEN, _TOKEN, _TOKEN),
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r'\\([nrt"\\]|u.{4}|U.{8})', re.DOTALL)
_UNESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(_unescaped, text) if "\\" in text else text


def _unescaped(match) -> str:
    escape = match.group(1)
    if escape in _UNESCAPES:
        return _UNESCAPES[escape]
    try:
        return chr(int(escape[1:], 16))
    except (ValueError, OverflowError):
        raise ValueError(
            "bad escape \\%s: not a Unicode code point" % escape
        ) from None


def _term(
    token: str, terms: Dict[str, Term], line_number: int, line: str
) -> Term:
    """The term *token* spells, entered in *terms*.

    *terms* holds the term built for each token seen, so one document's
    repeated subjects, predicates, classes and values are one object
    each (hashed once, stored once) rather than one per mention; a
    datatype is shared as the URI token it would be.
    """
    try:
        if token[0] == "<":
            term: Term = URI(token[1:-1])
        elif token[0] == "_":
            term = BNode(token[2:])
        else:
            lexical, reference, language = _LITERAL_RE.match(token).groups()
            lexical = _unescape(lexical)
            datatype = None
            if reference is not None:
                shared = "<%s>" % reference
                datatype = terms.get(shared)
                if datatype is None:
                    datatype = terms[shared] = URI(reference)
            term = Literal(lexical, datatype, language)
    except (ValueError, OverflowError) as exc:
        # An empty reference, or an escape naming no character.
        raise NTriplesParseError(line_number, line, str(exc)) from exc
    terms[token] = term
    return term


def _parse_term(
    line: str, position: int, line_number: int, terms: Dict[str, Term]
) -> tuple:
    """The term starting at *position* and the offset just past it."""
    match = _TERM_RE.match(line, position)
    if match is None:
        raise NTriplesParseError(line_number, line, "expected a term")
    token = match.group(1)
    term = terms.get(token) or _term(token, terms, line_number, line)
    return term, match.end()


def parse_ntriples_line(
    line: str, line_number: int = 1, terms: Optional[Dict[str, Term]] = None
) -> Optional[Triple]:
    """Parse one line term by term; returns None for blank lines and
    comments.

    A caller parsing many lines passes one *terms* dict for all of them
    (see :func:`_term`).
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if terms is None:
        terms = {}
    subject, position = _parse_term(line, 0, line_number, terms)
    predicate, position = _parse_term(line, position, line_number, terms)
    obj, position = _parse_term(line, position, line_number, terms)
    tail = line[position:].strip()
    if tail != ".":
        raise NTriplesParseError(line_number, line, "expected terminating '.'")
    try:
        return Triple(subject, predicate, obj)
    except TripleValidityError as exc:
        raise NTriplesParseError(line_number, line, str(exc)) from exc


def iter_ntriples(lines: Iterable[str]) -> Iterator[Triple]:
    """Parse an iterable of lines, yielding triples.

    A well-formed line costs one match of the line pattern and one table
    lookup per term.  Any other line -- blank, comment or malformed --
    goes through :func:`parse_ntriples_line`, so what is accepted and
    what each error says is the term-by-term walk's.  The token table
    lives as long as the call.
    """
    terms: Dict[str, Term] = {}
    known = terms.get
    match_line = _LINE_RE.match
    for line_number, line in enumerate(lines, start=1):
        match = match_line(line)
        if match is None:
            triple = parse_ntriples_line(line, line_number, terms)
            if triple is not None:
                yield triple
            continue
        subject, predicate, obj = match.groups()
        try:
            triple = Triple(
                known(subject) or _term(subject, terms, line_number, line),
                known(predicate) or _term(predicate, terms, line_number, line),
                known(obj) or _term(obj, terms, line_number, line),
            )
        except TripleValidityError as exc:
            raise NTriplesParseError(line_number, line, str(exc)) from exc
        yield triple


def parse_ntriples(source: Union[str, Iterable[str]]) -> RDFGraph:
    """Parse N-Triples text (one string) or an iterable of lines."""
    if isinstance(source, str):
        source = source.splitlines()
    return RDFGraph(iter_ntriples(source))


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to N-Triples text (sorted for determinism)."""
    return "\n".join(t.n3() for t in sorted(triples)) + "\n"


def load_ntriples_file(path: str) -> RDFGraph:
    """Parse an N-Triples file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return RDFGraph(iter_ntriples(handle))


def save_ntriples_file(path: str, triples: Iterable[Triple]) -> int:
    """Write triples to *path*; returns the number written."""
    items: List[Triple] = sorted(triples)
    with open(path, "w", encoding="utf-8") as handle:
        for triple in items:
            handle.write(triple.n3())
            handle.write("\n")
    return len(items)
