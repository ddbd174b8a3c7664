"""N-Triples: line-oriented parsing and serialization.

The interchange format for loading data into engines (HDFS files in the
surveyed systems; local files or strings here).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term, read_term
from repro.rdf.triple import Triple, TripleValidityError


class NTriplesParseError(ValueError):
    """Raised with the offending line number and content."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        super().__init__(
            "line %d: %s (in %r)" % (line_number, reason, line.strip())
        )
        self.line_number = line_number


#: An IRI, and what may stand as a subject: an IRI or a blank node.  The
#: lookahead keeps a blank-node label maximal (``_`` may continue a label
#: *and* start the next term), so a term matches in exactly one way and
#: the line pattern cannot split a line differently from the term-by-term
#: walk.  An IRI token is held to ``terms.IRIREF`` by :func:`read_term`,
#: once per distinct token, not here once per line: a raw character
#: IRIREF forbids is a ``not a term`` error that names its line.
_IRI = r"<[^>]*>"
_SUBJECT = r"(?: %s | _:[A-Za-z0-9_]+ (?![A-Za-z0-9_]) )" % _IRI
#: One term of any kind, captured as text.
_TOKEN = r"""( %s | "(?:[^"\\]|\\.)*" (?: \^\^%s | @[A-Za-z0-9\-]+ )? )""" % (
    _SUBJECT,
    _IRI,
)
_TERM_RE = re.compile(r"\s*" + _TOKEN, re.VERBOSE)
#: A whole well-formed line whose terms stand where RDF allows them: an
#: IRI or a blank node as subject, an IRI as predicate.  What it admits
#: needs no position check, since a subject or predicate token can only
#: read as a URI or BNode.
_LINE_RE = re.compile(
    r"\s* (%s) \s* (%s) \s* %s \s* \. \s* \Z" % (_SUBJECT, _IRI, _TOKEN),
    re.VERBOSE,
)


def _parse_term(
    line: str, position: int, line_number: int, terms: Dict[str, Term]
) -> tuple:
    """The term starting at *position* and the offset just past it.

    *terms* holds the term read for each token, so a document's repeated
    tokens, datatypes too, are one object each (hashed once, stored once).
    """
    match = _TERM_RE.match(line, position)
    if match is None:
        raise NTriplesParseError(line_number, line, "expected a term")
    token = match.group(1)
    try:
        term = terms.get(token) or read_term(token, terms=terms)
    except ValueError as exc:
        # An empty reference, or an escape naming no character.
        raise NTriplesParseError(line_number, line, str(exc)) from exc
    return term, match.end()


def parse_ntriples_line(
    line: str, line_number: int = 1, terms: Optional[Dict[str, Term]] = None
) -> Optional[Triple]:
    """Parse one line term by term; returns None for blank lines and
    comments.

    A caller parsing many lines passes one *terms* dict for all of them
    (see :func:`_parse_term`).
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


def _rows(lines: Iterable[str]) -> Iterator[Tuple[Term, Term, Term]]:
    """The ``(s, p, o)`` term rows of an iterable of lines.

    A well-formed line costs one match of the line pattern and one table
    lookup per term, and builds no :class:`Triple`.  Any other line --
    blank, comment, malformed or with a term out of its place -- goes
    through :func:`parse_ntriples_line`, so what is accepted and what
    each error says is the term-by-term walk's.  The token table lives
    as long as the call.
    """
    terms: Dict[str, Term] = {}
    known = terms.get
    match_line = _LINE_RE.match
    for line_number, line in enumerate(lines, start=1):
        match = match_line(line)
        if match is None:
            triple = parse_ntriples_line(line, line_number, terms)
            if triple is not None:
                yield triple.as_tuple()
            continue
        subject, predicate, obj = match.groups()
        try:
            row = (
                known(subject) or read_term(subject, terms=terms),
                known(predicate) or read_term(predicate, terms=terms),
                known(obj) or read_term(obj, terms=terms),
            )
        except ValueError as exc:
            # A term :func:`read_term` refuses.
            raise NTriplesParseError(line_number, line, str(exc)) from exc
        yield row


def iter_ntriples(lines: Iterable[str]) -> Iterator[Triple]:
    """Parse an iterable of lines, yielding triples (the rows of
    :func:`_rows`, each as a :class:`Triple`)."""
    for row in _rows(lines):
        yield Triple(*row)


def parse_ntriples(source: Union[str, Iterable[str]]) -> RDFGraph:
    """Parse N-Triples text (one string) or an iterable of lines."""
    if isinstance(source, str):
        # Not splitlines(): a literal holds U+2028, U+0085, ... as written.
        source = re.split(r"\r\n?|\n", source)
    graph = RDFGraph()
    graph.add_rows(_rows(source))
    return graph


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to N-Triples text (sorted for determinism)."""
    return "\n".join(t.n3() for t in sorted(triples)) + "\n"


def load_ntriples_file(path: str) -> RDFGraph:
    """Parse an N-Triples file from disk."""
    graph = RDFGraph()
    with open(path, "r", encoding="utf-8") as handle:
        graph.add_rows(_rows(handle))
    return graph


def save_ntriples_file(path: str, triples: Iterable[Triple]) -> int:
    """Write triples to *path*; returns the number written."""
    items: List[Triple] = sorted(triples)
    with open(path, "w", encoding="utf-8") as handle:
        for triple in items:
            handle.write(triple.n3())
            handle.write("\n")
    return len(items)
