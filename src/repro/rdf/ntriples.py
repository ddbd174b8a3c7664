"""N-Triples: line-oriented parsing and serialization.

The interchange format for loading data into engines (HDFS files in the
surveyed systems; local files or strings here).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.triple import Triple


class NTriplesParseError(ValueError):
    """Raised with the offending line number and content."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        super().__init__(
            "line %d: %s (in %r)" % (line_number, reason, line.strip())
        )
        self.line_number = line_number


_TERM_RE = re.compile(
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

_UNESCAPES = {
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
    '\\"': '"',
    "\\\\": "\\",
}


def _unescape(text: str) -> str:
    out = []
    index = 0
    while index < len(text):
        if text[index] == "\\" and index + 1 < len(text):
            pair = text[index : index + 2]
            if pair in _UNESCAPES:
                out.append(_UNESCAPES[pair])
                index += 2
                continue
            if pair == "\\u" and index + 6 <= len(text):
                out.append(chr(int(text[index + 2 : index + 6], 16)))
                index += 6
                continue
            if pair == "\\U" and index + 10 <= len(text):
                out.append(chr(int(text[index + 2 : index + 10], 16)))
                index += 10
                continue
        out.append(text[index])
        index += 1
    return "".join(out)


def _parse_term(
    line: str, position: int, line_number: int, uris: Dict[str, URI]
) -> tuple:
    """The term starting at *position* and the offset just past it.

    *uris* holds the URI object already built for each reference seen,
    so one document's repeated subjects, predicates and classes are one
    object each (hashed once, stored once) rather than one per mention.
    """
    match = _TERM_RE.match(line, position)
    if match is None:
        raise NTriplesParseError(line_number, line, "expected a term")
    reference = match.group("uri")
    if reference is not None:
        term: Optional[Term] = uris.get(reference)
        if term is None:
            term = uris[reference] = URI(reference)
    elif match.group("bnode") is not None:
        term = BNode(match.group("bnode"))
    else:
        lexical = _unescape(match.group("lexical"))
        reference = match.group("datatype")
        datatype = None
        if reference:
            datatype = uris.get(reference)
            if datatype is None:
                datatype = uris[reference] = URI(reference)
        term = Literal(
            lexical, datatype=datatype, language=match.group("lang")
        )
    return term, match.end()


def parse_ntriples_line(
    line: str, line_number: int = 1, uris: Optional[Dict[str, URI]] = None
) -> Optional[Triple]:
    """Parse one line; returns None for blank lines and comments.

    A caller parsing many lines passes one *uris* dict for all of them
    (see :func:`_parse_term`).
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if uris is None:
        uris = {}
    subject, position = _parse_term(line, 0, line_number, uris)
    predicate, position = _parse_term(line, position, line_number, uris)
    obj, position = _parse_term(line, position, line_number, uris)
    tail = line[position:].strip()
    if tail != ".":
        raise NTriplesParseError(line_number, line, "expected terminating '.'")
    try:
        return Triple(subject, predicate, obj)
    except ValueError as exc:
        raise NTriplesParseError(line_number, line, str(exc)) from exc


def iter_ntriples(lines: Iterable[str]) -> Iterator[Triple]:
    """Parse an iterable of lines, yielding triples."""
    uris: Dict[str, URI] = {}
    for line_number, line in enumerate(lines, start=1):
        triple = parse_ntriples_line(line, line_number, uris)
        if triple is not None:
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
