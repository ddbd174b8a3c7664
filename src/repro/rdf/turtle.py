"""A Turtle subset: prefixes, ``a``, ``;``/``,`` lists, typed literals.

Enough of the grammar to write readable fixtures and example data; the
full-fidelity line format remains N-Triples.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import (
    DECIMAL,
    DOUBLE,
    INTEGER,
    IRIREF,
    STRING,
    Term,
    URI,
    decode_iri,
    read_term,
)
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF


class TurtleParseError(ValueError):
    """Raised on Turtle text outside the supported subset."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<prefix_decl>@prefix)
  | (?P<uri>%s)
  | (?P<string>%s)
  | (?P<double>%s|%s)
  | (?P<integer>%s)
  | (?P<boolean>true|false)
  | (?P<a_kw>\ba\b)
  | (?P<bnode>_:[A-Za-z0-9_]+)
  | (?P<pname>[A-Za-z_][\w\-]*?:[\w\-.]*)
  | (?P<punct>[.;,^])
    """
    % (IRIREF, STRING, DOUBLE, DECIMAL, INTEGER),
    re.VERBOSE,
)


def _tokenize(text: str) -> Tuple[List[Tuple[str, str]], List[int]]:
    """The tokens of *text*, and the offset each one starts at."""
    tokens: List[Tuple[str, str]] = []
    starts: List[int] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise TurtleParseError(
                "line %d: cannot lex turtle at %r"
                % (
                    text.count("\n", 0, position) + 1,
                    text[position : position + 30],
                )
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, match.group()))
        starts.append(match.start())
    tokens.append(("eof", ""))
    starts.append(len(text))
    return tokens, starts


class _TurtleParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens, self.starts = _tokenize(text)
        self.index = 0
        self.namespaces = NamespaceManager()
        self.graph = RDFGraph()

    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.index]

    def advance(self) -> Tuple[str, str]:
        token = self.tokens[self.index]
        if token[0] != "eof":
            self.index += 1
        return token

    def expect_punct(self, value: str) -> None:
        kind, text = self.advance()
        if kind != "punct" or text != value:
            raise TurtleParseError("expected %r, found %r" % (value, text))

    def parse(self) -> RDFGraph:
        while self.peek()[0] != "eof":
            if self.peek()[0] == "prefix_decl":
                self._parse_prefix()
            else:
                self._parse_statement()
        return self.graph

    def _parse_prefix(self) -> None:
        self.advance()  # @prefix
        kind, text = self.advance()
        if kind != "pname" or not text.endswith(":"):
            raise TurtleParseError("expected prefix name, found %r" % text)
        prefix = text[:-1]
        kind, text = self.advance()
        if kind != "uri":
            raise TurtleParseError("expected namespace URI, found %r" % text)
        self.namespaces.bind(prefix, decode_iri(text[1:-1]))
        self.expect_punct(".")

    def _parse_statement(self) -> None:
        subject = self._parse_term(as_subject=True)
        while True:
            predicate = self._parse_predicate()
            while True:
                obj = self._parse_term(as_subject=False)
                self.graph.add(Triple(subject, predicate, obj))
                kind, text = self.peek()
                if kind == "punct" and text == ",":
                    self.advance()
                    continue
                break
            kind, text = self.peek()
            if kind == "punct" and text == ";":
                self.advance()
                # Trailing ';' before '.' is legal Turtle.
                kind, text = self.peek()
                if kind == "punct" and text == ".":
                    break
                continue
            break
        self.expect_punct(".")

    def _parse_predicate(self) -> URI:
        if self.peek()[0] == "a_kw":
            self.advance()
            return RDF.type
        return self._parse_iri("predicate")

    def _parse_iri(self, what: str) -> URI:
        kind, text = self.advance()
        if kind == "pname":
            return self.namespaces.expand(text)
        if kind != "uri":
            raise TurtleParseError("expected %s, found %r" % (what, text))
        return self._read_term(text)

    def _parse_term(self, as_subject: bool) -> Term:
        kind, text = self.advance()
        if kind == "pname":
            return self.namespaces.expand(text)
        if as_subject and kind not in ("uri", "bnode"):
            raise TurtleParseError("invalid subject %r" % text)
        datatype = None
        if kind == "string" and self.peek() == ("punct", "^"):
            self.advance()
            self.expect_punct("^")
            datatype = self._parse_iri("datatype after ^^")
        return self._read_term(text, datatype)

    def _read_term(self, text: str, datatype: Optional[URI] = None) -> Term:
        """``read_term``, its error naming the line of the token just read."""
        try:
            return read_term(text, datatype)
        except ValueError as exc:
            line = self.text.count("\n", 0, self.starts[self.index - 1]) + 1
            raise TurtleParseError("line %d: %s" % (line, exc)) from None


def parse_turtle(text: str) -> RDFGraph:
    """Parse Turtle text into a graph."""
    return _TurtleParser(text).parse()
