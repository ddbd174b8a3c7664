"""A Turtle subset: prefixes, ``a``, ``;``/``,`` lists, typed literals.

Enough of the grammar to write readable fixtures and example data; the
full-fidelity line format remains N-Triples.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF, XSD


class TurtleParseError(ValueError):
    """Raised on Turtle text outside the supported subset."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<prefix_decl>@prefix)
  | (?P<uri><[^>]*>)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<double>[+-]?\d+\.\d+)
  | (?P<integer>[+-]?\d+)
  | (?P<boolean>true|false)
  | (?P<a_kw>\ba\b)
  | (?P<bnode>_:[A-Za-z0-9_]+)
  | (?P<pname>[A-Za-z_][\w\-]*?:[\w\-.]*)
  | (?P<pname_ns>[A-Za-z_][\w\-]*:)
  | (?P<word>[A-Za-z][A-Za-z0-9\-]*)
  | (?P<punct>[.;,\^@])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise TurtleParseError(
                "cannot lex turtle at %r" % text[position : position + 30]
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, match.group()))
    tokens.append(("eof", ""))
    return tokens


class _TurtleParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
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
        if kind == "pname_ns":
            prefix = text[:-1]
        elif kind == "pname" and text.endswith(":"):
            prefix = text[:-1]
        else:
            raise TurtleParseError("expected prefix name, found %r" % text)
        kind, text = self.advance()
        if kind != "uri":
            raise TurtleParseError("expected namespace URI, found %r" % text)
        self.namespaces.bind(prefix, text[1:-1])
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
        kind, text = self.advance()
        if kind == "a_kw":
            return RDF.type
        if kind == "uri":
            return URI(text[1:-1])
        if kind == "pname":
            term = self.namespaces.expand(text)
            return term
        raise TurtleParseError("expected predicate, found %r" % text)

    def _parse_term(self, as_subject: bool) -> Term:
        kind, text = self.advance()
        if kind == "uri":
            return URI(text[1:-1])
        if kind == "pname":
            return self.namespaces.expand(text)
        if kind == "bnode":
            return BNode(text[2:])
        if as_subject:
            raise TurtleParseError("invalid subject %r" % text)
        if kind == "string":
            lexical = text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            next_kind, next_text = self.peek()
            if next_kind == "punct" and next_text == "^":
                self.advance()
                self.expect_punct("^")
                dt_kind, dt_text = self.advance()
                if dt_kind == "uri":
                    return Literal(lexical, datatype=URI(dt_text[1:-1]))
                if dt_kind == "pname":
                    return Literal(lexical, datatype=self.namespaces.expand(dt_text))
                raise TurtleParseError("expected datatype after ^^")
            if next_kind == "punct" and next_text == "@":
                self.advance()
                lang_kind, lang_text = self.advance()
                return Literal(lexical, language=lang_text)
            return Literal(lexical)
        if kind == "integer":
            return Literal(int(text))
        if kind == "double":
            return Literal(float(text))
        if kind == "boolean":
            return Literal(text == "true")
        raise TurtleParseError("invalid object %r" % text)


def parse_turtle(text: str) -> RDFGraph:
    """Parse Turtle text into a graph."""
    return _TurtleParser(text).parse()
