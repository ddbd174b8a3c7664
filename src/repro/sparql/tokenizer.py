"""SPARQL tokenizer."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.rdf.terms import DECIMAL, DOUBLE, INTEGER, STRING

#: An IRI; any other ``<`` is the operator.
IRI = r"<[^<>\s]*>"


class SparqlParseError(ValueError):
    """Raised on malformed SPARQL text."""


KEYWORDS = {
    "SELECT", "ASK", "CONSTRUCT", "DESCRIBE",
    "WHERE", "PREFIX", "BASE", "DISTINCT", "REDUCED",
    "FILTER", "OPTIONAL", "UNION", "ORDER", "BY", "ASC", "DESC",
    "LIMIT", "OFFSET", "NOT", "IN", "TRUE", "FALSE", "A",
    "REGEX", "BOUND", "ISIRI", "ISURI", "ISLITERAL", "ISBLANK",
    "STR", "LANG", "DATATYPE",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<uri>%s)
  | (?P<string>%s)
  | (?P<double>%s|%s)
  | (?P<integer>%s)
  | (?P<bnode>_:[A-Za-z0-9_]+)
  | (?P<pname>[A-Za-z_][\w\-]*:[\w\-.]*|:[\w\-.]+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|\|\||&&|[{}().,;=<>!*/+\-\^@])
    """
    % (IRI, STRING, DOUBLE, DECIMAL, INTEGER),
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | word | var | uri | string | integer | double | pname | bnode | op | eof
    value: str
    position: int


def tokenize(text: str) -> List[Token]:
    """Lex SPARQL text into tokens."""
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SparqlParseError(
                "cannot lex SPARQL at position %d: %r"
                % (position, text[position : position + 20])
            )
        position = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":
            continue
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, match.start()))
            else:
                raise SparqlParseError(
                    "unexpected bare word %r at position %d"
                    % (value, match.start())
                )
        else:
            tokens.append(Token(kind, value, match.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class TokenStream:
    """Cursor over tokens with accept/expect helpers."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead: int = 0) -> Token:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self._index += 1
        return token

    def accept(self, kind: str, value: str = None) -> bool:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            return False
        self.next()
        return True

    def expect(self, kind: str, value: str = None) -> Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            raise SparqlParseError(
                "expected %s%s at position %d, found %r"
                % (
                    kind,
                    " %r" % value if value else "",
                    token.position,
                    token.value or "<eof>",
                )
            )
        return self.next()

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value in keywords
