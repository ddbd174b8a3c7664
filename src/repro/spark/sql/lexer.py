"""SQL lexer: turns query text into a token stream."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List


class SqlSyntaxError(ValueError):
    """Raised on malformed SQL text."""


KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER",
    "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
    "CROSS", "ON", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL",
    "UNION", "ALL", "ASC", "DESC", "TRUE", "FALSE", "COUNT", "SUM",
    "MIN", "MAX", "AVG", "HAVING", "BETWEEN", "LIKE",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*(\.[A-Za-z_][A-Za-z0-9_$]*)*)
  | (?P<quoted>`[^`]+`)
  | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|\+|-|/|\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | ident | number | string | op | eof
    value: str
    position: int

    def __repr__(self) -> str:
        return "Token(%s, %r)" % (self.kind, self.value)


def tokenize(text: str) -> List[Token]:
    """Lex *text* into tokens, raising :class:`SqlSyntaxError` on garbage."""
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SqlSyntaxError(
                "cannot lex SQL at position %d: %r"
                % (position, text[position : position + 20])
            )
        position = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        if match.lastgroup == "ident":
            upper = value.upper()
            if upper in KEYWORDS and "." not in value:
                tokens.append(Token("keyword", upper, match.start()))
            else:
                tokens.append(Token("ident", value, match.start()))
        elif match.lastgroup == "quoted":
            tokens.append(Token("ident", value[1:-1], match.start()))
        elif match.lastgroup == "number":
            tokens.append(Token("number", value, match.start()))
        elif match.lastgroup == "string":
            body = value[1:-1].replace("\\'", "'").replace("\\\\", "\\")
            tokens.append(Token("string", body, match.start()))
        else:
            tokens.append(Token("op", value, match.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class TokenStream:
    """Cursor over a token list with peek/expect helpers."""

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
        if token.kind != kind:
            return False
        if value is not None and token.value != value:
            return False
        self.next()
        return True

    def expect(self, kind: str, value: str = None) -> Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            raise SqlSyntaxError(
                "expected %s%s at position %d, found %r"
                % (
                    kind,
                    " %r" % value if value else "",
                    token.position,
                    token.value,
                )
            )
        return self.next()

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value in keywords

