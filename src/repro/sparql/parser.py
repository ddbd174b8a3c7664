"""Recursive-descent SPARQL parser for the BGP+ fragment.

Supports PREFIX prologues, SELECT (DISTINCT) / ASK forms, basic graph
patterns with ``;``/``,`` shorthand, FILTER with the standard operator and
builtin set, OPTIONAL, UNION, nested groups, ORDER BY, LIMIT and OFFSET --
the union of the SPARQL features Table II attributes to the surveyed
systems.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.rdf.namespaces import NamespaceManager
from repro.rdf.terms import IRIREF, Literal, Term, URI, decode_iri, read_term
from repro.rdf.vocab import RDF
from repro.sparql.ast import (
    Arithmetic,
    AskQuery,
    BooleanExpr,
    Comparison,
    ConstructQuery,
    DescribeQuery,
    FilterExpr,
    FilterPattern,
    FunctionCall,
    GroupGraphPattern,
    InExpr,
    NotExpr,
    OptionalPattern,
    PatternTerm,
    Query,
    SelectQuery,
    TermExpr,
    TriplePattern,
    UnionPattern,
    VarExpr,
    Variable,
)
from repro.sparql.tokenizer import SparqlParseError, TokenStream, tokenize

#: What a PREFIX's IRI must be, as every ``<...>`` term is
#: (:func:`repro.rdf.terms.read_term`) and Turtle's ``@prefix``.
_IRIREF_RE = re.compile(IRIREF)

_BUILTINS = {
    "REGEX", "BOUND", "ISIRI", "ISURI", "ISLITERAL", "ISBLANK",
    "STR", "LANG", "DATATYPE",
}


def parse_sparql(text: str) -> Query:
    """Parse SPARQL text into a :class:`SelectQuery` or :class:`AskQuery`."""
    stream = TokenStream(tokenize(text))
    parser = _Parser(stream)
    query = parser.parse_query()
    stream.expect("eof")
    return query


class _Parser:
    def __init__(self, stream: TokenStream) -> None:
        self.stream = stream
        self.namespaces = NamespaceManager()

    # -- prologue ------------------------------------------------------

    def parse_query(self) -> Query:
        while self.stream.at_keyword("PREFIX"):
            self.stream.next()
            prefix_token = self.stream.expect("pname")
            prefix = prefix_token.value.rstrip(":")
            uri_token = self.stream.expect("uri")
            if not _IRIREF_RE.fullmatch(uri_token.value):
                raise SparqlParseError(
                    "not an IRI: %r at position %d"
                    % (uri_token.value, uri_token.position)
                )
            try:
                namespace = decode_iri(uri_token.value[1:-1])
            except ValueError as exc:
                raise SparqlParseError(
                    "%s at position %d" % (exc, uri_token.position)
                ) from None
            self.namespaces.bind(prefix, namespace)
        if self.stream.at_keyword("SELECT"):
            return self._parse_select()
        if self.stream.at_keyword("ASK"):
            return self._parse_ask()
        if self.stream.at_keyword("CONSTRUCT"):
            return self._parse_construct()
        if self.stream.at_keyword("DESCRIBE"):
            return self._parse_describe()
        raise SparqlParseError(
            "expected SELECT, ASK, CONSTRUCT or DESCRIBE at position %d"
            % self.stream.peek().position
        )

    def _parse_construct(self) -> ConstructQuery:
        self.stream.expect("keyword", "CONSTRUCT")
        self.stream.expect("op", "{")
        template_group = GroupGraphPattern()
        while not self.stream.accept("op", "}"):
            if self.stream.peek().kind == "eof":
                raise SparqlParseError("unterminated CONSTRUCT template")
            self._parse_triples_into(template_group)
        template = [
            element
            for element in template_group.elements
            if isinstance(element, TriplePattern)
        ]
        if not template:
            raise SparqlParseError("empty CONSTRUCT template")
        self.stream.accept("keyword", "WHERE")
        where = self._parse_group()
        # LIMIT and OFFSET page the *sorted constructed graph* at the
        # protocol layer (the engines build the full graph -- see
        # ConstructQuery's docstring).
        limit, offset = self._parse_paging()
        return ConstructQuery(template, where, limit=limit, offset=offset)

    def _parse_paging(self) -> Tuple[Optional[int], int]:
        """``(limit, offset)``: LIMIT and OFFSET, in either order, each an
        unsigned INTEGER as the grammar has it (``LIMIT -1`` is an error,
        not a page)."""
        limit: Optional[int] = None
        offset = 0
        for _attempt in range(2):
            if self.stream.accept("keyword", "LIMIT"):
                limit = self._unsigned_integer("LIMIT")
            elif self.stream.accept("keyword", "OFFSET"):
                offset = self._unsigned_integer("OFFSET")
        return limit, offset

    def _unsigned_integer(self, clause: str) -> int:
        token = self.stream.expect("integer")
        if not token.value.isdigit():
            raise SparqlParseError(
                "%s takes an unsigned integer at position %d, found %r"
                % (clause, token.position, token.value)
            )
        return int(token.value)

    def _parse_describe(self) -> DescribeQuery:
        self.stream.expect("keyword", "DESCRIBE")
        variables: List[Variable] = []
        terms: List = []
        while True:
            token = self.stream.peek()
            if token.kind == "var":
                self.stream.next()
                variables.append(Variable(token.value[1:]))
            elif token.kind in ("uri", "pname"):
                terms.append(self._parse_iri())
            else:
                break
        if not variables and not terms:
            raise SparqlParseError("DESCRIBE needs resources or variables")
        where = None
        if self.stream.at_keyword("WHERE") or (
            self.stream.peek().kind == "op" and self.stream.peek().value == "{"
        ):
            self.stream.accept("keyword", "WHERE")
            where = self._parse_group()
        if variables and where is None:
            raise SparqlParseError(
                "DESCRIBE with variables needs a WHERE clause"
            )
        return DescribeQuery(variables, terms, where)

    # -- query forms ----------------------------------------------------

    def _parse_select(self) -> SelectQuery:
        self.stream.expect("keyword", "SELECT")
        distinct = False
        if self.stream.accept("keyword", "DISTINCT"):
            distinct = True
        else:
            self.stream.accept("keyword", "REDUCED")
        variables: Optional[List[Variable]]
        if self.stream.accept("op", "*"):
            variables = None
        else:
            variables = []
            while self.stream.peek().kind == "var":
                variables.append(Variable(self.stream.next().value[1:]))
            if not variables:
                raise SparqlParseError(
                    "SELECT needs variables or * at position %d"
                    % self.stream.peek().position
                )
        self.stream.accept("keyword", "WHERE")
        where = self._parse_group()

        order_by: List[Tuple[Variable, bool]] = []
        if self.stream.accept("keyword", "ORDER"):
            self.stream.expect("keyword", "BY")
            while True:
                token = self.stream.peek()
                if token.kind == "var":
                    self.stream.next()
                    order_by.append((Variable(token.value[1:]), True))
                elif self.stream.accept("keyword", "ASC"):
                    self.stream.expect("op", "(")
                    var = self.stream.expect("var")
                    self.stream.expect("op", ")")
                    order_by.append((Variable(var.value[1:]), True))
                elif self.stream.accept("keyword", "DESC"):
                    self.stream.expect("op", "(")
                    var = self.stream.expect("var")
                    self.stream.expect("op", ")")
                    order_by.append((Variable(var.value[1:]), False))
                else:
                    break
            if not order_by:
                raise SparqlParseError("empty ORDER BY")

        limit, offset = self._parse_paging()
        return SelectQuery(
            variables=variables,
            where=where,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def _parse_ask(self) -> AskQuery:
        self.stream.expect("keyword", "ASK")
        self.stream.accept("keyword", "WHERE")
        return AskQuery(self._parse_group())

    # -- group graph patterns --------------------------------------------

    def _parse_group(self) -> GroupGraphPattern:
        self.stream.expect("op", "{")
        group = GroupGraphPattern()
        while not self.stream.accept("op", "}"):
            token = self.stream.peek()
            if token.kind == "eof":
                raise SparqlParseError("unterminated group graph pattern")
            if self.stream.at_keyword("FILTER"):
                self.stream.next()
                group.elements.append(FilterPattern(self._parse_constraint()))
                self.stream.accept("op", ".")
            elif self.stream.at_keyword("OPTIONAL"):
                self.stream.next()
                group.elements.append(OptionalPattern(self._parse_group()))
                self.stream.accept("op", ".")
            elif token.kind == "op" and token.value == "{":
                element = self._parse_union_or_group()
                group.elements.append(element)
                self.stream.accept("op", ".")
            else:
                self._parse_triples_into(group)
        return group

    def _parse_union_or_group(self):
        first = self._parse_group()
        if not self.stream.at_keyword("UNION"):
            return first
        alternatives = [first]
        while self.stream.accept("keyword", "UNION"):
            alternatives.append(self._parse_group())
        return UnionPattern(alternatives)

    def _parse_triples_into(self, group: GroupGraphPattern) -> None:
        subject = self._parse_pattern_term(allow_literal=False)
        while True:
            predicate = self._parse_pattern_term(
                allow_literal=False, predicate_position=True
            )
            while True:
                obj = self._parse_pattern_term(allow_literal=True)
                group.elements.append(TriplePattern(subject, predicate, obj))
                if not self.stream.accept("op", ","):
                    break
            if self.stream.accept("op", ";"):
                token = self.stream.peek()
                # Trailing ';' is legal.
                if token.kind == "op" and token.value in (".", "}"):
                    break
                continue
            break
        self.stream.accept("op", ".")

    def _parse_pattern_term(
        self, allow_literal: bool, predicate_position: bool = False
    ) -> PatternTerm:
        token = self.stream.peek()
        if token.kind == "var":
            self.stream.next()
            return Variable(token.value[1:])
        if predicate_position and self.stream.accept("keyword", "A"):
            return RDF.type
        if token.kind == "bnode":
            self.stream.next()
            # Blank nodes in patterns behave as non-projectable variables.
            return Variable("__bnode_%s" % token.value[2:])
        term = self._try_parse_constant(allow_literal)
        if term is not None:
            return term
        raise SparqlParseError(
            "expected %s at position %d, found %r"
            % (
                "term" if allow_literal else "subject/predicate",
                token.position,
                token.value or "<eof>",
            )
        )

    def _try_parse_constant(self, allow_literal: bool = True) -> Optional[Term]:
        """An IRI or, if *allow_literal*, a literal; None before anything
        else."""
        token = self.stream.peek()
        if token.kind in ("uri", "pname"):
            return self._parse_iri()
        if not allow_literal:
            return None
        if self.stream.at_keyword("TRUE", "FALSE"):
            self.stream.next()
            return Literal(token.value == "TRUE")
        if token.kind not in ("string", "integer", "double"):
            return None
        self.stream.next()
        datatype = None
        if token.kind == "string" and self.stream.accept("op", "^"):
            self.stream.expect("op", "^")
            datatype = self._parse_iri()
        return self._read(token, datatype)

    def _parse_iri(self) -> URI:
        token = self.stream.next()
        if token.kind == "pname":
            return self.namespaces.expand(token.value)
        if token.kind != "uri":
            raise SparqlParseError(
                "expected an IRI at position %d, found %r"
                % (token.position, token.value or "<eof>")
            )
        return self._read(token)

    def _read(self, token, datatype: Optional[URI] = None) -> Term:
        """The term *token* spells (:func:`repro.rdf.terms.read_term`)."""
        try:
            return read_term(token.value, datatype)
        except ValueError as exc:
            raise SparqlParseError(
                "%s at position %d" % (exc, token.position)
            ) from None

    # -- filter expressions -----------------------------------------------

    def _parse_constraint(self) -> FilterExpr:
        token = self.stream.peek()
        if token.kind == "op" and token.value == "(":
            self.stream.next()
            expr = self._parse_expr()
            self.stream.expect("op", ")")
            return expr
        if token.kind == "keyword" and token.value in _BUILTINS:
            return self._parse_builtin()
        raise SparqlParseError(
            "FILTER needs a bracketted expression or builtin at position %d"
            % token.position
        )

    def _parse_expr(self) -> FilterExpr:
        return self._parse_or()

    def _parse_or(self) -> FilterExpr:
        left = self._parse_and()
        while self.stream.accept("op", "||"):
            left = BooleanExpr("or", left, self._parse_and())
        return left

    def _parse_and(self) -> FilterExpr:
        left = self._parse_unary_not()
        while self.stream.accept("op", "&&"):
            left = BooleanExpr("and", left, self._parse_unary_not())
        return left

    def _parse_unary_not(self) -> FilterExpr:
        if self.stream.accept("op", "!"):
            return NotExpr(self._parse_unary_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> FilterExpr:
        left = self._parse_additive()
        token = self.stream.peek()
        if token.kind == "op" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self.stream.next()
            return Comparison(token.value, left, self._parse_additive())
        negated = False
        if self.stream.at_keyword("NOT"):
            self.stream.next()
            negated = True
        if self.stream.accept("keyword", "IN"):
            self.stream.expect("op", "(")
            options = [self._parse_additive()]
            while self.stream.accept("op", ","):
                options.append(self._parse_additive())
            self.stream.expect("op", ")")
            return InExpr(left, tuple(options), negated)
        if negated:
            raise SparqlParseError("NOT must be followed by IN")
        return left

    def _parse_additive(self) -> FilterExpr:
        left = self._parse_multiplicative()
        while True:
            token = self.stream.peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self.stream.next()
                left = Arithmetic(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> FilterExpr:
        left = self._parse_primary()
        while True:
            token = self.stream.peek()
            if token.kind == "op" and token.value in ("*", "/"):
                self.stream.next()
                left = Arithmetic(token.value, left, self._parse_primary())
            else:
                return left

    def _parse_primary(self) -> FilterExpr:
        token = self.stream.peek()
        if token.kind == "op" and token.value == "(":
            self.stream.next()
            expr = self._parse_expr()
            self.stream.expect("op", ")")
            return expr
        if token.kind == "var":
            self.stream.next()
            return VarExpr(Variable(token.value[1:]))
        if token.kind == "keyword" and token.value in _BUILTINS:
            return self._parse_builtin()
        term = self._try_parse_constant()
        if term is not None:
            return TermExpr(term)
        raise SparqlParseError(
            "unexpected token %r in expression at position %d"
            % (token.value or "<eof>", token.position)
        )

    def _parse_builtin(self) -> FunctionCall:
        name = self.stream.next().value
        self.stream.expect("op", "(")
        args: List[FilterExpr] = []
        if not self.stream.accept("op", ")"):
            args.append(self._parse_expr())
            while self.stream.accept("op", ","):
                args.append(self._parse_expr())
            self.stream.expect("op", ")")
        arity = {
            "REGEX": (2, 3), "BOUND": (1, 1), "ISIRI": (1, 1),
            "ISURI": (1, 1), "ISLITERAL": (1, 1), "ISBLANK": (1, 1),
            "STR": (1, 1), "LANG": (1, 1), "DATATYPE": (1, 1),
        }[name]
        if not arity[0] <= len(args) <= arity[1]:
            raise SparqlParseError(
                "%s takes %d..%d arguments, got %d"
                % (name, arity[0], arity[1], len(args))
            )
        return FunctionCall(name, tuple(args))
