"""Tests for the SPARQL tokenizer and parser."""

import pytest

from repro.rdf.terms import Literal, URI
from repro.rdf.vocab import RDF
from repro.sparql.ast import (
    AskQuery,
    Comparison,
    FilterPattern,
    FunctionCall,
    OptionalPattern,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    Variable,
)
from repro.sparql.parser import parse_sparql
from repro.sparql.tokenizer import SparqlParseError, tokenize

EX = "PREFIX ex: <http://x/>\n"


class TestTokenizer:
    def test_variables(self):
        tokens = tokenize("?x $y")
        assert [t.kind for t in tokens[:-1]] == ["var", "var"]

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select WHERE Filter")
        assert all(t.kind == "keyword" for t in tokens[:-1])

    def test_uri_and_pname(self):
        tokens = tokenize("<http://x/a> ex:b")
        assert tokens[0].kind == "uri" and tokens[1].kind == "pname"

    def test_strings_both_quotes(self):
        tokens = tokenize("\"double\" 'single'")
        assert [t.kind for t in tokens[:-1]] == ["string", "string"]

    def test_numbers(self):
        tokens = tokenize("42 -1 3.14")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == ["integer", "integer", "double"]

    @pytest.mark.parametrize(
        "text", ["1e5", "1E-5", "+2e3", ".5", "-.5", ".5e2", "1.e3", "2.5e0"]
    )
    def test_every_grammar_numeral_is_one_token(self, text):
        # DOUBLE without a dot ([0-9]+ EXPONENT), with a trailing dot
        # ([0-9]+ '.' [0-9]* EXPONENT), DECIMAL with a leading dot.
        tokens = tokenize(text)
        assert [(t.kind, t.value) for t in tokens[:-1]] == [("double", text)]
        query = parse_sparql("SELECT ?s WHERE { ?s <http://x/p> %s }" % text)
        assert query.where.triple_patterns()[0].object == Literal(float(text))

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("?o . ?x", [("var", "?o"), ("op", "."), ("var", "?x")]),
            ("?o.?x", [("var", "?o"), ("op", "."), ("var", "?x")]),
            ("5 .", [("integer", "5"), ("op", ".")]),
            ("5.}", [("integer", "5"), ("op", "."), ("op", "}")]),
            ("5.5.", [("double", "5.5"), ("op", ".")]),
        ],
    )
    def test_a_dot_that_ends_a_triple_stays_an_operator(self, text, expected):
        assert [(t.kind, t.value) for t in tokenize(text)[:-1]] == expected

    def test_comments_skipped(self):
        tokens = tokenize("?x # trailing comment\n?y")
        assert len(tokens) == 3  # two vars + eof

    def test_operators(self):
        values = [t.value for t in tokenize("<= >= != && || !")[:-1]]
        assert values == ["<=", ">=", "!=", "&&", "||", "!"]

    def test_unknown_bare_word_raises(self):
        with pytest.raises(SparqlParseError):
            tokenize("SELECT banana")


class TestSelectParsing:
    def test_basic(self):
        query = parse_sparql(EX + "SELECT ?s WHERE { ?s ex:p ?o }")
        assert isinstance(query, SelectQuery)
        assert query.variables == [Variable("s")]
        patterns = query.where.triple_patterns()
        assert patterns == [
            TriplePattern(Variable("s"), URI("http://x/p"), Variable("o"))
        ]

    def test_select_star(self):
        query = parse_sparql(EX + "SELECT * WHERE { ?s ex:p ?o }")
        assert query.variables is None
        assert query.projected() == [Variable("s"), Variable("o")]

    def test_where_keyword_optional(self):
        query = parse_sparql(EX + "SELECT ?s { ?s ex:p ?o }")
        assert len(query.where.triple_patterns()) == 1

    def test_distinct(self):
        query = parse_sparql(EX + "SELECT DISTINCT ?s WHERE { ?s ex:p ?o }")
        assert query.distinct

    def test_semicolon_comma_shorthand(self):
        query = parse_sparql(
            EX + "SELECT * WHERE { ?s ex:p ?a, ?b ; ex:q ?c . }"
        )
        assert len(query.where.triple_patterns()) == 3

    def test_a_keyword_is_rdf_type(self):
        query = parse_sparql(EX + "SELECT ?s WHERE { ?s a ex:Person }")
        assert query.where.triple_patterns()[0].predicate == RDF.type

    def test_literals_in_object(self):
        query = parse_sparql(
            EX + 'SELECT * WHERE { ?s ex:p 5 . ?s ex:q "txt" . ?s ex:r true }'
        )
        objects = [p.object for p in query.where.triple_patterns()]
        assert objects == [Literal(5), Literal("txt"), Literal(True)]

    def test_typed_literal(self):
        query = parse_sparql(
            'PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n'
            'PREFIX ex: <http://x/>\n'
            'SELECT * WHERE { ?s ex:p "5"^^xsd:integer }'
        )
        assert query.where.triple_patterns()[0].object.to_python() == 5

    def test_lang_literal(self):
        query = parse_sparql(EX + 'SELECT * WHERE { ?s ex:p "hi"@en }')
        assert query.where.triple_patterns()[0].object.language == "en"

    def test_blank_node_becomes_internal_variable(self):
        query = parse_sparql(EX + "SELECT ?s WHERE { ?s ex:p _:b }")
        obj = query.where.triple_patterns()[0].object
        assert isinstance(obj, Variable) and obj.name.startswith("__bnode_")

    def test_bnode_not_projected_by_star(self):
        query = parse_sparql(EX + "SELECT * WHERE { ?s ex:p _:b }")
        assert query.projected() == [Variable("s")]

    def test_order_by_forms(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { ?s ex:p ?o } ORDER BY ?o DESC(?s) ASC(?o)"
        )
        assert query.order_by == [
            (Variable("o"), True),
            (Variable("s"), False),
            (Variable("o"), True),
        ]

    def test_limit_offset_any_order(self):
        q1 = parse_sparql(EX + "SELECT ?s WHERE { ?s ex:p ?o } LIMIT 5 OFFSET 2")
        q2 = parse_sparql(EX + "SELECT ?s WHERE { ?s ex:p ?o } OFFSET 2 LIMIT 5")
        assert (q1.limit, q1.offset) == (5, 2)
        assert (q2.limit, q2.offset) == (5, 2)

    @pytest.mark.parametrize("form", ["SELECT ?s", "CONSTRUCT { ?s ex:p ?o }"])
    @pytest.mark.parametrize(
        "paging", ["LIMIT -1", "OFFSET -3", "LIMIT +2", "LIMIT 5 OFFSET -1"]
    )
    def test_a_signed_limit_or_offset_is_a_parse_error(self, form, paging):
        # The grammar's LIMIT and OFFSET take an unsigned INTEGER; a
        # negative one used to slice the answer from its end.
        with pytest.raises(SparqlParseError, match="unsigned integer"):
            parse_sparql(EX + "%s WHERE { ?s ex:p ?o } %s" % (form, paging))

    @pytest.mark.parametrize(
        "tail", ["?s ex:p ?o } LIMIT \u0663", "?s ex:p \u0663 }", "?s ex:p 1.\u0665 }"]
    )
    def test_a_non_ascii_digit_is_a_parse_error(self, tail):
        # The grammar's digits are [0-9]; Arabic-Indic digits used to lex
        # as numerals (LIMIT \u0663 read as LIMIT 3).
        with pytest.raises(SparqlParseError, match="cannot lex"):
            parse_sparql(EX + "SELECT ?s WHERE { " + tail)

    def test_ask(self):
        query = parse_sparql(EX + "ASK { ex:a ex:p ex:b }")
        assert isinstance(query, AskQuery)

    def test_missing_form_raises(self):
        with pytest.raises(SparqlParseError):
            parse_sparql(EX + "{ ?s ex:p ?o }")

    def test_unterminated_group_raises(self):
        with pytest.raises(SparqlParseError):
            parse_sparql(EX + "SELECT ?s WHERE { ?s ex:p ?o")

    def test_empty_select_raises(self):
        with pytest.raises(SparqlParseError):
            parse_sparql(EX + "SELECT WHERE { ?s ex:p ?o }")


class TestGroupStructures:
    def test_filter(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a > 5) }"
        )
        filters = query.where.filters()
        assert len(filters) == 1
        assert isinstance(filters[0].expression, Comparison)

    def test_filter_builtin_without_parens(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER REGEX(?o, 'x') }"
        )
        assert isinstance(query.where.filters()[0].expression, FunctionCall)

    def test_optional(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { ?s ex:p ?o . OPTIONAL { ?s ex:q ?r } }"
        )
        optionals = [
            e for e in query.where.elements if isinstance(e, OptionalPattern)
        ]
        assert len(optionals) == 1
        assert len(optionals[0].pattern.triple_patterns()) == 1

    def test_union(self):
        query = parse_sparql(
            EX
            + "SELECT ?s WHERE { { ?s a ex:A } UNION { ?s a ex:B } UNION { ?s a ex:C } }"
        )
        unions = [
            e for e in query.where.elements if isinstance(e, UnionPattern)
        ]
        assert len(unions) == 1
        assert len(unions[0].alternatives) == 3

    def test_nested_group(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { { ?s ex:p ?o } ?s ex:q ?r }"
        )
        assert len(query.where.triple_patterns()) == 2

    def test_complex_filter_expression(self):
        query = parse_sparql(
            EX
            + "SELECT ?s WHERE { ?s ex:age ?a . "
            "FILTER(?a > 5 && (?a < 10 || ?a = 42) && !BOUND(?s)) }"
        )
        assert query.where.filters()

    def test_filter_in_list(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o IN (1, 2, 3)) }"
        )
        assert query.where.filters()

    def test_filter_not_in(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o NOT IN (1)) }"
        )
        assert query.where.filters()

    def test_arithmetic_in_filter(self):
        query = parse_sparql(
            EX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o * 2 + 1 > 7) }"
        )
        assert query.where.filters()

    def test_builtin_arity_checked(self):
        with pytest.raises(SparqlParseError):
            parse_sparql(EX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER BOUND() }")
