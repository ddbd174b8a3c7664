"""FILTER expression evaluation with SPARQL error semantics.

Type errors (comparing a URI with ``<``, arithmetic on strings, unbound
variables outside BOUND) raise :class:`FilterEvalError`; a FILTER whose
constraint errors rejects the solution, per the SPARQL specification.
"""

from __future__ import annotations

import re
from typing import Union

from repro.rdf.terms import BNode, Literal, Term, URI
from repro.sparql.ast import (
    Arithmetic,
    BooleanExpr,
    Comparison,
    FilterExpr,
    FunctionCall,
    InExpr,
    NotExpr,
    TermExpr,
    VarExpr,
)
from repro.sparql.results import Solution


class FilterEvalError(Exception):
    """A SPARQL expression evaluation error ('error' in the spec)."""


def _numeric(term: Term) -> Union[int, float]:
    if isinstance(term, Literal):
        value = term.to_python()
        if isinstance(value, bool):
            raise FilterEvalError("boolean is not numeric")
        if isinstance(value, (int, float)):
            return value
    raise FilterEvalError("not a numeric literal: %r" % (term,))


def effective_boolean_value(term: Term) -> bool:
    """EBV per the spec: booleans, numbers (non-zero), strings (non-empty)."""
    if isinstance(term, Literal):
        value = term.to_python()
        if value is None:  # an ill-typed numeric
            return False
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return value != 0
        return len(term.lexical) > 0
    raise FilterEvalError("no effective boolean value for %r" % (term,))


def evaluate_expression(expr: FilterExpr, solution: Solution) -> Term:
    """Evaluate to an RDF term, raising :class:`FilterEvalError` on error."""
    if isinstance(expr, TermExpr):
        return expr.term
    if isinstance(expr, VarExpr):
        value = solution.get(expr.variable)
        if value is None:
            raise FilterEvalError("unbound variable ?%s" % expr.variable.name)
        return value
    if isinstance(expr, BooleanExpr):
        # SPARQL || and && recover from errors when the other side decides.
        left_error = right_error = False
        left = right = False
        try:
            left = effective_boolean_value(
                evaluate_expression(expr.left, solution)
            )
        except FilterEvalError:
            left_error = True
        try:
            right = effective_boolean_value(
                evaluate_expression(expr.right, solution)
            )
        except FilterEvalError:
            right_error = True
        if expr.op == "or":
            if (not left_error and left) or (not right_error and right):
                return Literal(True)
            if left_error or right_error:
                raise FilterEvalError("error in ||")
            return Literal(False)
        if (not left_error and not left) or (not right_error and not right):
            return Literal(False)
        if left_error or right_error:
            raise FilterEvalError("error in &&")
        return Literal(True)
    if isinstance(expr, NotExpr):
        value = effective_boolean_value(
            evaluate_expression(expr.child, solution)
        )
        return Literal(not value)
    if isinstance(expr, Comparison):
        return Literal(_compare(expr, solution))
    if isinstance(expr, Arithmetic):
        left = _numeric(evaluate_expression(expr.left, solution))
        right = _numeric(evaluate_expression(expr.right, solution))
        if expr.op == "+":
            return Literal(left + right)
        if expr.op == "-":
            return Literal(left - right)
        if expr.op == "*":
            return Literal(left * right)
        if right == 0:
            raise FilterEvalError("division by zero")
        return Literal(left / right)
    if isinstance(expr, InExpr):
        needle = evaluate_expression(expr.needle, solution)
        found = any(
            needle == evaluate_expression(option, solution)
            for option in expr.options
        )
        return Literal(found != expr.negated)
    if isinstance(expr, FunctionCall):
        return _call(expr, solution)
    raise FilterEvalError("unknown expression %r" % (expr,))


def _compare(expr: Comparison, solution: Solution) -> bool:
    left = evaluate_expression(expr.left, solution)
    right = evaluate_expression(expr.right, solution)
    if expr.op == "=":
        return _term_equal(left, right)
    if expr.op == "!=":
        return not _term_equal(left, right)
    # Ordering comparisons need literals of comparable kinds.
    if not isinstance(left, Literal) or not isinstance(right, Literal):
        raise FilterEvalError("cannot order non-literals")
    lv, rv = left.to_python(), right.to_python()
    if lv is None or rv is None:
        raise FilterEvalError("cannot order an ill-typed literal")
    if isinstance(lv, bool) or isinstance(rv, bool):
        raise FilterEvalError("cannot order booleans")
    numeric_left = isinstance(lv, (int, float))
    numeric_right = isinstance(rv, (int, float))
    if numeric_left != numeric_right:
        raise FilterEvalError("type mismatch in comparison")
    if expr.op == "<":
        return lv < rv
    if expr.op == "<=":
        return lv <= rv
    if expr.op == ">":
        return lv > rv
    return lv >= rv


def _term_equal(left: Term, right: Term) -> bool:
    if isinstance(left, Literal) and isinstance(right, Literal):
        # Value-based equality for numerics ("1"^^int = "1.0"^^double).
        lv, rv = left.to_python(), right.to_python()
        if isinstance(lv, (int, float)) and isinstance(rv, (int, float)) \
                and not isinstance(lv, bool) and not isinstance(rv, bool):
            return lv == rv
    return left == right


def _call(expr: FunctionCall, solution: Solution) -> Term:
    name = expr.name
    if name == "BOUND":
        arg = expr.args[0]
        if not isinstance(arg, VarExpr):
            raise FilterEvalError("BOUND takes a variable")
        return Literal(solution.get(arg.variable) is not None)
    values = [evaluate_expression(a, solution) for a in expr.args]
    if name == "REGEX":
        text = _string_value(values[0])
        pattern = _string_value(values[1])
        flags = 0
        if len(values) == 3 and "i" in _string_value(values[2]):
            flags = re.IGNORECASE
        try:
            return Literal(re.search(pattern, text, flags) is not None)
        except re.error as exc:
            # An invalid pattern is an expression error: the row fails
            # the FILTER, as any other error does.
            raise FilterEvalError("invalid REGEX pattern: %s" % exc) from exc
    if name in ("ISIRI", "ISURI"):
        return Literal(isinstance(values[0], URI))
    if name == "ISLITERAL":
        return Literal(isinstance(values[0], Literal))
    if name == "ISBLANK":
        return Literal(isinstance(values[0], BNode))
    if name == "STR":
        return Literal(_string_value(values[0]))
    if name == "LANG":
        if not isinstance(values[0], Literal):
            raise FilterEvalError("LANG takes a literal")
        return Literal(values[0].language or "")
    if name == "DATATYPE":
        if not isinstance(values[0], Literal):
            raise FilterEvalError("DATATYPE takes a literal")
        if values[0].datatype is not None:
            return values[0].datatype
        return URI("http://www.w3.org/2001/XMLSchema#string")
    raise FilterEvalError("unknown function %s" % name)


def _string_value(term: Term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, URI):
        return term.value
    raise FilterEvalError("no string value for %r" % (term,))


def passes_filter(expr: FilterExpr, solution: Solution) -> bool:
    """True when the constraint holds; errors reject the solution."""
    try:
        return effective_boolean_value(evaluate_expression(expr, solution))
    except FilterEvalError:
        return False
