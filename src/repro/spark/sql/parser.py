"""SQL parser: token stream -> logical plan."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union as TypingUnion

from repro.spark.column import (
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    LikeExpr,
    Literal,
    UnaryOp,
)
from repro.spark.sql.ast import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    Union,
)
from repro.spark.sql.lexer import SqlSyntaxError, TokenStream, tokenize

_AGG_KEYWORDS = ("COUNT", "SUM", "MIN", "MAX", "AVG")


@dataclass
class _AggregateCall:
    """A parsed aggregate function application in a select list."""

    func: str  # count | sum | min | max | avg | count_distinct
    argument: str  # column name or "*"


_SelectItem = Tuple[TypingUnion[Expression, _AggregateCall], Optional[str]]


def parse_sql(text: str) -> LogicalPlan:
    """Parse one SQL query (SELECT, optionally UNION-ed) into a plan."""
    stream = TokenStream(tokenize(text))
    plan = _parse_query(stream)
    stream.expect("eof")
    return plan


def _parse_query(stream: TokenStream) -> LogicalPlan:
    plan = _parse_select(stream)
    while stream.at_keyword("UNION"):
        stream.next()
        dedup = not stream.accept("keyword", "ALL")
        right = _parse_select(stream)
        plan = Union(plan, right, dedup=dedup)
        if dedup:
            plan = Distinct(plan)
    return plan


def _parse_select(stream: TokenStream) -> LogicalPlan:
    stream.expect("keyword", "SELECT")
    distinct = stream.accept("keyword", "DISTINCT")
    items = _parse_select_list(stream)

    stream.expect("keyword", "FROM")
    plan = _parse_table_ref(stream)
    while stream.at_keyword(
        "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS"
    ):
        plan = _parse_join(stream, plan)

    if stream.accept("keyword", "WHERE"):
        plan = Filter(_parse_expr(stream), plan)

    group_by: List[str] = []
    if stream.accept("keyword", "GROUP"):
        stream.expect("keyword", "BY")
        group_by.append(stream.expect("ident").value)
        while stream.accept("op", ","):
            group_by.append(stream.expect("ident").value)

    plan = _apply_select_items(plan, items, group_by)

    if stream.accept("keyword", "HAVING"):
        if not group_by and not isinstance(plan, Project):
            raise SqlSyntaxError("HAVING requires GROUP BY")
        # HAVING filters the aggregated (projected) rows.
        plan = Filter(_parse_expr(stream), plan)

    if distinct:
        plan = Distinct(plan)

    if stream.accept("keyword", "ORDER"):
        stream.expect("keyword", "BY")
        orders: List[Tuple[str, bool]] = []
        while True:
            name = stream.expect("ident").value
            ascending = True
            if stream.accept("keyword", "DESC"):
                ascending = False
            else:
                stream.accept("keyword", "ASC")
            orders.append((name, ascending))
            if not stream.accept("op", ","):
                break
        plan = Sort(orders, plan)

    if stream.accept("keyword", "LIMIT"):
        count = int(stream.expect("number").value)
        offset = 0
        if stream.accept("keyword", "OFFSET"):
            offset = int(stream.expect("number").value)
        plan = Limit(count, offset, plan)

    return plan


def _parse_select_list(stream: TokenStream) -> Optional[List[_SelectItem]]:
    """Returns None for ``SELECT *``."""
    if stream.accept("op", "*"):
        return None
    items: List[_SelectItem] = []
    while True:
        item = _parse_select_item(stream)
        items.append(item)
        if not stream.accept("op", ","):
            break
    return items


def _parse_select_item(stream: TokenStream) -> _SelectItem:
    if stream.at_keyword(*_AGG_KEYWORDS):
        call = _parse_aggregate(stream)
        alias = _parse_alias(stream)
        return call, alias
    expr = _parse_expr(stream)
    alias = _parse_alias(stream)
    return expr, alias


def _parse_alias(stream: TokenStream) -> Optional[str]:
    if stream.accept("keyword", "AS"):
        return stream.expect("ident").value
    if stream.peek().kind == "ident" and not stream.at_keyword():
        # Bare alias: `SELECT x name FROM ...` -- allowed, like SQL.
        return stream.next().value
    return None


def _parse_aggregate(stream: TokenStream) -> _AggregateCall:
    func = stream.next().value.lower()
    stream.expect("op", "(")
    if stream.accept("op", "*"):
        argument = "*"
    else:
        if stream.accept("keyword", "DISTINCT"):
            if func != "count":
                raise SqlSyntaxError("DISTINCT only supported inside COUNT")
            func = "count_distinct"
        argument = stream.expect("ident").value
    stream.expect("op", ")")
    return _AggregateCall(func, argument)


def _parse_table_ref(stream: TokenStream) -> Scan:
    table = stream.expect("ident").value
    alias = None
    if stream.accept("keyword", "AS"):
        alias = stream.expect("ident").value
    elif stream.peek().kind == "ident":
        alias = stream.next().value
    return Scan(table, alias)


def _parse_join(stream: TokenStream, left: LogicalPlan) -> LogicalPlan:
    how = "inner"
    if stream.accept("keyword", "INNER"):
        how = "inner"
    elif stream.accept("keyword", "LEFT"):
        stream.accept("keyword", "OUTER")
        how = "left"
    elif stream.accept("keyword", "RIGHT"):
        stream.accept("keyword", "OUTER")
        how = "right"
    elif stream.accept("keyword", "FULL"):
        stream.accept("keyword", "OUTER")
        how = "outer"
    elif stream.accept("keyword", "CROSS"):
        how = "cross"
    stream.expect("keyword", "JOIN")
    right = _parse_table_ref(stream)
    condition = None
    if stream.accept("keyword", "ON"):
        condition = _parse_expr(stream)
    elif how != "cross":
        raise SqlSyntaxError("non-cross JOIN requires an ON clause")
    return Join(left, right, condition, how)


def _apply_select_items(
    plan: LogicalPlan,
    items: Optional[List[_SelectItem]],
    group_by: List[str],
) -> LogicalPlan:
    if items is None:
        if group_by:
            raise SqlSyntaxError("SELECT * cannot be combined with GROUP BY")
        return plan

    agg_specs: List[Tuple[str, str, str]] = []
    outputs: List[Tuple[Expression, str]] = []
    has_aggregate = any(isinstance(item, _AggregateCall) for item, _a in items)

    if has_aggregate or group_by:
        for position, (item, alias) in enumerate(items):
            if isinstance(item, _AggregateCall):
                name = alias or "%s_%s" % (
                    item.func,
                    item.argument if item.argument != "*" else "all",
                )
                agg_specs.append((item.func, item.argument, name))
                outputs.append((ColumnRef(name), name))
            elif isinstance(item, ColumnRef):
                bare = item.name.split(".")[-1]
                if item.name not in group_by and bare not in {
                    g.split(".")[-1] for g in group_by
                }:
                    raise SqlSyntaxError(
                        "column %r must appear in GROUP BY" % item.name
                    )
                outputs.append((item, alias or bare))
            else:
                raise SqlSyntaxError(
                    "select item %d must be a column or aggregate when "
                    "grouping" % position
                )
        plan = Aggregate(group_by, agg_specs, plan)
        return Project(outputs, plan)

    for position, (item, alias) in enumerate(items):
        assert isinstance(item, Expression)
        if alias is None:
            alias = (
                item.name.split(".")[-1]
                if isinstance(item, ColumnRef)
                else "_c%d" % position
            )
        outputs.append((item, alias))
    return Project(outputs, plan)


# ----------------------------------------------------------------------
# Expressions (precedence climbing)
# ----------------------------------------------------------------------


def _parse_expr(stream: TokenStream) -> Expression:
    return _parse_or(stream)


def _parse_or(stream: TokenStream) -> Expression:
    left = _parse_and(stream)
    while stream.accept("keyword", "OR"):
        left = BinaryOp("or", left, _parse_and(stream))
    return left


def _parse_and(stream: TokenStream) -> Expression:
    left = _parse_not(stream)
    while stream.accept("keyword", "AND"):
        left = BinaryOp("and", left, _parse_not(stream))
    return left


def _parse_not(stream: TokenStream) -> Expression:
    if stream.accept("keyword", "NOT"):
        return UnaryOp("not", _parse_not(stream))
    return _parse_comparison(stream)


_COMPARISON_OPS = {"=": "=", "!=": "!=", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _parse_comparison(stream: TokenStream) -> Expression:
    left = _parse_additive(stream)
    token = stream.peek()
    if token.kind == "op" and token.value in _COMPARISON_OPS:
        stream.next()
        right = _parse_additive(stream)
        return BinaryOp(_COMPARISON_OPS[token.value], left, right)
    if stream.accept("keyword", "IS"):
        negate = stream.accept("keyword", "NOT")
        stream.expect("keyword", "NULL")
        op = "isnotnull" if negate else "isnull"
        return UnaryOp(op, left)
    negate = False
    if stream.at_keyword("NOT"):
        negate = True
        stream.next()
    if stream.accept("keyword", "BETWEEN"):
        low = _parse_additive(stream)
        stream.expect("keyword", "AND")
        high = _parse_additive(stream)
        expr: Expression = BinaryOp(
            "and",
            BinaryOp(">=", left, low),
            BinaryOp("<=", left, high),
        )
        if negate:
            expr = UnaryOp("not", expr)
        return expr
    if stream.accept("keyword", "LIKE"):
        pattern_token = stream.expect("string")
        expr = LikeExpr(left, pattern_token.value)
        if negate:
            expr = UnaryOp("not", expr)
        return expr
    if stream.accept("keyword", "IN"):
        stream.expect("op", "(")
        options = [_parse_additive(stream)]
        while stream.accept("op", ","):
            options.append(_parse_additive(stream))
        stream.expect("op", ")")
        expr: Expression = InList(left, options)
        if negate:
            expr = UnaryOp("not", expr)
        return expr
    if negate:
        raise SqlSyntaxError("dangling NOT at position %d" % stream.peek().position)
    return left


def _parse_additive(stream: TokenStream) -> Expression:
    left = _parse_multiplicative(stream)
    while True:
        token = stream.peek()
        if token.kind == "op" and token.value in ("+", "-"):
            stream.next()
            left = BinaryOp(token.value, left, _parse_multiplicative(stream))
        else:
            return left


def _parse_multiplicative(stream: TokenStream) -> Expression:
    left = _parse_primary(stream)
    while True:
        token = stream.peek()
        if token.kind == "op" and token.value in ("*", "/"):
            stream.next()
            left = BinaryOp(token.value, left, _parse_primary(stream))
        else:
            return left


def _parse_primary(stream: TokenStream) -> Expression:
    token = stream.peek()
    if token.kind == "number":
        stream.next()
        value = float(token.value) if "." in token.value else int(token.value)
        return Literal(value)
    if token.kind == "string":
        stream.next()
        return Literal(token.value)
    if stream.accept("keyword", "TRUE"):
        return Literal(True)
    if stream.accept("keyword", "FALSE"):
        return Literal(False)
    if stream.accept("keyword", "NULL"):
        return Literal(None)
    if token.kind == "ident":
        stream.next()
        return ColumnRef(token.value)
    if stream.accept("op", "("):
        expr = _parse_expr(stream)
        stream.expect("op", ")")
        return expr
    if stream.accept("op", "-"):
        return UnaryOp("neg", _parse_primary(stream))
    raise SqlSyntaxError(
        "unexpected token %r at position %d" % (token.value, token.position)
    )
