"""Physical execution: lowers an optimized logical plan onto DataFrames."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.spark.column import (
    Alias,
    BinaryOp,
    ColumnRef,
    Expression,
    conjoin,
    split_conjuncts,
)
from repro.spark.dataframe import DataFrame
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
from repro.spark.sql.catalyst import _matches, estimated_rows


class SqlAnalysisError(ValueError):
    """Raised when a name cannot be resolved against the plan's schema."""


def resolve_name(name: str, available: List[str]) -> str:
    """Resolve a (possibly qualified) reference to one output column."""
    hits = _matches(available, name)
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise SqlAnalysisError(
            "cannot resolve column %r; available: %r" % (name, available)
        )
    raise SqlAnalysisError(
        "ambiguous column %r; candidates: %r" % (name, hits)
    )


def resolve_expr(expr: Expression, available: List[str]) -> Expression:
    """Rewrite ColumnRefs in *expr* to exact output-column names."""
    if isinstance(expr, ColumnRef):
        return ColumnRef(resolve_name(expr.name, available))
    return expr.map_children(resolve_expr, available)


def _split_join_condition(
    condition: Optional[Expression],
    left_columns: List[str],
    right_columns: List[str],
) -> Tuple[List[Tuple[Expression, Expression]], Optional[Expression]]:
    """Separate equi-join pairs from residual predicates.

    Returns (pairs, residual) where each pair is (left-side expression,
    right-side expression) already resolved against its input.
    """
    if condition is None:
        return [], None
    pairs: List[Tuple[Expression, Expression]] = []
    residual: List[Expression] = []
    for conjunct in split_conjuncts(condition):
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            sides = (conjunct.left, conjunct.right)
            resolved = None
            for a, b in (sides, sides[::-1]):
                try:
                    left_resolved = resolve_expr(a, left_columns)
                    right_resolved = resolve_expr(b, right_columns)
                except SqlAnalysisError:
                    continue
                resolved = (left_resolved, right_resolved)
                break
            if resolved is not None:
                pairs.append(resolved)
                continue
        residual.append(conjunct)
    return pairs, conjoin(residual)


def _plan_attrs(plan: LogicalPlan) -> Dict[str, object]:
    """Small, JSON-safe span attributes describing one plan node."""
    if isinstance(plan, Scan):
        attrs: Dict[str, object] = {"table": plan.table}
        if plan.alias:
            attrs["alias"] = plan.alias
        return attrs
    if isinstance(plan, Join):
        return {"how": plan.how}
    if isinstance(plan, Aggregate):
        return {"group_by": list(plan.group_by)}
    if isinstance(plan, Limit):
        return {"count": plan.count, "offset": plan.offset}
    return {}


def execute(plan: LogicalPlan, session) -> DataFrame:
    """Evaluate *plan* against the session catalog.

    When the context's tracer is enabled, each plan node gets a ``sql``
    span and its output is materialized (cached and counted) inside that
    span, so the lazily charged costs land on the operator that caused
    them -- the physical-plan half of ``repro explain``.
    """
    tracer = session.ctx.tracer
    attrs: Dict[str, object] = {}
    if tracer.enabled:  # the estimate walks the plan: only for the span
        attrs = _plan_attrs(plan)
        attrs["est_rows"] = estimated_rows(plan, session)
    with tracer.span("sql", name=type(plan).__name__, **attrs):
        df = _execute_node(plan, session)
        tracer.materialize(df.rdd)
    return df


def _execute_node(plan: LogicalPlan, session) -> DataFrame:
    if isinstance(plan, Scan):
        df = session.table(plan.table)
        columns = plan.required_columns
        if columns is not None:
            df = df.select(*columns)
        prefix = plan.alias or plan.table
        renamed = df
        for column in df.columns:
            renamed = renamed.withColumnRenamed(column, "%s.%s" % (prefix, column))
        return renamed

    if isinstance(plan, Filter):
        child = execute(plan.child, session)
        condition = resolve_expr(plan.condition, child.columns)
        return child.where(condition)

    if isinstance(plan, Join):
        return _execute_join(plan, session)

    if isinstance(plan, Project):
        child = execute(plan.child, session)
        exprs = [
            Alias(resolve_expr(expr, child.columns), name)
            for expr, name in plan.items
        ]
        return child.select(*exprs)

    if isinstance(plan, Aggregate):
        child = execute(plan.child, session)
        keys = [resolve_name(name, child.columns) for name in plan.group_by]
        specs = [
            (
                func,
                "*" if arg == "*" else resolve_name(arg, child.columns),
                alias,
            )
            for func, arg, alias in plan.aggregates
        ]
        result = child.groupBy(*keys).agg(*specs)
        # Strip qualification from group keys so downstream projections see
        # the names the query wrote.
        for original, resolved in zip(plan.group_by, keys):
            bare = original.split(".")[-1]
            if resolved != bare and bare not in result.columns:
                result = result.withColumnRenamed(resolved, bare)
        return result

    if isinstance(plan, Distinct):
        return execute(plan.child, session).distinct()

    if isinstance(plan, Sort):
        child = execute(plan.child, session)
        columns = [resolve_name(name, child.columns) for name, _asc in plan.orders]
        ascending = [asc for _name, asc in plan.orders]
        return child.orderBy(*columns, ascending=ascending)

    if isinstance(plan, Limit):
        child = execute(plan.child, session)
        rows = child.rdd.take(plan.offset + plan.count)[plan.offset :]
        return DataFrame(
            session, session.ctx.parallelize(rows, 1), child.columns
        )

    if isinstance(plan, Union):
        left = execute(plan.left, session)
        right = execute(plan.right, session)
        merged = left.union(
            DataFrame(session, right.rdd, left.columns)
        )
        return merged.distinct() if plan.dedup else merged

    raise TypeError("cannot execute plan node %r" % plan)


def _execute_join(plan: Join, session) -> DataFrame:
    left = execute(plan.left, session)
    right = execute(plan.right, session)
    pairs, residual = _split_join_condition(
        plan.condition, left.columns, right.columns
    )

    if not pairs:
        # No equi component: fall back to a cartesian product plus filter --
        # the very inefficiency Section IV-A3 calls out for naive SQL
        # translations of multi-pattern queries.
        result = left.crossJoin(right)
        if residual is not None:
            result = result.where(resolve_expr(residual, result.columns))
        elif plan.how not in ("cross", "inner"):
            raise SqlAnalysisError(
                "outer join without an equi condition is unsupported"
            )
        return result

    key_names = []
    for index, (left_expr, right_expr) in enumerate(pairs):
        key = "__jk%d" % index
        key_names.append(key)
        left = left.withColumn(key, left_expr)
        right = right.withColumn(key, right_expr)
    joined = left.join(right, on=key_names, how=plan.how)
    if residual is not None:
        joined = joined.where(resolve_expr(residual, joined.columns))
    return joined.drop(*key_names)
