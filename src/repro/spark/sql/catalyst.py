"""Catalyst: the rule-based logical-plan optimizer.

Implements the optimizations the paper attributes to Spark SQL's Catalyst
(Section III): constant folding, predicate pushdown through joins,
projection pruning into scans, and a size-based choice of join build side
(which downstream becomes the broadcast side).

A rule names the node types it changes and leaves every other node to
``map_children``; what a node type *is* -- its columns, its size -- is said
in :func:`output_columns` and :func:`estimated_rows`.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.spark.column import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    UnaryOp,
    conjoin,
    split_conjuncts,
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


class Catalog:
    """What the optimizer needs to know about tables.

    Implemented by :class:`repro.spark.sql.session.SparkSession`.
    """

    def table_columns(self, name: str) -> List[str]:
        raise NotImplementedError

    def table_rows(self, name: str) -> int:
        raise NotImplementedError


def output_columns(plan: LogicalPlan, catalog: Catalog) -> List[str]:
    """The (qualified) column names *plan* produces."""
    if isinstance(plan, Scan):
        prefix = plan.alias or plan.table
        columns = plan.required_columns
        if columns is None:
            columns = catalog.table_columns(plan.table)
        return ["%s.%s" % (prefix, c) for c in columns]
    if isinstance(plan, (Filter, Distinct, Sort, Limit)):
        return output_columns(plan.child, catalog)
    if isinstance(plan, Join):
        return output_columns(plan.left, catalog) + output_columns(
            plan.right, catalog
        )
    if isinstance(plan, Project):
        return [name for _expr, name in plan.items]
    if isinstance(plan, Aggregate):
        return list(plan.group_by) + [name for _f, _a, name in plan.aggregates]
    if isinstance(plan, Union):
        return output_columns(plan.left, catalog)
    raise TypeError("unknown plan node %r" % plan)


def _matches(available: List[str], name: str) -> List[str]:
    """Columns in *available* a reference *name* could resolve to."""
    if name in available:
        return [name]
    hits = [c for c in available if c.endswith("." + name)]
    if hits:
        return hits
    # Bare name against qualified columns.
    if "." not in name:
        return [c for c in available if c.split(".")[-1] == name]
    # Qualified name against bare columns (e.g. after an aggregate strips
    # qualification from its group keys).
    last = name.split(".")[-1]
    return [c for c in available if "." not in c and c == last]


def references_resolve_in(
    refs: FrozenSet[str], available: List[str]
) -> bool:
    """True when every reference has at least one candidate in *available*."""
    return all(_matches(available, ref) for ref in refs)


# ----------------------------------------------------------------------
# Rule: constant folding
# ----------------------------------------------------------------------


def fold_constants(expr: Expression) -> Expression:
    """Collapse operator applications over literals into literals."""
    expr = expr.map_children(fold_constants)
    if isinstance(expr, UnaryOp) and isinstance(expr.child, Literal):
        return Literal(expr.eval({}))
    if not isinstance(expr, BinaryOp):
        return expr
    left, right = expr.left, expr.right
    if isinstance(left, Literal) and isinstance(right, Literal):
        return Literal(expr.eval({}))
    # Boolean short-circuits with one literal side.
    if expr.op == "and":
        if isinstance(left, Literal):
            return right if left.value else Literal(False)
        if isinstance(right, Literal):
            return left if right.value else Literal(False)
    if expr.op == "or":
        if isinstance(left, Literal):
            return Literal(True) if left.value else right
        if isinstance(right, Literal):
            return Literal(True) if right.value else left
    return expr


def _fold_plan(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, Filter):
        return Filter(fold_constants(plan.condition), _fold_plan(plan.child))
    if isinstance(plan, Join) and plan.condition is not None:
        return Join(
            _fold_plan(plan.left),
            _fold_plan(plan.right),
            fold_constants(plan.condition),
            plan.how,
        )
    if isinstance(plan, Project):
        return Project(
            [(fold_constants(e), n) for e, n in plan.items],
            _fold_plan(plan.child),
        )
    return plan.map_children(_fold_plan)


# ----------------------------------------------------------------------
# Rule: predicate pushdown
# ----------------------------------------------------------------------


def _push_filters(plan: LogicalPlan, catalog: Catalog) -> LogicalPlan:
    plan = plan.map_children(_push_filters, catalog)
    if not isinstance(plan, Filter):
        return plan
    child = plan.child
    if not (isinstance(child, Join) and child.how in ("inner", "cross")):
        return plan
    left_cols = output_columns(child.left, catalog)
    right_cols = output_columns(child.right, catalog)
    to_left: List[Expression] = []
    to_right: List[Expression] = []
    to_join: List[Expression] = []
    remainder: List[Expression] = []
    for conjunct in split_conjuncts(plan.condition):
        refs = conjunct.references()
        if refs and references_resolve_in(refs, left_cols) and not any(
            _matches(right_cols, r) for r in refs
        ):
            to_left.append(conjunct)
        elif refs and references_resolve_in(refs, right_cols) and not any(
            _matches(left_cols, r) for r in refs
        ):
            to_right.append(conjunct)
        elif references_resolve_in(refs, left_cols + right_cols):
            to_join.append(conjunct)
        else:
            remainder.append(conjunct)
    new_left = child.left
    new_right = child.right
    if to_left:
        new_left = Filter(conjoin(to_left), new_left)
    if to_right:
        new_right = Filter(conjoin(to_right), new_right)
    join_condition = child.condition
    if to_join:
        extra = conjoin(to_join)
        join_condition = (
            extra
            if join_condition is None
            else BinaryOp("and", join_condition, extra)
        )
    how = "inner" if (child.how == "cross" and join_condition) else child.how
    new_join = Join(
        _push_filters(new_left, catalog),
        _push_filters(new_right, catalog),
        join_condition,
        how,
    )
    if remainder:
        return Filter(conjoin(remainder), new_join)
    return new_join


# ----------------------------------------------------------------------
# Rule: projection pruning
# ----------------------------------------------------------------------


def _prune_columns(
    plan: LogicalPlan, required: Optional[FrozenSet[str]], catalog: Catalog
) -> LogicalPlan:
    """Push the set of needed (possibly qualified) names down to scans.

    ``required`` of None means "everything" (e.g. under SELECT *).  A node
    that reads its input by name adds what it reads; any other node hands
    ``required`` on as it got it.
    """
    if isinstance(plan, Scan):
        if required is None:
            return plan
        prefix = plan.alias or plan.table
        all_columns = catalog.table_columns(plan.table)
        keep = [
            column
            for column in all_columns
            if any(
                _matches(["%s.%s" % (prefix, column)], name) for name in required
            )
        ]
        return Scan(plan.table, plan.alias, keep)
    needed = required
    if isinstance(plan, Project):
        needed = frozenset()
        for expr, _name in plan.items:
            needed |= expr.references()
    elif isinstance(plan, Aggregate):
        needed = frozenset(plan.group_by) | frozenset(
            arg for _f, arg, _n in plan.aggregates if arg != "*"
        )
    elif isinstance(plan, Union):
        needed = None
    elif required is not None:
        if isinstance(plan, (Filter, Join)) and plan.condition is not None:
            needed = required | plan.condition.references()
        elif isinstance(plan, Sort):
            needed = required | frozenset(name for name, _asc in plan.orders)
    return plan.map_children(_prune_columns, needed, catalog)


# ----------------------------------------------------------------------
# Rule: build-side selection (size-based)
# ----------------------------------------------------------------------


def estimated_rows(plan: LogicalPlan, catalog: Catalog) -> int:
    """Crude cardinality estimate driving build-side selection."""
    if isinstance(plan, Scan):
        return catalog.table_rows(plan.table)
    if isinstance(plan, Filter):
        return max(estimated_rows(plan.child, catalog) // 3, 1)
    if isinstance(plan, Join):
        return max(estimated_rows(side, catalog) for side in plan.children())
    if isinstance(plan, (Project, Distinct, Sort)):
        return estimated_rows(plan.child, catalog)
    if isinstance(plan, Aggregate):
        return max(estimated_rows(plan.child, catalog) // 2, 1)
    if isinstance(plan, Limit):
        return plan.count
    if isinstance(plan, Union):
        return sum(estimated_rows(side, catalog) for side in plan.children())
    raise TypeError("unknown plan node %r" % plan)


def _choose_build_sides(plan: LogicalPlan, catalog: Catalog) -> LogicalPlan:
    """Put the estimated-smaller input on the right of inner joins.

    The executor broadcasts the right side when it fits under the session
    threshold, so this rule is what turns size estimates into broadcast
    joins -- the Catalyst behaviour Section IV-A3 describes.  Swapping
    moves columns; where their order shows -- at the root and in a Union's
    positional inputs -- a Project puts them back.
    """
    columns = output_columns(plan, catalog)
    plan = _swap_joins(plan, catalog)
    if output_columns(plan, catalog) == columns:
        return plan
    return Project([(ColumnRef(name), name) for name in columns], plan)


def _swap_joins(plan: LogicalPlan, catalog: Catalog) -> LogicalPlan:
    if isinstance(plan, Union):
        # Positional: each input is a root of its own, columns kept.
        return plan.map_children(_choose_build_sides, catalog)
    if not isinstance(plan, Join):
        return plan.map_children(_swap_joins, catalog)
    left = _swap_joins(plan.left, catalog)
    right = _swap_joins(plan.right, catalog)
    if plan.how == "inner" and estimated_rows(left, catalog) < estimated_rows(
        right, catalog
    ):
        left, right = right, left
    return Join(left, right, plan.condition, plan.how)


def optimize(plan: LogicalPlan, catalog: Catalog) -> LogicalPlan:
    """Run all rules in order; returns a new plan with *plan*'s columns."""
    plan = _fold_plan(plan)
    plan = _push_filters(plan, catalog)
    plan = _prune_columns(plan, None, catalog)
    return _choose_build_sides(plan, catalog)
