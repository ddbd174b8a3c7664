"""Logical query plan nodes produced by the SQL parser.

The plan is a tree of relational operators; the Catalyst-style optimizer in
:mod:`repro.spark.sql.catalyst` rewrites it, and
:mod:`repro.spark.sql.executor` lowers it onto DataFrames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.spark.column import Expression, TreeNode


class LogicalPlan(TreeNode):
    """Base class for plan nodes; ``child_fields`` names a node's inputs."""

    def pretty(self, indent: int = 0) -> str:
        """Indented tree rendering, for tests and EXPLAIN output."""
        pad = "  " * indent
        lines = [pad + self._describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__


@dataclass
class Scan(LogicalPlan):
    """Read a catalog table, optionally under an alias.

    ``required_columns`` is filled in by projection pruning: ``None`` means
    all columns.
    """

    table: str
    alias: Optional[str] = None
    required_columns: Optional[List[str]] = None

    def _describe(self) -> str:
        alias = " AS %s" % self.alias if self.alias else ""
        cols = (
            " [%s]" % ", ".join(self.required_columns)
            if self.required_columns is not None
            else ""
        )
        return "Scan(%s%s)%s" % (self.table, alias, cols)


@dataclass
class Filter(LogicalPlan):
    condition: Expression
    child: LogicalPlan

    child_fields = ("child",)

    def _describe(self) -> str:
        return "Filter(%r)" % self.condition


@dataclass
class Join(LogicalPlan):
    """Binary join; *condition* ``None`` means a cross join."""

    left: LogicalPlan
    right: LogicalPlan
    condition: Optional[Expression]
    how: str = "inner"  # inner | left | right | outer | cross

    child_fields = ("left", "right")

    def _describe(self) -> str:
        return "Join(%s, on=%r)" % (self.how, self.condition)


@dataclass
class Project(LogicalPlan):
    """Projection; each item is (expression, output name)."""

    items: List[Tuple[Expression, str]]
    child: LogicalPlan

    child_fields = ("child",)

    def _describe(self) -> str:
        return "Project(%s)" % ", ".join(name for _e, name in self.items)


@dataclass
class Aggregate(LogicalPlan):
    """Grouped aggregation.

    *aggregates* holds (function name, argument column or "*", output name).
    """

    group_by: List[str]
    aggregates: List[Tuple[str, str, str]]
    child: LogicalPlan

    child_fields = ("child",)

    def _describe(self) -> str:
        return "Aggregate(keys=%r, aggs=%r)" % (self.group_by, self.aggregates)


@dataclass
class Distinct(LogicalPlan):
    child: LogicalPlan

    child_fields = ("child",)


@dataclass
class Sort(LogicalPlan):
    """ORDER BY; *orders* holds (column name, ascending)."""

    orders: List[Tuple[str, bool]]
    child: LogicalPlan

    child_fields = ("child",)

    def _describe(self) -> str:
        return "Sort(%r)" % (self.orders,)


@dataclass
class Limit(LogicalPlan):
    count: int
    offset: int
    child: LogicalPlan

    child_fields = ("child",)

    def _describe(self) -> str:
        return "Limit(%d, offset=%d)" % (self.count, self.offset)


@dataclass
class Union(LogicalPlan):
    """UNION (dedup=True) or UNION ALL (dedup=False)."""

    left: LogicalPlan
    right: LogicalPlan
    dedup: bool = False

    child_fields = ("left", "right")

    def _describe(self) -> str:
        return "Union(%s)" % ("DISTINCT" if self.dedup else "ALL")
