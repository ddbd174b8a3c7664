"""SparkSession: catalog of named tables plus the ``sql()`` entry point."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.spark.context import SparkContext
from repro.spark.dataframe import DataFrame
from repro.spark.rdd import RDD
from repro.spark.row import Row
from repro.spark.sql.catalyst import Catalog, optimize
from repro.spark.sql.executor import execute
from repro.spark.sql.parser import parse_sql


class SparkSession(Catalog):
    """Entry point for DataFrame and SQL work on the simulated cluster.

    Parameters
    ----------
    ctx:
        An existing :class:`SparkContext` -- the place to configure fault
        injection and the executor backend, which DataFrame and SQL
        execution then run under; a default one is created when omitted.
    autoBroadcastJoinThreshold:
        Build sides whose estimated size (bytes) is at or below this are
        broadcast instead of shuffled; ``None`` disables automatic
        broadcasting (Spark's ``-1``).
    """

    def __init__(
        self,
        ctx: Optional[SparkContext] = None,
        default_parallelism: int = 4,
        autoBroadcastJoinThreshold: Optional[int] = 10 * 1024,
    ) -> None:
        self.ctx = ctx or SparkContext(default_parallelism)
        self.autoBroadcastJoinThreshold = autoBroadcastJoinThreshold
        #: name -> (rdd, columns): a registered table keeps its rows, not
        #: its DataFrame, whose ``session`` would point back here and make
        #: every engine holding a session a reference cycle.
        self._tables: Dict[str, Tuple[RDD, List[str]]] = {}

    # ------------------------------------------------------------------
    # DataFrame construction
    # ------------------------------------------------------------------

    def createDataFrame(
        self,
        data: Iterable[Any],
        columns: Sequence[str],
        num_partitions: Optional[int] = None,
    ) -> DataFrame:
        """Build a DataFrame from rows (tuples, lists, dicts or Rows)."""
        normalized: List[tuple] = []
        for record in data:
            if isinstance(record, Row):
                normalized.append(tuple(record[c] for c in columns))
            elif isinstance(record, dict):
                normalized.append(tuple(record.get(c) for c in columns))
            else:
                values = tuple(record)
                if len(values) != len(columns):
                    raise ValueError(
                        "row %r does not match columns %r" % (record, columns)
                    )
                normalized.append(values)
        rdd = self.ctx.parallelize(normalized, num_partitions)
        return DataFrame(self, rdd, columns)

    def emptyDataFrame(self, columns: Sequence[str]) -> DataFrame:
        return DataFrame(self, self.ctx.emptyRDD(), columns)

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def createOrReplaceTempView(self, name: str, df: DataFrame) -> None:
        """Register *df*'s rows and columns under *name* for use in SQL
        queries; :meth:`table` hands them back in a DataFrame of this
        session."""
        self._tables[name] = (df.rdd, df.columns)

    def table(self, name: str) -> DataFrame:
        if name not in self._tables:
            raise KeyError(
                "unknown table %r; registered: %s"
                % (name, sorted(self._tables))
            )
        return DataFrame(self, *self._tables[name])

    def table_columns(self, name: str) -> List[str]:
        return list(self.table(name).columns)

    def table_rows(self, name: str) -> int:
        return self.table(name).count()

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------

    def sql(self, query: str, optimized: bool = True) -> DataFrame:
        """Parse, optimize and execute a SQL query against the catalog."""
        plan = parse_sql(query)
        if optimized:
            plan = optimize(plan, self)
        return execute(plan, self)

    def explain(self, query: str, optimized: bool = True) -> str:
        """The (optimized) logical plan as an indented tree."""
        plan = parse_sql(query)
        if optimized:
            plan = optimize(plan, self)
        return plan.pretty()

    def __repr__(self) -> str:
        return "SparkSession(tables=%d)" % len(self._tables)
