"""DataFrames: distributed collections organized into named columns.

The paper (Section III) credits DataFrames with two properties the RDD API
lacks: schema knowledge enabling "much more efficient data encoding than
java serialization", and a cost-based choice between broadcast and
partitioned joins.  Both are implemented here: :meth:`DataFrame.storage_bytes`
exposes the dictionary-encoded columnar footprint the compression claim is
about, and :meth:`DataFrame.join` picks a broadcast join automatically when
the build side fits under the session's ``autoBroadcastJoinThreshold``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.spark.column import (
    Alias,
    ColumnRef,
    Expression,
    col,
    output_name,
)
from repro.spark.metrics import estimate_size
from repro.spark.rdd import RDD
from repro.spark.row import Row

ColumnLike = Union[str, Expression]


def _as_expr(column: ColumnLike) -> Expression:
    return col(column) if isinstance(column, str) else column


class DataFrame:
    """An immutable table: an RDD of value tuples plus column names."""

    def __init__(self, session, rdd: RDD, columns: Sequence[str]) -> None:
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column names: %r" % (columns,))
        self.session = session
        self._rdd = rdd
        self.columns: List[str] = list(columns)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @property
    def rdd(self) -> RDD:
        """The underlying RDD of row tuples."""
        return self._rdd

    @property
    def ctx(self):
        return self.session.ctx

    def _with(self, rdd: RDD, columns: Sequence[str]) -> "DataFrame":
        return DataFrame(self.session, rdd, columns)

    def _require_columns(self, names: Iterable[str]) -> None:
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise KeyError(
                "columns %r not in schema %r" % (missing, self.columns)
            )

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------

    def select(self, *columns: ColumnLike) -> "DataFrame":
        """Project to the given columns / expressions."""
        exprs = [_as_expr(c) for c in columns]
        names = []
        for i, expr in enumerate(exprs):
            names.append(output_name(expr, default="_c%d" % i))
        if len(set(names)) != len(names):
            raise ValueError("duplicate output columns in select: %r" % names)
        source_columns = self.columns

        def project(part: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
            out = []
            for values in part:
                row = dict(zip(source_columns, values))
                out.append(tuple(expr.eval(row) for expr in exprs))
            return out

        return self._with(self._rdd.mapPartitions(project), names)

    def where(self, condition: Expression) -> "DataFrame":
        """Keep rows satisfying *condition*."""
        self._require_columns(condition.references())
        source_columns = self.columns

        def keep(values: Tuple[Any, ...]) -> bool:
            return bool(condition.eval(dict(zip(source_columns, values))))

        return self._with(self._rdd.filter(keep), self.columns)

    filter = where

    def withColumn(self, name: str, expr: Expression) -> "DataFrame":
        """Add (or replace) a column computed from *expr*."""
        source_columns = self.columns
        if name in self.columns:
            index = self.columns.index(name)

            def replace(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
                row = dict(zip(source_columns, values))
                out = list(values)
                out[index] = expr.eval(row)
                return tuple(out)

            return self._with(self._rdd.map(replace), self.columns)

        def append(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
            row = dict(zip(source_columns, values))
            return values + (expr.eval(row),)

        return self._with(self._rdd.map(append), self.columns + [name])

    def withColumnRenamed(self, old: str, new: str) -> "DataFrame":
        self._require_columns([old])
        names = [new if c == old else c for c in self.columns]
        return self._with(self._rdd, names)

    def drop(self, *names: str) -> "DataFrame":
        keep = [c for c in self.columns if c not in names]
        indices = [self.columns.index(c) for c in keep]
        return self._with(
            self._rdd.map(lambda values: tuple(values[i] for i in indices)),
            keep,
        )

    def distinct(self) -> "DataFrame":
        return self._with(self._rdd.distinct(), self.columns)

    def union(self, other: "DataFrame") -> "DataFrame":
        if len(other.columns) != len(self.columns):
            raise ValueError(
                "union needs same arity: %r vs %r"
                % (self.columns, other.columns)
            )
        return self._with(self._rdd.union(other._rdd), self.columns)

    def limit(self, n: int) -> "DataFrame":
        taken = self._rdd.take(n)
        return self._with(self.ctx.parallelize(taken, 1), self.columns)

    def orderBy(
        self,
        *columns: ColumnLike,
        ascending: Union[bool, Sequence[bool]] = True,
    ) -> "DataFrame":
        exprs = [_as_expr(c) for c in columns]
        if isinstance(ascending, bool):
            directions = [ascending] * len(exprs)
        else:
            directions = list(ascending)
        source_columns = self.columns

        rows = self._rdd.collect()
        for position in range(len(exprs) - 1, -1, -1):
            expr = exprs[position]
            direction = directions[position]

            def key_at(values, expr=expr):
                row = dict(zip(source_columns, values))
                value = expr.eval(row)
                return (value is None, value)

            rows.sort(key=key_at, reverse=not direction)
        return self._with(
            self.ctx.parallelize(rows, self._rdd.num_partitions), self.columns
        )

    sort = orderBy

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def join(
        self,
        other: "DataFrame",
        on: Union[str, Sequence[str]],
        how: str = "inner",
        hint: Optional[str] = None,
    ) -> "DataFrame":
        """Equi-join on shared column names.

        Strategy selection mirrors Spark: a ``broadcast`` hint forces a
        map-side join; otherwise the build side is broadcast when its
        estimated size is below the session's ``autoBroadcastJoinThreshold``
        (and the join is inner); else a partitioned (shuffle) join runs.
        """
        keys = [on] if isinstance(on, str) else list(on)
        self._require_columns(keys)
        other._require_columns(keys)
        left_rest = [c for c in self.columns if c not in keys]
        right_rest = [c for c in other.columns if c not in keys]
        overlap = set(left_rest) & set(right_rest)
        if overlap:
            raise ValueError(
                "ambiguous non-join columns %r; rename before joining"
                % sorted(overlap)
            )
        out_columns = keys + left_rest + right_rest

        left_key_idx = [self.columns.index(k) for k in keys]
        left_rest_idx = [self.columns.index(c) for c in left_rest]
        right_key_idx = [other.columns.index(k) for k in keys]
        right_rest_idx = [other.columns.index(c) for c in right_rest]

        left_pairs = self._rdd.map(
            lambda v: (
                tuple(v[i] for i in left_key_idx),
                tuple(v[i] for i in left_rest_idx),
            )
        )
        right_pairs = other._rdd.map(
            lambda v: (
                tuple(v[i] for i in right_key_idx),
                tuple(v[i] for i in right_rest_idx),
            )
        )

        use_broadcast = hint == "broadcast"
        if hint is None and how == "inner":
            threshold = self.session.autoBroadcastJoinThreshold
            if threshold is not None and other._estimated_bytes() <= threshold:
                use_broadcast = True

        tracer = self.ctx.tracer
        with tracer.span(
            "join",
            name="broadcast" if use_broadcast else "partitioned",
            on=",".join(keys),
            how=how,
        ):
            joined = self._joined_pairs(
                left_pairs, right_pairs, use_broadcast, how
            )
            tracer.materialize(joined)

        n_left = len(left_rest)
        n_right = len(right_rest)

        def assemble(item: Tuple[Any, Tuple[Any, Any]]) -> Tuple[Any, ...]:
            key, (left_values, right_values) = item
            left_values = left_values if left_values is not None else (None,) * n_left
            right_values = right_values if right_values is not None else (None,) * n_right
            return tuple(key) + tuple(left_values) + tuple(right_values)

        return self._with(joined.map(assemble), out_columns)

    def _joined_pairs(
        self, left_pairs: RDD, right_pairs: RDD, use_broadcast: bool, how: str
    ) -> RDD:
        """Run the selected join strategy over keyed pair RDDs."""
        if use_broadcast:
            if how != "inner":
                raise ValueError("broadcast join supports only inner joins")
            joined = left_pairs.broadcastJoin(right_pairs)
            self.ctx.metrics.incr("broadcast_joins")
        else:
            method = {
                "inner": left_pairs.join,
                "left": left_pairs.leftOuterJoin,
                "right": left_pairs.rightOuterJoin,
                "outer": left_pairs.fullOuterJoin,
            }.get(how)
            if method is None:
                raise ValueError("unknown join type %r" % how)
            joined = method(right_pairs)
            self.ctx.metrics.incr("partitioned_joins")
        return joined

    def crossJoin(self, other: "DataFrame") -> "DataFrame":
        """Cartesian product (the inefficiency Section IV-A3 warns about)."""
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise ValueError(
                "ambiguous columns %r in crossJoin" % sorted(overlap)
            )
        product = self._rdd.cartesian(other._rdd)
        return self._with(
            product.map(lambda pair: tuple(pair[0]) + tuple(pair[1])),
            self.columns + other.columns,
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def groupBy(self, *columns: str) -> "GroupedData":
        self._require_columns(columns)
        return GroupedData(self, list(columns))

    # ------------------------------------------------------------------
    # Actions & introspection
    # ------------------------------------------------------------------

    def collect(self) -> List[Row]:
        return [Row(self.columns, values) for values in self._rdd.collect()]

    def count(self) -> int:
        return self._rdd.count()

    def take(self, n: int) -> List[Row]:
        return [Row(self.columns, values) for values in self._rdd.take(n)]

    def first(self) -> Row:
        return Row(self.columns, self._rdd.first())

    def isEmpty(self) -> bool:
        return self._rdd.isEmpty()

    def cache(self) -> "DataFrame":
        self._rdd.cache()
        return self

    def _estimated_bytes(self) -> int:
        """Row-format size estimate used by the broadcast threshold."""
        return sum(
            estimate_size(values) for values in self._rdd.collect()
        )

    def storage_bytes(self, columnar: bool = True) -> int:
        """Estimated in-memory footprint.

        ``columnar=False`` charges each row tuple independently, like RDD
        storage of deserialized records.  ``columnar=True`` models Spark's
        columnar compression: per column, each distinct value is stored
        once in a dictionary plus a fixed-width (4-byte) code per row --
        the mechanism behind the paper's "up to 10 times larger data sets
        than RDD" observation.
        """
        rows = self._rdd.collect()
        if not columnar:
            return sum(estimate_size(values) for values in rows)
        total = 0
        for index in range(len(self.columns)):
            distinct = {values[index] for values in rows}
            total += sum(estimate_size(v) for v in distinct)
            total += 4 * len(rows)
        return total

    def __repr__(self) -> str:
        return "DataFrame(columns=%r)" % (self.columns,)


_AGG_FUNCS: Dict[str, Callable[[List[Any]], Any]] = {
    "count": len,
    "sum": sum,
    "min": min,
    "max": max,
    "avg": lambda vs: sum(vs) / len(vs) if vs else None,
    "count_distinct": lambda vs: len(set(vs)),
}


class GroupedData:
    """Result of :meth:`DataFrame.groupBy`, awaiting an aggregation."""

    def __init__(self, df: DataFrame, keys: List[str]) -> None:
        self._df = df
        self._keys = keys

    def count(self) -> DataFrame:
        return self.agg(("count", self._keys[0] if self._keys else "*", "count"))

    def agg(self, *specs: Tuple[str, str, str]) -> DataFrame:
        """Aggregate with (function, column, output-name) triples.

        Functions: count, sum, min, max, avg, count_distinct.  The column
        ``"*"`` is allowed for count.
        """
        df = self._df
        keys = self._keys
        key_idx = [df.columns.index(k) for k in keys]
        value_idx = []
        for func, column, _alias in specs:
            if func not in _AGG_FUNCS:
                raise ValueError("unknown aggregate %r" % func)
            if column == "*":
                value_idx.append(None)
            else:
                df._require_columns([column])
                value_idx.append(df.columns.index(column))

        pairs = df._rdd.map(
            lambda values: (
                tuple(values[i] for i in key_idx),
                [
                    [values[i] if i is not None else 1]
                    for i in value_idx
                ],
            )
        )
        merged = pairs.reduceByKey(
            lambda a, b: [av + bv for av, bv in zip(a, b)]
        )

        funcs = [_AGG_FUNCS[func] for func, _c, _a in specs]

        def finish(item: Tuple[Tuple[Any, ...], List[List[Any]]]):
            key, value_lists = item
            return tuple(key) + tuple(
                func(values) for func, values in zip(funcs, value_lists)
            )

        out_columns = keys + [alias for _f, _c, alias in specs]
        return df._with(merged.map(finish), out_columns)
