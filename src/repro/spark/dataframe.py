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
    ColumnCompiler,
    Expression,
    col,
    output_name,
    tuple_display,
)
from repro.spark.kernels import comprehension
from repro.spark.metrics import estimate_size, estimate_sizes
from repro.spark.rdd import RDD
from repro.spark.row import Row

ColumnLike = Union[str, Expression]


def _as_expr(column: ColumnLike) -> Expression:
    return col(column) if isinstance(column, str) else column


def _positions(indices: Iterable[int]) -> str:
    """Source text of the tuple of a row ``v``'s items at *indices*."""
    return tuple_display("v[%d]" % index for index in indices)


class DataFrame:
    """An immutable table: an RDD of value tuples plus column names.

    An operator that runs per row compiles its column expressions once
    (:class:`~repro.spark.column.ColumnCompiler`) into a kernel over the
    tuple's positions, run once per partition: no row is read by name.
    """

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
        compiler = ColumnCompiler(self.columns)
        project = comprehension(
            "select",
            tuple_display(map(compiler.value, exprs)),
            namespace=compiler.namespace,
        )
        return self._with(self._rdd.mapPartitions(project), names)

    def where(self, condition: Expression) -> "DataFrame":
        """Keep rows satisfying *condition*."""
        self._require_columns(condition.references())
        compiler = ColumnCompiler(self.columns)
        keep = comprehension(
            "where",
            "v",
            condition=compiler.truth(condition),
            namespace=compiler.namespace,
        )
        return self._with(
            self._rdd.mapPartitions(keep, preserves_partitioning=True),
            self.columns,
        )

    filter = where

    def withColumn(self, name: str, expr: Expression) -> "DataFrame":
        """Add (or replace) a column computed from *expr*."""
        compiler = ColumnCompiler(self.columns)
        value = compiler.value(expr)
        if name in self.columns:
            index = self.columns.index(name)
            items = ["v[%d]" % i for i in range(len(self.columns))]
            items[index] = value
            replace = comprehension(
                "replace", tuple_display(items), namespace=compiler.namespace
            )
            return self._with(self._rdd.mapPartitions(replace), self.columns)
        append = comprehension(
            "append", "v + (%s,)" % value, namespace=compiler.namespace
        )
        return self._with(
            self._rdd.mapPartitions(append), self.columns + [name]
        )

    def withColumnRenamed(self, old: str, new: str) -> "DataFrame":
        self._require_columns([old])
        names = [new if c == old else c for c in self.columns]
        return self._with(self._rdd, names)

    def drop(self, *names: str) -> "DataFrame":
        keep = [c for c in self.columns if c not in names]
        indices = [self.columns.index(c) for c in keep]
        project = comprehension("drop", _positions(indices))
        return self._with(self._rdd.mapPartitions(project), keep)

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
        compiler = ColumnCompiler(self.columns)
        keys = [compiler.sort_key(expr) for expr in exprs]

        rows = self._rdd.collect()
        for position in range(len(keys) - 1, -1, -1):
            rows.sort(key=keys[position], reverse=not directions[position])
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

        left_pairs = self._rdd.mapPartitions(self._split(keys, left_rest))
        right_pairs = other._rdd.mapPartitions(other._split(keys, right_rest))

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

        # The side an outer join may miss is that many nulls.
        left, right = "*l", "*r"
        if how in ("right", "outer"):
            left = "*(nl if l is None else l)"
        if how in ("left", "outer"):
            right = "*(nr if r is None else r)"
        assemble = comprehension(
            "assemble",
            "(*k, %s, %s)" % (left, right),
            "k, (l, r)",
            namespace={
                "nl": (None,) * len(left_rest),
                "nr": (None,) * len(right_rest),
            },
        )
        return self._with(joined.mapPartitions(assemble), out_columns)

    def _split(self, keys: List[str], rest: List[str]):
        """The kernel from a partition of rows to ``(key, rest)`` pairs of
        value tuples: the join's keyed side."""
        key_at = [self.columns.index(k) for k in keys]
        rest_at = [self.columns.index(c) for c in rest]
        return comprehension(
            "split", "(%s, %s)" % (_positions(key_at), _positions(rest_at))
        )

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
        concat = comprehension("concat", "(*a, *b)", "a, b")
        return self._with(
            product.mapPartitions(concat), self.columns + other.columns
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
        return estimate_sizes(self._rdd.collect())

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
