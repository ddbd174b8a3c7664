"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked lists.

This mirrors the RDD programming model the paper's Section III describes:
an immutable distributed collection operated on through transformations
(lazy, returning new RDDs) and actions (eager, returning values).  Narrow
transformations run partition-by-partition; wide ones insert a shuffle whose
traffic is charged to the context's :class:`MetricsCollector`.

Partitions are plain lists and "distribution" is simulated: partition *i*
lives on virtual executor ``i % num_executors``.  That is enough to measure
the property the paper cares about -- whether a join's input records were
already co-located (local) or had to cross executors (remote).
"""

from __future__ import annotations

import io
import pickle
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.rdf.terms import Term
from repro.spark.faults import TaskFailedError
from repro.spark.metrics import Header, estimate_sizes
from repro.spark.partitioner import HashPartitioner, Partitioner

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")
W = TypeVar("W")


class RDD:
    """An immutable, lazily evaluated, partitioned collection.

    Subclasses implement :meth:`compute` to produce one partition.  User code
    never constructs RDDs directly; it starts from
    :meth:`SparkContext.parallelize` and derives new RDDs with the
    transformation methods below.
    """

    #: For an RDD of solutions, the :class:`~repro.spark.metrics.Header`
    #: its rows are tuples over -- its records, or the values of its
    #: ``(key, row)`` pairs -- set by whoever builds it
    #: (:func:`~repro.spark.rows.rows`).
    header: Optional[Header] = None
    #: For ``(key, row)`` pairs over :attr:`header`, where each key was
    #: cut from its row: a tuple of positions for the tuple of the row's
    #: values there, one position (an int) for the bare value there.  A
    #: shuffle of such pairs places them and prices each row as the dict
    #: it stands for from the rows' columns, never building a key.
    key_at: Union[None, int, Tuple[int, ...]] = None

    def __init__(
        self,
        ctx,
        num_partitions: int,
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        self.ctx = ctx
        self.num_partitions = num_partitions
        #: The partitioner whose placement this RDD's partitions satisfy, if
        #: any.  Joins between two RDDs sharing an equal partitioner skip
        #: the shuffle -- the basis of every locality claim in the paper.
        self.partitioner = partitioner
        self._cached: Optional[Dict[int, List[Any]]] = None
        self._cache_requested = False
        self._checkpoint_requested = False
        self.id = ctx._register_rdd(self)

    # ------------------------------------------------------------------
    # Evaluation machinery
    # ------------------------------------------------------------------

    def compute(self, index: int) -> List[Any]:
        """Produce partition *index*.  Overridden by each RDD kind."""
        raise NotImplementedError

    def _iterate(self, index: int) -> List[Any]:
        """Evaluate one partition, honouring the cache, charging one task.

        Caching is per partition on first computation, like Spark: once a
        partition of a cached RDD has been computed (by any descendant),
        it is never recomputed.  When the context carries a
        :class:`~repro.spark.faults.FaultScheduler`, cached reads may
        suffer partition-loss events (rebuilt from lineage) and task runs
        may fail or straggle (retried/speculated); see :meth:`_run_task`.
        """
        if self.ctx.deadline is not None:
            # Deadline poll: one check per partition computation, the
            # simulated analogue of Spark's per-task kill points.
            self.ctx.deadline.check()
        if self._cached is not None and index in self._cached:
            faults = self.ctx.faults
            if (
                faults is not None
                and faults.active
                and not self._checkpoint_requested
                and faults.decide_loss(self.id, index)
            ):
                self._recover_lost_partition(index)
            return self._cached[index]
        data = self._run_task(index)
        if self._cache_requested:
            if self._cached is None:
                self._cached = {}
            self._cached[index] = data
        return data

    def _run_task(self, index: int) -> List[Any]:
        """Execute the task computing partition *index* under the fault
        schedule: injected failures are retried up to the context's
        ``max_task_attempts`` (then :class:`TaskFailedError`), stragglers
        charge delay and may launch a speculative backup copy.

        Failed attempts do not charge ``tasks`` -- that counter keeps
        meaning *successful* partition computations; the damage shows up
        in ``tasks_failed``/``tasks_retried`` instead.  Each injected
        event is charged inside its ``fault`` / ``retry`` span, so
        recovery costs stay conserved in the trace.
        """
        ctx = self.ctx
        faults = ctx.faults
        if faults is None or not faults.active:
            ctx.metrics.record_task()
            return self.compute(index)
        tracer = ctx.tracer
        attempt = 1
        while True:
            rule = faults.decide_task(self.id, index, attempt)
            if rule is not None and rule.kind == "fail":
                with tracer.span(
                    "fault",
                    name="fail",
                    stage=self.id,
                    partition=index,
                    attempt=attempt,
                ):
                    ctx.metrics.incr("tasks_failed")
                if attempt >= ctx.max_task_attempts:
                    raise TaskFailedError(self.id, index, attempt)
                attempt += 1
                with tracer.span(
                    "retry",
                    name="attempt%d" % attempt,
                    stage=self.id,
                    partition=index,
                ):
                    ctx.metrics.incr("tasks_retried")
                continue
            if rule is not None and rule.kind == "straggle":
                with tracer.span(
                    "fault",
                    name="straggle",
                    stage=self.id,
                    partition=index,
                    attempt=attempt,
                    delay=rule.delay,
                ):
                    ctx.metrics.record_straggler(rule.delay)
                    if ctx.speculation:
                        # The backup copy redoes the work; both its task
                        # and the launch are charged.
                        ctx.metrics.record_speculative()
            ctx.metrics.record_task()
            return self.compute(index)

    def _recover_lost_partition(self, index: int) -> None:
        """A loss event evicted this cached partition; rebuild it from
        lineage, charging the recovery (Spark's RDD fault tolerance).

        Only the *outermost* recovery charges ``recompute_comparisons``
        (the tasks re-executed on its behalf), so nested losses hit while
        walking the lineage are not double-billed.
        """
        ctx = self.ctx
        assert self._cached is not None
        del self._cached[index]
        with ctx.tracer.span(
            "fault", name="lose", stage=self.id, partition=index
        ):
            ctx.metrics.incr("partitions_recomputed")
            outermost = not ctx._recovering
            if outermost:
                ctx._recovering = True
                tasks_before = ctx.metrics.get("tasks")
            try:
                data = self._run_task(index)
            finally:
                if outermost:
                    ctx._recovering = False
            if outermost:
                ctx.metrics.incr(
                    "recompute_comparisons",
                    ctx.metrics.get("tasks") - tasks_before,
                )
            assert self._cached is not None
            self._cached[index] = data

    def _materialize(self) -> List[List[Any]]:
        """Evaluate every partition (filling the cache when requested).

        Dispatches to the context's executor backend: the serial
        in-process oracle or the multi-process pool (see
        :mod:`repro.spark.parallel`).  Both produce identical data.
        """
        return self.ctx.executor_backend.materialize(self)

    def cache(self) -> "RDD":
        """Keep computed partitions in memory for reuse (like ``persist``)."""
        self._cache_requested = True
        return self

    persist = cache

    def checkpoint(self) -> "RDD":
        """Persist to (simulated) reliable storage, truncating lineage.

        Like :meth:`cache`, but checkpointed partitions are immune to
        injected partition-loss events: in Spark terms they live on
        stable storage rather than executor memory, so recovery never
        needs to walk past them.  The lineage-depth claim in
        ``repro.core.claims`` measures exactly this difference.
        """
        self._cache_requested = True
        self._checkpoint_requested = True
        return self

    localCheckpoint = checkpoint

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def mapPartitionsWithIndex(
        self,
        func: Callable[[int, List[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        return MapPartitionsRDD(self, func, preserves_partitioning)

    def mapPartitions(
        self,
        func: Callable[[List[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        return self.mapPartitionsWithIndex(
            lambda _, part: func(part), preserves_partitioning
        )

    def map(self, func: Callable[[Any], Any]) -> "RDD":
        return self.mapPartitions(lambda part: [func(x) for x in part])

    def flatMap(self, func: Callable[[Any], Iterable[Any]]) -> "RDD":
        return self.mapPartitions(
            lambda part: [y for x in part for y in func(x)]
        )

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        return self.mapPartitions(
            lambda part: [x for x in part if predicate(x)],
            preserves_partitioning=True,
        )

    def keyBy(self, func: Callable[[Any], Any]) -> "RDD":
        """Pair each element with ``func(element)`` as its key."""
        return self.map(lambda x: (func(x), x))

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self, other)

    # ------------------------------------------------------------------
    # Wide transformations (shuffles)
    # ------------------------------------------------------------------

    def partitionBy(self, partitioner: Partitioner) -> "RDD":
        """Shuffle (key, value) pairs so placement satisfies *partitioner*.

        A no-op (no shuffle, no traffic) when this RDD already satisfies an
        equal partitioner -- exactly Spark's behaviour, and the mechanism
        behind "star-shaped queries are performed locally" in HAQWA.
        """
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        n = num_partitions or self.num_partitions
        return (
            self.map(lambda x: (x, None))
            .reduceByKey(lambda a, _b: a, n)
            .keys()
        )

    def combineByKey(
        self,
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        """The general shuffle-with-aggregation primitive.

        Map-side combining runs before the shuffle, so e.g. ``reduceByKey``
        ships one record per (map partition, key) instead of one per input
        record -- observable in the shuffle counters.
        """
        part = partitioner or HashPartitioner(
            num_partitions or self.num_partitions
        )
        return ShuffledRDD(
            self,
            part,
            aggregator=(create_combiner, merge_value, merge_combiners),
        )

    def reduceByKey(
        self,
        func: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        return self.combineByKey(
            lambda v: v, func, func, num_partitions, partitioner
        )

    def cogroup(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Group both RDDs by key: ``(key, (values_here, values_there))``.

        Reuses an existing common partitioner when both sides have one, in
        which case no data moves at all.
        """
        if (
            self.partitioner is not None
            and self.partitioner == other.partitioner
        ):
            partitioner = self.partitioner
        else:
            partitioner = HashPartitioner(
                num_partitions
                or max(self.num_partitions, other.num_partitions)
            )
        left = self.partitionBy(partitioner)
        right = other.partitionBy(partitioner)
        return CoGroupedRDD(left, right, partitioner)

    def _join_with(
        self,
        other: "RDD",
        join_type: str,
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        grouped = self.cogroup(other, num_partitions)
        metrics = self.ctx.metrics

        def outer(part: List[Any]) -> List[Any]:
            out: List[Any] = []
            for key, (lefts, rights) in part:
                if lefts and rights:
                    for lv in lefts:
                        for rv in rights:
                            out.append((key, (lv, rv)))
                elif lefts and join_type in ("left", "full"):
                    for lv in lefts:
                        out.append((key, (lv, None)))
                elif rights and join_type in ("right", "full"):
                    for rv in rights:
                        out.append((key, (None, rv)))
            return out

        def emit(part: List[Any]) -> List[Any]:
            if join_type != "inner":
                out = outer(part)
            else:
                # One pass: a group with an empty side pairs nothing.
                out = [
                    (key, (lv, rv))
                    for key, (lefts, rights) in part
                    for lv in lefts
                    for rv in rights
                ]
            comparisons = sum(
                [(len(ls) or 1) * (len(rs) or 1) for _key, (ls, rs) in part]
            )
            metrics.record_join(comparisons, len(part), len(out))
            return out

        return grouped.mapPartitions(emit, preserves_partitioning=True)

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner hash join on keys (a *partitioned join* in the paper's terms)."""
        return self._join_with(other, "inner", num_partitions)

    def leftOuterJoin(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        return self._join_with(other, "left", num_partitions)

    def rightOuterJoin(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        return self._join_with(other, "right", num_partitions)

    def fullOuterJoin(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        return self._join_with(other, "full", num_partitions)

    def broadcastJoin(self, other: "RDD") -> "RDD":
        """Inner join shipping *other* whole to every executor (map-side join).

        No shuffle of this RDD; the cost is the broadcast of the build side.
        This is the second distributed join algorithm studied by the hybrid
        approach (Section IV-A3).
        """
        build: Dict[Any, List[Any]] = defaultdict(list)
        for part in other._materialize():
            for key, value in part:
                build[key].append(value)
        bcast = self.ctx.broadcast(dict(build))
        metrics = self.ctx.metrics

        def probe(part: List[Any]) -> List[Any]:
            table = bcast.value
            out = []
            comparisons = 0
            for key, value in part:
                matches = table.get(key)
                if matches:
                    comparisons += len(matches)
                    for build_value in matches:
                        out.append((key, (value, build_value)))
                else:
                    comparisons += 1
            metrics.record_join(comparisons, len(part), len(out))
            return out

        return self.mapPartitions(probe, preserves_partitioning=True)

    def cartesian(self, other: "RDD") -> "RDD":
        """All pairs; charges the full nested-loop comparison count."""
        return CartesianRDD(self, other)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self) -> List[Any]:
        return [x for part in self._materialize() for x in part]

    def count(self) -> int:
        return sum(len(part) for part in self._materialize())

    def isEmpty(self) -> bool:
        return all(not self._iterate(i) for i in range(self.num_partitions))

    def first(self) -> Any:
        for i in range(self.num_partitions):
            part = self._iterate(i)
            if part:
                return part[0]
        raise ValueError("RDD is empty")

    def take(self, n: int) -> List[Any]:
        out: List[Any] = []
        for i in range(self.num_partitions):
            if len(out) >= n:
                break
            out.extend(self._iterate(i)[: n - len(out)])
        return out

    def foreach(self, func: Callable[[Any], None]) -> None:
        for item in self.collect():
            func(item)

    def collectPartitions(self) -> List[List[Any]]:
        """Materialized partitions, for tests asserting placement."""
        return [list(part) for part in self._materialize()]

    def __repr__(self) -> str:
        return "%s(id=%d, partitions=%d)" % (
            type(self).__name__,
            self.id,
            self.num_partitions,
        )


class ParallelCollectionRDD(RDD):
    """Leaf RDD over an in-memory collection split into even slices."""

    def __init__(self, ctx, data: Iterable[Any], num_partitions: int) -> None:
        items = list(data)
        size = len(items)
        num_partitions = max(1, min(num_partitions, size))
        super().__init__(ctx, num_partitions)
        # Item i goes to slice i * n // size: slice j runs from
        # ceil(j * size / n) to ceil((j + 1) * size / n).
        bounds = [-(-j * size // num_partitions) for j in range(num_partitions + 1)]
        self._slices: List[List[Any]] = [
            items[start:end] for start, end in zip(bounds, bounds[1:])
        ]

    def items(self) -> List[Any]:
        """A new list of the collection, in order, read in place: no job
        runs and nothing is charged."""
        return [item for part in self._slices for item in part]

    def compute(self, index: int) -> List[Any]:
        part = self._slices[index]
        with self.ctx.tracer.span(
            "scan", name="rdd%d" % self.id, partition=index
        ):
            self.ctx.metrics.record_scan(len(part))
        return list(part)


class PrePartitionedRDD(RDD):
    """Leaf RDD whose partitions were placed by the caller.

    Systems that build bespoke stores (SPARQLGX's vertical partitions,
    SparkRDF's MESG) use this to declare both the placement and the
    partitioner it satisfies.
    """

    def __init__(
        self,
        ctx,
        partitions: List[List[Any]],
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        super().__init__(ctx, max(len(partitions), 1), partitioner)
        self._parts = [list(p) for p in partitions] or [[]]

    def compute(self, index: int) -> List[Any]:
        part = self._parts[index]
        with self.ctx.tracer.span(
            "scan", name="rdd%d" % self.id, partition=index
        ):
            self.ctx.metrics.record_scan(len(part))
        return list(part)


class MapPartitionsRDD(RDD):
    """Narrow transformation applying a function to each parent partition."""

    def __init__(
        self,
        parent: RDD,
        func: Callable[[int, List[Any]], Iterable[Any]],
        preserves_partitioning: bool,
    ) -> None:
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            parent.partitioner if preserves_partitioning else None,
        )
        self.parent = parent
        self.func = func

    def compute(self, index: int) -> List[Any]:
        return list(self.func(index, self.parent._iterate(index)))


class UnionRDD(RDD):
    """Concatenation of two RDDs' partitions (narrow, no shuffle)."""

    def __init__(self, left: RDD, right: RDD) -> None:
        if left.ctx is not right.ctx:
            raise ValueError("cannot union RDDs from different contexts")
        super().__init__(
            left.ctx, left.num_partitions + right.num_partitions
        )
        self.left = left
        self.right = right

    def compute(self, index: int) -> List[Any]:
        if index < self.left.num_partitions:
            return self.left._iterate(index)
        return self.right._iterate(index - self.left.num_partitions)


class ShuffledRDD(RDD):
    """Wide dependency: repartitions (key, value) records by *partitioner*.

    The shuffle is simulated in one pass on first access and its traffic
    recorded: every record is charged, and records whose map partition and
    reduce partition live on different virtual executors count as remote.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Optional[
            Tuple[
                Callable[[Any], Any],
                Callable[[Any, Any], Any],
                Callable[[Any, Any], Any],
            ]
        ] = None,
    ) -> None:
        super().__init__(parent.ctx, partitioner.num_partitions, partitioner)
        self.parent = parent
        self.aggregator = aggregator
        #: One list of records per reduce partition once the shuffle has
        #: run -- or, under the forked backend, its :class:`ShuffleBlocks`.
        self._buckets: Union[None, List[List[Any]], ShuffleBlocks] = None

    def _ensure_shuffled(self) -> List[List[Any]]:
        buckets = self._buckets
        if type(buckets) is ShuffleBlocks and buckets.held:
            # Fragments are still in the workers that wrote them: the
            # backend fetches them, or -- its pool being gone -- leaves
            # the shuffle unresolved, to run again from lineage.
            self.ctx.executor_backend.gather([self])
        if self._buckets is None:
            self._resolve(self._do_shuffle)
        return self._buckets

    def _resolve(self, shuffle: Callable[[Any], Any]) -> None:
        """Keep the buckets ``shuffle(span)`` builds, run inside this
        shuffle's ``shuffle`` span -- the one place that span is opened,
        for the in-process oracle and the forked backend alike."""
        with self.ctx.tracer.span(
            "shuffle",
            name="rdd%d" % self.id,
            partitions=self.partitioner.num_partitions,
            aggregated=self.aggregator is not None,
        ) as span:
            self._buckets = shuffle(span)

    def _do_shuffle(self, span) -> List[List[Any]]:
        """Run the simulated shuffle, charging and (optionally) tracing it."""
        num_out = self.partitioner.num_partitions
        buckets: List[List[Any]] = [[] for _ in range(num_out)]
        records = remote = nbytes = 0
        for map_index in range(self.parent.num_partitions):
            fragments, map_records, map_remote, map_bytes = (
                self._map_fragments(map_index)
            )
            for reduce_index, fragment in enumerate(fragments):
                buckets[reduce_index].extend(fragment)
            records += map_records
            remote += map_remote
            nbytes += map_bytes
        self._finish_shuffle(buckets, records, remote, nbytes, span)
        return buckets

    def _map_fragments(
        self, map_index: int
    ) -> Tuple[List[List[Any]], int, int, int]:
        """One shuffle map task: route one parent partition into per-reduce
        bucket fragments (with optional map-side combining), counting the
        records/remote/bytes it contributes.  This is the unit the
        parallel backend distributes; the serial path concatenates the
        fragments in map order, so both produce identical buckets.
        """
        ctx = self.ctx
        num_out = self.partitioner.num_partitions
        fragments: List[List[Any]] = [[] for _ in range(num_out)]
        part = self.parent._iterate(map_index)
        if self.aggregator is not None:
            create, merge_value, _merge_combiners = self.aggregator
            combined: Dict[Any, Any] = {}
            for key, value in part:
                if key in combined:
                    combined[key] = merge_value(combined[key], value)
                else:
                    combined[key] = create(value)
            outgoing: List[Tuple[Any, Any]] = list(combined.items())
        else:
            outgoing = part
        if not outgoing:
            return fragments, 0, 0, 0
        at = self.parent.key_at
        count = len(outgoing)
        if at is not None and self.aggregator is None:
            # Keys cut from rows: placed and priced from the row columns.
            _keys, values = zip(*outgoing)
            columns = list(zip(*values))
            placements = self.partitioner.partitions_at(columns, at, count)
            nbytes = self.parent.header.price_keyed(columns, at, count)
        else:
            # Placed and priced by column all the same; a pair that came
            # as anything but a plain tuple becomes one.
            if set(map(type, outgoing)) != {tuple}:
                outgoing = [(key, value) for key, value in outgoing]
            placements = self.partitioner.partitions_for(
                [key for key, _value in outgoing]
            )
            nbytes = estimate_sizes(outgoing)
        for reduce_index, record in zip(placements, outgoing):
            fragments[reduce_index].append(record)
        # Whether a record bound for each reduce partition leaves this
        # map task's executor: placement is fixed for the whole task.
        here = ctx.executor_for(map_index)
        is_remote = [ctx.executor_for(r) != here for r in range(num_out)]
        remote = sum(map(is_remote.__getitem__, placements))
        return fragments, count, remote, nbytes

    def _map_blocks(
        self,
        map_index: int,
        terms: TermTable,
        keep: Iterable[int] = (),
        kept: Optional[Dict[int, Dict[int, List[Any]]]] = None,
    ) -> Tuple[List[Union[None, bytes, int]], int, int, int]:
        """One shuffle map task as the forked backend runs it:
        :meth:`_map_fragments` with each fragment pickled over *terms*
        (``None`` for an empty one), so the driver routes bytes it never
        decodes and the reduce task that reads a partition is the one to
        build it.  A fragment for a reduce partition in *keep* -- one the
        worker running this task reads itself -- is not pickled: it stays
        in *kept*, ``kept[map_index][reduce_index]``, and the map index
        stands in its place.
        """
        fragments, records, remote, nbytes = self._map_fragments(map_index)
        encoded: List[Any] = ShuffleBlocks.encode(fragments, terms, keep)
        own = {index: fragments[index] for index in keep if fragments[index]}
        if own:
            kept[map_index] = own
            for index in own:
                encoded[index] = map_index
        return encoded, records, remote, nbytes

    def _finish_shuffle(
        self,
        buckets: List[List[Any]],
        records: int,
        remote: int,
        nbytes: int,
        span,
    ) -> None:
        """Reduce-side combining plus the one-shot shuffle charge."""
        if self.aggregator is not None:
            _create, _merge_value, merge_combiners = self.aggregator
            for i, bucket in enumerate(buckets):
                merged: Dict[Any, Any] = {}
                for key, value in bucket:
                    if key in merged:
                        merged[key] = merge_combiners(merged[key], value)
                    else:
                        merged[key] = value
                buckets[i] = list(merged.items())
        self.ctx.metrics.record_shuffle(records, remote, nbytes)
        if span is not None:
            span.attrs["records"] = records
            span.attrs["remote"] = remote
            span.attrs["bytes"] = nbytes

    def compute(self, index: int) -> List[Any]:
        buckets = self._ensure_shuffled()
        if type(buckets) is list:
            return list(buckets[index])
        return buckets[index]  # decoded for this read: already the caller's


def _term_at(index: int):
    """What a pickle names a table's term by.  Only a table's own
    unpickler resolves it; a plain :func:`pickle.loads` lands here."""
    raise pickle.UnpicklingError(
        "term #%d of a term table, read without the table" % index
    )


class TermTable:
    """The terms a context's forked workers hold, each under an index:
    the codec of every pickle that crosses that context's pipes.

    The table is filled when a pool forks, from what the context holds
    then, so every worker inherits it with the terms it lists.  A term
    equal to one in the table is pickled as that term's index and read
    back as the table's own object -- the one the reader already holds,
    its hash, size and placement known.  Any other term goes by value.
    Indices exist only inside a pickle, and the table only grows: a
    blob encoded before a later fork reads the same after it.
    """

    def __init__(self) -> None:
        self.terms: List[Term] = []
        self.index: Dict[Term, int] = {}

    def extend(self, partitions: Iterable[List[Any]]) -> None:
        """Add the terms held by *partitions* that are not here yet, in
        the order they are met, with their facts computed."""
        collector = _TermCollector(self)
        for part in partitions:
            try:
                collector.dump(part)
            except Exception:  # a partition that cannot cross the pipe anyway
                continue

    def add(self, term: Term) -> int:
        index = self.index.get(term)
        if index is None:
            term.serialized_size()
            term.placement_hash()
            index = self.index[term] = len(self.terms)
            self.terms.append(term)
        return index

    def dumps(self, obj: Any) -> bytes:
        buffer = io.BytesIO()
        TermPickler(buffer, self).dump(obj)
        return buffer.getvalue()

    def loads(self, blob: bytes) -> Any:
        return _TermUnpickler(io.BytesIO(blob), self).load()


class TermPickler(pickle.Pickler):
    """Pickles a term of the table as its index, anything else as
    :mod:`pickle` does."""

    def __init__(self, file, table: TermTable) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.term_index = table.index

    def reducer_override(self, obj):
        if isinstance(obj, Term):
            index = self.term_index.get(obj)
            if index is not None:
                return _term_at, (index,)
        return NotImplemented


class _TermUnpickler(pickle.Unpickler):
    def __init__(self, file, table: TermTable) -> None:
        super().__init__(file)
        self.term_at = table.terms.__getitem__

    def find_class(self, module, name):
        if name == "_term_at" and module == __name__:
            return self.term_at
        return super().find_class(module, name)


class _Discard:
    """A file that keeps nothing."""

    def write(self, data) -> None:
        pass


class _TermCollector(pickle.Pickler):
    """Walks what it pickles the way :mod:`pickle` does -- each object
    once, however often it is referenced -- adding every term it meets
    to a table, and writes nowhere."""

    def __init__(self, table: TermTable) -> None:
        super().__init__(_Discard(), pickle.HIGHEST_PROTOCOL)
        self.add = table.add

    def reducer_override(self, obj):
        if isinstance(obj, Term):
            return _term_at, (self.add(obj),)
        return NotImplemented


class ShuffleBlocks:
    """A shuffle's output as its map tasks left it.

    ``blocks[i]`` holds reduce partition *i* as one entry per non-empty
    fragment of :meth:`ShuffledRDD._map_blocks`, in ascending map order
    -- the order the serial shuffle concatenates them in.  An entry is
    the fragment pickled over the term table the blocks were encoded
    with, or, for a fragment the worker that wrote it kept because that
    worker reads partition *i* too, the map index it is kept under:
    ``local[map index][i]`` in that worker, where indexing reads it as
    the list it is.  In the driver, ``held`` says that some entries are
    such indices, to be fetched before any other process reads them.
    A worker's ``blocks[i]`` is ``None`` for a partition it was not sent.

    Indexing builds a fresh list equal to the serial bucket, in whoever
    runs the reduce task, as Spark's shuffle files are fetched and not
    re-serialized on the way.
    """

    def __init__(
        self,
        blocks: List[Optional[List[Union[bytes, int]]]],
        terms: TermTable,
        local: Optional[Dict[int, Dict[int, List[Any]]]] = None,
    ) -> None:
        self.blocks = blocks
        self.terms = terms
        self.local = local
        self.held = False

    @staticmethod
    def encode(
        fragments: List[List[Any]], terms: TermTable, keep: Iterable[int] = ()
    ) -> List[Optional[bytes]]:
        """One map task's fragments, each pickled over *terms*; ``None``
        for an empty one and for one whose reduce index is in *keep*."""
        return [
            terms.dumps(fragment) if fragment and index not in keep else None
            for index, fragment in enumerate(fragments)
        ]

    def append(self, encoded: List[Union[None, bytes, int]]) -> None:
        """Add one map task's entries, unread; call in map order."""
        for bucket, block in zip(self.blocks, encoded):
            if block is not None:
                bucket.append(block)

    def __getitem__(self, index: int) -> List[Any]:
        bucket: List[Any] = []
        for entry in self.blocks[index]:
            if type(entry) is bytes:
                bucket += self.terms.loads(entry)
            else:
                bucket += self.local[entry][index]
        return bucket


class CoGroupedRDD(RDD):
    """Per-partition grouping of two equally partitioned pair-RDDs."""

    def __init__(self, left: RDD, right: RDD, partitioner: Partitioner) -> None:
        super().__init__(left.ctx, partitioner.num_partitions, partitioner)
        self.left = left
        self.right = right

    def compute(self, index: int) -> List[Any]:
        # One hash per record, and a group's lists are allocated on its
        # key's first sight only: the spare is replaced when it is taken.
        groups: Dict[Any, Tuple[List[Any], List[Any]]] = {}
        group_of = groups.setdefault
        spare: Tuple[List[Any], List[Any]] = ([], [])
        for side, rdd in enumerate((self.left, self.right)):
            for key, value in rdd._iterate(index):
                group = group_of(key, spare)
                if group is spare:
                    spare = ([], [])
                group[side].append(value)
        return list(groups.items())


class CartesianRDD(RDD):
    """All pairs of two RDDs; the nested-loop cost is charged as comparisons.

    The paper singles out cartesian products as the failure mode of naive
    SPARQL-on-Spark-SQL translation (Section IV-A3) and as SPARQLGX's
    fallback for disjoint triple patterns.
    """

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(
            left.ctx, left.num_partitions * right.num_partitions
        )
        self.left = left
        self.right = right

    def compute(self, index: int) -> List[Any]:
        left_index = index // self.right.num_partitions
        right_index = index % self.right.num_partitions
        left_part = self.left._iterate(left_index)
        right_part = self.right._iterate(right_index)
        out = [(l, r) for l in left_part for r in right_part]
        self.ctx.metrics.record_join(
            comparisons=len(left_part) * len(right_part),
            probe_lookups=len(left_part),
            output_records=len(out),
        )
        return out
