"""Execution metrics for the simulated cluster.

The paper's assessment of the surveyed systems rests on *cost* arguments:
how many records a shuffle moves between executors, how many comparisons a
join performs, how much data a broadcast ships, how many partitions a scan
touches.  Every operator in :mod:`repro.spark` reports those quantities to
the :class:`MetricsCollector` owned by its :class:`~repro.spark.context.SparkContext`,
and every benchmark in ``benchmarks/`` reads them back through
:class:`MetricsSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from repro.rdf.terms import BNode, Literal, Term, URI


def estimate_size(value: object) -> int:
    """Estimate the serialized size of *value* in bytes.

    A cheap, deterministic stand-in for Java serialization costs: strings
    cost their length, numbers a machine word, containers the sum of their
    elements plus a small per-element overhead.  The absolute numbers are
    arbitrary; the *ratios* between representations (which is what the
    paper's compression and encoding claims are about) are meaningful.

    In full: ``None`` and bools cost 1, ints and floats 8, ``str`` its
    UTF-8 length, ``bytes`` its length, a tuple/list/set/frozenset
    ``8 + sum(size(item) + 4)``, a dict ``8 + sum(size(k) + size(v) + 8)``
    and anything else ``len(repr(value))`` -- which an RDF term computes
    once (:meth:`~repro.rdf.terms.Term.serialized_size`).  Every shuffled
    record is priced here, so a container prices its terms, strings and
    ints in its own loop: one call per container, none per leaf.
    """
    # Records are plain tuples, lists and dicts: ask for those exact
    # types before the isinstance tests that also admit subclasses.
    kind = type(value)
    plain_sequence = kind is tuple or kind is list
    if not plain_sequence and isinstance(value, dict):
        total = 8 + 8 * len(value)
        items: Iterable[object] = chain(value, value.values())
    elif plain_sequence or isinstance(value, (tuple, list, set, frozenset)):
        total = 8 + 4 * len(value)
        items = value
    elif isinstance(value, Term):
        return value.serialized_size()
    elif isinstance(value, str):
        return len(value.encode("utf-8"))
    elif value is None or isinstance(value, bool):
        return 1
    elif isinstance(value, (int, float)):
        return 8
    elif isinstance(value, bytes):
        return len(value)
    else:
        # Fall back to the repr for user-defined objects; stable and cheap.
        return len(repr(value))
    for item in items:
        kind = type(item)
        if kind is URI or kind is Literal or kind is BNode:
            size = item._size
            if size is None:
                size = item.serialized_size()
            total += size
        elif kind is str:
            total += (
                len(item) if item.isascii() else len(item.encode("utf-8"))
            )
        elif kind is int:
            total += 8
        else:
            total += estimate_size(item)
    return total


_TERM_KINDS = frozenset((URI, Literal, BNode))
_SIZE = attrgetter("_size")


def estimate_sizes(records: Sequence[object]) -> int:
    """``sum(estimate_size(record) for record in records)``, by column.

    A shuffle map task prices its whole output here: ``(key, value)``
    pairs cost 16 each plus their key column plus their value column,
    and a column of one exact kind is summed with no call per record --
    containers by their overheads plus their flattened items, terms from
    the size each keeps, ints by count, strings by length.  Any other
    column goes item by item through :func:`estimate_size`, the definition.
    """
    if set(map(type, records)) == {tuple} and set(map(len, records)) == {2}:
        keys, values = zip(*records)
        return 16 * len(records) + _column_size(keys) + _column_size(values)
    return _column_size(records)


def _column_size(column: Sequence[object]) -> int:
    kinds = set(map(type, column))
    count = len(column)
    if kinds <= _TERM_KINDS:
        try:
            return sum(map(_SIZE, column))
        except TypeError:  # a term nobody priced yet holds None
            return sum(term.serialized_size() for term in column)
    if kinds == {int}:
        return 8 * count
    if kinds == {str}:
        text = "".join(column)
        return len(text) if text.isascii() else len(text.encode("utf-8"))
    if kinds == {tuple} or kinds == {list}:
        items = list(chain.from_iterable(column))
        return 8 * count + 4 * len(items) + _column_size(items)
    if kinds == {dict}:
        names = list(chain.from_iterable(column))
        values = list(chain.from_iterable(map(dict.values, column)))
        return (
            8 * count + 8 * len(names)
            + _column_size(names) + _column_size(values)
        )
    return sum(map(estimate_size, column))


def _text_size(name: str) -> int:
    return len(name.encode("utf-8"))


class Header(tuple):
    """The names a row's positions bind, in order: a solution RDD holds
    plain tuples aligned with its header (``RDD.header``), as its records
    or as the values of its ``(key, row)`` pairs.  A position in *maybe*
    may hold ``None``, unbound; every other position is bound in every
    row, which is known when the RDD is built.

    A row is priced as the dict it stands for, ``{name: value}`` over its
    bound positions: ``8 + sum(8 + len(name) + size(value))``.  So pricing
    needs no test per row of the positions that are always bound.
    """

    def __new__(cls, names: Iterable[str] = (), maybe: Iterable[str] = ()):
        header = super().__new__(cls, names)
        header.maybe = frozenset(maybe).intersection(header)
        always = [
            i for i, name in enumerate(header) if name not in header.maybe
        ]
        #: Per row: the dict's overhead and the names always present.
        header._fixed = 8 + sum(8 + _text_size(header[i]) for i in always)
        header._always = tuple(always)
        header._optional = [
            (i, 8 + _text_size(name))
            for i, name in enumerate(header)
            if name in header.maybe
        ]
        return header

    def __reduce__(self):
        return Header, (tuple(self), self.maybe)

    def price(self, rows: Sequence[tuple]) -> int:
        """What :func:`estimate_sizes` charges for the dicts *rows* stand
        for, by column."""
        always = self._always
        if len(always) == len(self):
            values = list(chain.from_iterable(rows))
        elif not always:
            values = []
        elif len(always) == 1:
            values = list(map(itemgetter(*always), rows))
        else:
            values = list(chain.from_iterable(map(itemgetter(*always), rows)))
        total = self._fixed * len(rows) + _column_size(values)
        for index, cost in self._optional:
            bound = [
                value for row in rows if (value := row[index]) is not None
            ]
            total += cost * len(bound) + _column_size(bound)
        return total

    def price_keyed(
        self, columns: Sequence[Sequence[object]], at, count: int
    ) -> int:
        """What :func:`estimate_sizes` charges for *count* ``(key, row)``
        records with each row a dict, from the rows' *columns*: the key
        is the tuple of a row's values at the positions *at*, or, *at*
        being one position (an int), the bare value there.  Each pair
        costs 16, a key tuple 8 + 4 per item, and every column a key
        or a row reads is sized once."""
        key = (at,) if type(at) is int else tuple(at)
        sizes = {i: _column_size(columns[i]) for i in dict.fromkeys(self._always + key)}
        total = (16 + self._fixed) * count + sum(
            map(sizes.__getitem__, self._always + key)
        )
        if type(at) is not int:
            total += (8 + 4 * len(key)) * count
        for index, cost in self._optional:
            bound = [value for value in columns[index] if value is not None]
            total += cost * len(bound) + _column_size(bound)
        return total


class RowTable(dict):
    """A broadcast build side: join key -> list of rows over *header*,
    priced as the same table of dicts (:meth:`size`)."""

    def __init__(self, header: Header) -> None:
        super().__init__()
        self.header = header

    def size(self) -> int:
        """``estimate_size`` of the table with each row a dict."""
        lists = list(self.values())
        return (
            8 + 8 * len(self)
            + _column_size(list(self))
            + 8 * len(lists) + 4 * sum(map(len, lists))
            + self.header.price(list(chain.from_iterable(lists)))
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable copy of the collector's counters.

    Snapshots support subtraction, so benchmarks measure an operation with::

        before = sc.metrics.snapshot()
        ...  # run the query
        cost = sc.metrics.snapshot() - before
    """

    counters: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.counters.get(name, 0)

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        names = set(self.counters) | set(other.counters)
        return MetricsSnapshot(
            {name: self[name] - other[name] for name in sorted(names)}
        )

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.counters.items()))

    # Convenience accessors for the counters benchmarks care about most.
    @property
    def shuffle_records(self) -> int:
        return self["shuffle_records"]

    @property
    def shuffle_remote_records(self) -> int:
        return self["shuffle_remote_records"]

    @property
    def shuffle_bytes(self) -> int:
        return self["shuffle_bytes"]

    @property
    def join_comparisons(self) -> int:
        return self["join_comparisons"]

    @property
    def records_scanned(self) -> int:
        return self["records_scanned"]

    @property
    def broadcast_bytes(self) -> int:
        return self["broadcast_bytes"]

    @property
    def tasks(self) -> int:
        return self["tasks"]

    @property
    def tasks_failed(self) -> int:
        return self["tasks_failed"]

    @property
    def tasks_retried(self) -> int:
        return self["tasks_retried"]

    @property
    def partitions_recomputed(self) -> int:
        return self["partitions_recomputed"]

    @property
    def recompute_comparisons(self) -> int:
        return self["recompute_comparisons"]

    @property
    def speculative_launches(self) -> int:
        return self["speculative_launches"]

    # Serving-layer counters (see repro.server and docs/SERVER.md).
    @property
    def queries_completed(self) -> int:
        return self["queries_completed"]

    @property
    def lint_rejections(self) -> int:
        return self["lint_rejections"]

    @property
    def deadline_aborts(self) -> int:
        return self["deadline_aborts"]

    @property
    def plan_cache_hits(self) -> int:
        return self["plan_cache_hits"]

    @property
    def plan_cache_misses(self) -> int:
        return self["plan_cache_misses"]

    @property
    def result_cache_hits(self) -> int:
        return self["result_cache_hits"]

    @property
    def result_cache_misses(self) -> int:
        return self["result_cache_misses"]

    @property
    def result_cache_invalidations(self) -> int:
        return self["result_cache_invalidations"]

    def result_cache_hit_rate(self) -> float:
        """Fraction of result-cache lookups answered from the cache."""
        lookups = self.result_cache_hits + self.result_cache_misses
        if lookups == 0:
            return 0.0
        return self.result_cache_hits / lookups

    def locality_fraction(self) -> float:
        """Fraction of shuffled records that stayed on their executor."""
        total = self.shuffle_records
        if total == 0:
            return 1.0
        return 1.0 - self.shuffle_remote_records / total


class MetricsCollector:
    """Mutable counter registry shared by all operators of one context.

    Counter names used by the substrate:

    ``tasks``
        Partition computations executed.
    ``records_scanned``
        Records read from a source RDD/DataFrame partition.
    ``shuffle_records`` / ``shuffle_remote_records`` / ``shuffle_bytes``
        Records (and estimated bytes) moved by shuffles; *remote* counts
        only records whose map and reduce partitions live on different
        virtual executors.
    ``join_comparisons`` / ``join_output_records`` / ``join_probe_lookups``
        Work performed by hash joins.
    ``broadcast_count`` / ``broadcast_records`` / ``broadcast_bytes``
        Data shipped to every executor by broadcast variables.
    ``partitions_scanned``
        Partitions touched by scans (vertical partitioning benchmarks).
    ``tasks_failed`` / ``tasks_retried``
        Injected task failures and the retries recovering from them.
    ``partitions_recomputed`` / ``recompute_comparisons``
        Cached partitions lost to injected faults and rebuilt from
        lineage, and the tasks re-executed to rebuild them (the recovery
        bill, proportional to uncached lineage depth).
    ``stragglers`` / ``straggler_delay_units`` / ``speculative_launches``
        Injected slow tasks, their simulated delay, and speculative
        backup copies launched when speculation is enabled.

    The serving layer (:mod:`repro.server`) keeps its own collector with
    these additional counters:

    ``queries_admitted`` / ``queries_rejected`` / ``queries_completed``
        Requests accepted by admission control, turned away by the
        bounded queue, and finished (any terminal status).
    ``lint_rejections``
        Queries the static plan linter rejected at admission
        (:mod:`repro.analysis.query`) before any service units were
        consumed.
    ``deadline_aborts``
        Queries killed by a cost-unit deadline
        (:class:`~repro.spark.deadline.DeadlineExceededError`).
    ``plan_cache_hits`` / ``plan_cache_misses``
        Parsed-plan reuse keyed on normalized query text.
    ``result_cache_hits`` / ``result_cache_misses`` /
    ``result_cache_invalidations`` / ``result_cache_evictions``
        Result-cache outcomes; invalidations count entries dropped by a
        graph-version bump, evictions count LRU capacity pressure.
    ``queue_wait_units`` / ``service_units``
        Virtual time spent waiting for a worker and executing, in cost
        units (see :mod:`repro.spark.deadline`).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name*, creating it at zero if absent."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def merge_delta(self, delta) -> None:
        """Fold a counter delta (mapping or (name, amount) pairs) in.

        Counters are applied in sorted-name order so the collector's
        internal insertion order -- which leaks into snapshot/JSON
        iteration for fresh counters -- is independent of the order in
        which concurrent workers happened to report.  Integer addition
        itself commutes; the *name ordering* is what needs pinning.
        """
        items = delta.items() if hasattr(delta, "items") else delta
        for name, amount in sorted(items):
            if amount:
                self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(dict(self._counters))

    # -- higher-level recording helpers -------------------------------

    def record_task(self) -> None:
        self.incr("tasks")

    def record_scan(self, num_records: int, partitions: int = 1) -> None:
        self.incr("records_scanned", num_records)
        self.incr("partitions_scanned", partitions)

    def record_shuffle(
        self, records: int, remote_records: int, nbytes: int
    ) -> None:
        self.incr("shuffle_records", records)
        self.incr("shuffle_remote_records", remote_records)
        self.incr("shuffle_bytes", nbytes)
        self.incr("shuffles")

    def record_join(
        self, comparisons: int, probe_lookups: int, output_records: int
    ) -> None:
        self.incr("join_comparisons", comparisons)
        self.incr("join_probe_lookups", probe_lookups)
        self.incr("join_output_records", output_records)

    def record_broadcast(self, records: int, nbytes: int) -> None:
        self.incr("broadcast_count")
        self.incr("broadcast_records", records)
        self.incr("broadcast_bytes", nbytes)

    # -- fault injection & recovery ------------------------------------

    def record_straggler(self, delay_units: int) -> None:
        self.incr("stragglers")
        self.incr("straggler_delay_units", delay_units)

    def record_speculative(self) -> None:
        """A speculative backup copy: its launch and its (duplicated) task."""
        self.incr("speculative_launches")
        self.incr("tasks")

    # -- serving layer --------------------------------------------------

    def record_admission(self, admitted: bool) -> None:
        self.incr("queries_admitted" if admitted else "queries_rejected")

    def record_completion(self, wait_units: int, service_units: int) -> None:
        self.incr("queries_completed")
        self.incr("queue_wait_units", wait_units)
        self.incr("service_units", service_units)
