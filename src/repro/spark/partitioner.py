"""Partitioners: the policy objects that place keyed records on partitions.

The paper identifies data partitioning as *the* neglected dimension of the
surveyed systems (Section V).  Everything the systems do about placement --
HAQWA's subject hashing, SPARQLGX's vertical partitioning, SparkRDF's
dynamic pre-partitioning -- is expressed here as a :class:`Partitioner`
subclass handed to :meth:`RDD.partitionBy`.
"""

from __future__ import annotations

import zlib
from operator import attrgetter
from typing import List, Optional, Sequence

from repro.rdf.terms import BNode, Literal, Term, URI


def stable_hash(value: object) -> int:
    """A deterministic, process-independent hash.

    Python's builtin ``hash`` is salted per process for strings; a simulated
    cluster must place the same key on the same partition across runs so
    tests and benchmarks are reproducible.

    In full: ``str``/``bytes`` hash to the CRC-32 of their (UTF-8) bytes,
    bools to 0/1, ints to their low 32 bits, ``None`` to 0, a tuple folds
    its items' hashes (``acc = acc * 31 + h``, 32-bit, from 0x811C9DC5)
    and anything else -- floats, lists, RDF terms -- hashes the CRC-32 of
    its ``repr``, which a term computes once
    (:meth:`~repro.rdf.terms.Term.placement_hash`).  Every shuffled key
    is placed here, so a tuple folds its terms in its own loop.
    """
    if isinstance(value, tuple):
        acc = 0x811C9DC5
        for item in value:
            kind = type(item)
            if kind is URI or kind is Literal or kind is BNode:
                placed = item._placement
                if placed is None:
                    placed = item.placement_hash()
            else:
                placed = stable_hash(item)
            acc = (acc * 31 + placed) & 0xFFFFFFFF
        return acc
    if isinstance(value, Term):
        return value.placement_hash()
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0xFFFFFFFF
    if value is None:
        return 0
    return zlib.crc32(repr(value).encode("utf-8"))


_TERM_KINDS = frozenset((URI, Literal, BNode))
_PLACEMENT = attrgetter("_placement")


def _column_hashes(column: Sequence[object]) -> Optional[List[int]]:
    """``stable_hash`` of every value of *column*, with no call per value:
    terms from the hash each keeps, ints, and tuples of one length folded
    item column by item column (a 1-tuple, the usual join key, folds once
    from 0x811C9DC5).  None for a column of any other kind."""
    kinds = set(map(type, column))
    if kinds == {int}:
        return [value & 0xFFFFFFFF for value in column]
    if kinds <= _TERM_KINDS:
        placed = list(map(_PLACEMENT, column))
        if None in placed:  # a term nobody placed yet
            placed = [term.placement_hash() for term in column]
        return placed
    if kinds != {tuple} or len(set(map(len, column))) != 1:
        return None
    folded = [0x811C9DC5] * len(column)
    for items in zip(*column):
        placed = _column_hashes(items)
        if placed is None:
            return None
        folded = [
            (acc * 31 + h) & 0xFFFFFFFF for acc, h in zip(folded, placed)
        ]
    return folded


class Partitioner:
    """Maps a record key to a partition index in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive, got %d" % num_partitions)
        self.num_partitions = num_partitions

    def partition_for(self, key: object) -> int:
        raise NotImplementedError

    def partitions_for(self, keys: Sequence[object]) -> List[int]:
        """:meth:`partition_for` of every key: what a shuffle map task
        asks, once for all its records."""
        return list(map(self.partition_for, keys))

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))

    def __repr__(self) -> str:
        return "%s(num_partitions=%d)" % (type(self).__name__, self.num_partitions)


class HashPartitioner(Partitioner):
    """Spark's default: ``stable_hash(key) mod num_partitions``."""

    def partition_for(self, key: object) -> int:
        return stable_hash(key) % self.num_partitions

    def partitions_for(self, keys: Sequence[object]) -> List[int]:
        n = self.num_partitions
        hashes = _column_hashes(keys)
        if hashes is None:
            return [stable_hash(key) % n for key in keys]
        return [h % n for h in hashes]
