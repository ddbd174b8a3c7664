"""Solution rows: tuples over a header fixed when their RDD is built.

An RDD of solutions holds plain tuples aligned with its ``header`` (a
:class:`~repro.spark.metrics.Header`: the variable names in order, and
which of them a row may leave unbound, ``None``), as its records or as
the values of ``(key, row)`` pairs.  Everything done to rows is a kernel
written from headers alone, once per operator: a key (:func:`keyer`), a
layout (:func:`layout`), a decode (:func:`decoder`) and a join's merge
(:class:`RowJoin`, run by :func:`join_rows`).  A shuffle or a broadcast
of rows prices each as the dict it stands for; pairs keyed by
:func:`keyed` record where their keys were cut from, so a shuffle map
task places and prices them from the row columns.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Union

from repro.spark.kernels import comprehension, generate
from repro.spark.metrics import Header


def rows(rdd, header: Header, key: Union[None, str, Sequence[str]] = None):
    """*rdd*, marked as holding rows over *header* (``RDD.header``); with
    *key*, as holding ``(key, row)`` pairs keyed as :func:`keyer` keys
    them by *key*, whose positions it records (``RDD.key_at``)."""
    rdd.header = header
    if isinstance(key, str):
        rdd.key_at = header.index(key)
    elif key is not None:
        rdd.key_at = tuple(map(header.index, key))
    return rdd


def keyer(key: Union[str, Sequence[str]], header: Sequence[str]) -> Callable:
    """The function from a partition of rows over *header* to its
    ``(key, row)`` pairs, the key being the tuple of the row's values for
    the names in *key*, or, *key* being one name, the bare value for it:
    one comprehension with the positions spelled out, no call per
    record."""
    if isinstance(key, str):
        return comprehension("key", "(r[%d], r)" % header.index(key), "r")
    items = "".join("r[%d], " % header.index(name) for name in key)
    return comprehension("key", "((%s), r)" % items, "r")


def keyed(rdd, key: Union[str, Sequence[str]]):
    """*rdd*'s rows as their :func:`keyer` pairs, marked with the key's
    positions, so a shuffle places and prices them by row column."""
    return rows(rdd.mapPartitions(keyer(key, rdd.header)), rdd.header, key)


def layout(header: Sequence[str], names: Sequence[str]) -> Callable:
    """Rows over *header* laid out over *names* (``None`` where absent)."""
    return comprehension(
        "layout",
        "(%s)" % "".join(
            "r[%d], " % header.index(name) if name in header else "None, "
            for name in names
        ),
        "r",
    )


def decoder(terms: Sequence[Any], header: Sequence[str]) -> Callable:
    """Rows of dictionary ids over *header* as the same rows of terms:
    one comprehension, *terms* (indexed by id) its one constant."""
    return comprehension(
        "decode",
        "(%s)" % "".join("t[r[%d]], " % i for i in range(len(header))),
        "r",
        namespace={"t": terms},
    )


class RowJoin:
    """What a join of rows over *left* with rows over *right* on *shared*
    computes once, from the two headers: its key, its output header, and
    the text of a merged row ``l + (r[2], r[0])`` for kernels.

    The key is the shared names both sides bind in every row.  A shared
    name either side may leave unbound is a compatibility test instead:
    unbound agrees with anything, and the bound value wins.  The output
    header is *left*'s names, then *right*'s new ones: the key order of
    a merge of two dicts, left then right.
    """

    def __init__(
        self,
        left: Header,
        right: Header,
        shared: Sequence[str],
        how: str = "inner",
    ) -> None:
        if how not in ("inner", "left"):
            raise ValueError("unknown join type %r" % how)
        self.how = how
        maybe = left.maybe | right.maybe
        self.key = tuple(name for name in shared if name not in maybe)
        new = [name for name in right if name not in left]
        if how == "left":
            unbound = left.maybe | set(new)
        else:
            always_right = set(right) - right.maybe
            unbound = (left.maybe - always_right) | (right.maybe & set(new))
        self.header = Header(tuple(left) + tuple(new), unbound)
        tested = {
            left.index(name): right.index(name)
            for name in shared
            if name in maybe
        }
        taken = "".join("r[%d], " % right.index(name) for name in new)
        self.merged = "l + (%s)" % taken
        if tested:
            self.merged = "(%s%s)" % (
                "".join(
                    "(l[{0}] if l[{0}] is not None else r[{1}]), ".format(
                        i, tested[i]
                    )
                    if i in tested
                    else "l[%d], " % i
                    for i in range(len(left))
                ),
                taken,
            )
        self.compatible = " and ".join(
            "(l[{0}] is None or r[{1}] is None or l[{0}] == r[{1}])".format(
                i, j
            )
            for i, j in tested.items()
        ) or None
        self.padded = "l + (%s)" % ("None, " * len(new))
        #: The test that ``l`` and ``r`` agree on the key, for a kernel
        #: that joins without keying.
        self.equal = " and ".join(
            "l[%d] == r[%d]" % (left.index(name), right.index(name))
            for name in self.key
        )

    def kernel(self, element: str, target: str) -> Callable:
        """``[element for target in part if compatible]``, *element*'s
        ``{row}`` being the merged row of ``l`` and ``r``."""
        return comprehension(
            "merge", element.format(row=self.merged), target, self.compatible
        )

    def extend(self) -> Callable:
        """``extend(part, l)``: *l* merged with each compatible row of
        *part*, the matches a probe of a hash table found."""
        test = "" if self.compatible is None else " if " + self.compatible
        text = "[%s for r in part%s]" % (self.merged, test)
        return generate(
            "extend " + text, "extend = lambda part, l: %s\n" % text, {}
        )["extend"]

    def pairs(self) -> Callable:
        """The merged rows of a join's ``(key, (l, r))`` pairs; a left
        row with no partner (``r`` is None) is padded."""
        if self.how == "left":
            return comprehension(
                "merge",
                "%s if r is not None else %s" % (self.merged, self.padded),
                "_, (l, r)",
            )
        return self.kernel("{row}", "_, (l, r)")

    def groups(self, metrics) -> Callable:
        """The left join of co-grouped rows under the compatibility test:
        each left row with its compatible partners, else padded alone."""
        text = "[x for l in ls for x in ([%s for r in rs if %s] or [%s])]" % (
            self.merged, self.compatible, self.padded
        )
        outer = generate(
            "outer " + text, "outer = lambda ls, rs: %s\n" % text, {}
        )["outer"]

        def emit(part: List[Any]) -> List[tuple]:
            out = [row for _key, (ls, rs) in part for row in outer(ls, rs)]
            comparisons = sum(
                [(len(ls) or 1) * (len(rs) or 1) for _key, (ls, rs) in part]
            )
            metrics.record_join(comparisons, len(part), len(out))
            return out

        return emit


def join_rows(left, right, shared: Sequence[str], how: str = "inner"):
    """The keyed hash join of two RDDs of rows on *shared*, as a lazy
    RDD of rows (``how`` is ``"inner"`` or ``"left"``).

    A shared name a side may leave unbound is tested, not keyed on.  An
    inner join keyed on nothing is the cartesian product under that
    test; a left join keyed on nothing is one group (the empty key), so
    a left row with no partner is kept."""
    join = RowJoin(left.header, right.header, shared, how)
    if not join.key and how == "inner":
        product = left.cartesian(right)
        return rows(
            product.mapPartitions(join.kernel("{row}", "(l, r)")), join.header
        )
    left_pairs = keyed(left, join.key)
    right_pairs = keyed(right, join.key)
    if how == "inner":
        merged = left_pairs.join(right_pairs).mapPartitions(join.pairs())
    elif join.compatible is None:
        merged = left_pairs.leftOuterJoin(right_pairs).mapPartitions(
            join.pairs()
        )
    else:
        merged = left_pairs.cogroup(right_pairs).mapPartitions(
            join.groups(left.ctx.metrics)
        )
    return rows(merged, join.header)


def union_rows(left, right):
    """The rows of both RDDs: one ``union`` when their headers name the
    same variables in the same order; else each side is first laid out
    over the union's header (*left*'s names, then *right*'s new ones),
    a name a side lacks unbound in its rows."""
    names = tuple(left.header) + tuple(
        name for name in right.header if name not in left.header
    )
    unbound = (
        left.header.maybe
        | right.header.maybe
        | set(names).difference(left.header)
        | set(names).difference(right.header)
    )
    if tuple(left.header) != names:
        left = left.mapPartitions(layout(left.header, names))
    if tuple(right.header) != names:
        right = right.mapPartitions(layout(right.header, names))
    return rows(left.union(right), Header(names, unbound))
