"""``estimate_size`` and ``stable_hash`` against their definitions.

Both functions price every shuffled record, so they are written as
loops over exact types that read what a term already knows about
itself.  The definitions they must equal, bit for bit, are the
recursive ones below -- kept here, as oracles, exactly as the substrate
had them before terms carried their own size and placement.
"""

import collections
import multiprocessing
import pickle
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.terms import BNode, Literal, URI
from repro.spark.context import SparkContext
from repro.spark.metrics import (
    Header,
    RowTable,
    estimate_size,
    estimate_sizes,
)
from repro.spark.parallel import parallel_available
from repro.spark.partitioner import HashPartitioner, Partitioner, stable_hash
from repro.spark.rows import keyed, rows


def reference_size(value):
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (tuple, list, set, frozenset)):
        return 8 + sum(reference_size(item) + 4 for item in value)
    if isinstance(value, dict):
        return 8 + sum(
            reference_size(k) + reference_size(v) + 8
            for k, v in value.items()
        )
    return len(repr(value))


def reference_hash(value):
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0xFFFFFFFF
    if isinstance(value, float):
        return zlib.crc32(repr(value).encode("utf-8"))
    if isinstance(value, tuple):
        acc = 0x811C9DC5
        for item in value:
            acc = (acc * 31 + reference_hash(item)) & 0xFFFFFFFF
        return acc
    if value is None:
        return 0
    return zlib.crc32(repr(value).encode("utf-8"))


Pair = collections.namedtuple("Pair", "left right")

#: Non-ASCII, quotes, backslashes and control characters: everything
#: that makes ``repr`` and UTF-8 lengths differ from ``len``.
text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from("\\\"'\n\r\t\x00é日本𝄞"),
    ),
    max_size=12,
)
uris = st.builds(URI, text.filter(bool))
literals = st.one_of(
    st.builds(Literal, text),
    st.builds(Literal, text, datatype=uris),
    st.builds(
        Literal, text, language=st.sampled_from(["en", "fr-CA", "el"])
    ),
    st.builds(Literal, st.integers(-5, 5)),
    st.builds(Literal, st.booleans()),
)
terms = st.one_of(uris, literals, st.builds(BNode, text.filter(bool)))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    text,
    st.binary(max_size=8),
    terms,
)
hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), text, terms
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(inner, inner).map(lambda pair: Pair(*pair)),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        st.dictionaries(hashable_leaves, inner, max_size=4),
        st.dictionaries(hashable_leaves, inner, max_size=4).map(
            collections.OrderedDict
        ),
    ),
    max_leaves=12,
)


def facts(value):
    return estimate_size(value), stable_hash(value)


@given(value=values)
@settings(max_examples=300, deadline=None)
def test_equal_to_the_definitions(value):
    expected = reference_size(value), reference_hash(value)
    assert facts(value) == expected
    # Again, now that every term inside has its slots filled.
    assert facts(value) == expected


@given(value=values)
@settings(max_examples=150, deadline=None)
def test_equal_after_a_pickle_round_trip(value):
    facts(value)  # fill the slots of the original
    copy = pickle.loads(pickle.dumps(value))
    # (A set's repr, so its hash, follows its iteration order, which a
    # round trip may change: the copy is held to the copy's definition.)
    assert facts(copy) == (reference_size(value), reference_hash(copy))


# A shuffle map task prices and places its records by column: the
# columns below pick each branch -- one exact kind, kinds mixed, bools
# among ints (``type(True) is not int``), names that are not ASCII,
# keys of length 0, 1, 2 and ragged, bare keys -- next to anything at
# all from *values*.
ints = st.integers(-(2**40), 2**40)
names = st.one_of(st.sampled_from(["s", "o", "name", "é", "日本"]), text)
key_kinds = [
    st.tuples(terms),
    st.tuples(terms, terms),
    st.tuples(ints),
    st.tuples(ints, ints),
    st.tuples(st.one_of(ints, st.booleans())),
    st.tuples(st.one_of(ints, terms)),
    st.just(()),
    st.lists(terms, max_size=3).map(tuple),
    terms,
    ints,
    hashable_leaves,
    values,
]
value_kinds = [
    st.dictionaries(names, terms, max_size=4),
    st.dictionaries(names, ints, max_size=4),
    st.dictionaries(names, leaves, max_size=4),
    st.lists(terms, max_size=3),
    st.tuples(st.dictionaries(names, terms, max_size=2), st.none()),
    terms,
    ints,
    text,
    values,
]
pair_columns = st.tuples(
    st.sampled_from(key_kinds), st.sampled_from(value_kinds)
).flatmap(lambda kinds: st.lists(st.tuples(*kinds), max_size=6))
record_lists = st.one_of(pair_columns, st.lists(values, max_size=6))


@given(records=record_lists)
@settings(max_examples=400, deadline=None)
def test_a_column_is_priced_like_its_records(records):
    expected = sum(map(reference_size, records))
    # Fresh from the pipe no term knows its size; then every term does.
    copy = pickle.loads(pickle.dumps(records))
    assert estimate_sizes(copy) == expected
    assert estimate_sizes(copy) == expected
    assert estimate_sizes(records) == expected
    assert estimate_sizes(tuple(records)) == expected


bindings = st.dictionaries(names, terms, max_size=4)
#: What engines broadcast: a hash join's build side (key tuples to the
#: bindings that carry them), Spar(k)ql-S2X's candidate sets, a list of
#: pairs, a bare term -- and anything at all.
broadcast_values = st.one_of(
    st.dictionaries(
        st.one_of(*key_kinds[:4]), st.lists(bindings, max_size=3), max_size=5
    ),
    st.dictionaries(names, st.sets(terms, max_size=3), max_size=3),
    pair_columns,
    terms,
    values,
)


@given(value=broadcast_values)
@settings(max_examples=300, deadline=None)
def test_a_broadcast_is_priced_like_its_value(value):
    expected = reference_size(value)
    copy = pickle.loads(pickle.dumps(value))
    assert estimate_sizes((copy,)) == expected == estimate_size(copy)
    ctx = SparkContext(num_executors=3)
    ctx.broadcast(value)
    assert ctx.metrics.snapshot()["broadcast_bytes"] == 3 * expected


#: What a row's column holds: terms, ints or strings, one kind or mixed.
column_kinds = [
    terms, ints, text, st.one_of(terms, ints), st.one_of(ints, text)
]


@st.composite
def keyed_rows(draw):
    """(header, key, rows): distinct names, ASCII or not, none at all
    too; some may be unbound, and a row holds None only there; each
    column its own kind.  The key is a tuple of the names (none, some
    or all, in any order) or one name, its bare value; a key name may
    be one a row leaves unbound."""
    header_names = draw(st.lists(names, unique=True, max_size=4))
    maybe = set()
    if header_names:
        maybe = draw(st.sets(st.sampled_from(header_names)))
    row = st.tuples(
        *(
            st.one_of(st.none(), kind) if name in maybe else kind
            for name in header_names
            for kind in [draw(st.sampled_from(column_kinds))]
        )
    )
    if header_names and draw(st.booleans()):
        key = draw(st.sampled_from(header_names))
    else:
        key = tuple(
            draw(st.permutations(header_names))[: draw(
                st.integers(0, len(header_names))
            )]
        )
    table = draw(st.lists(row, max_size=8))
    return Header(header_names, maybe), key, table


def cut(header, key, row):
    """The key a row over *header* is shuffled under: its value for one
    name, or the tuple of its values for a tuple of names."""
    if isinstance(key, str):
        return row[header.index(key)]
    return tuple(row[header.index(name)] for name in key)


def as_dict(header, row):
    """The binding a row stands for: its bound names."""
    return {
        name: value for name, value in zip(header, row) if value is not None
    }


def prices_rows(examples):
    """Rows keyed by their own values -- shuffled, priced by column
    directly, and broadcast as a build table -- cost exactly what the
    same records and table of dicts cost, and a shuffle places each
    where ``stable_hash`` of its key says."""

    @given(keyed_table=keyed_rows(), num_partitions=st.integers(1, 16))
    @settings(max_examples=examples, deadline=None)
    def test(keyed_table, num_partitions):
        header, key, table = keyed_table
        records = [(cut(header, key, row), row) for row in table]
        dicts = [(k, as_dict(header, row)) for k, row in records]
        expected = sum(map(reference_size, dicts))
        assert estimate_sizes(dicts) == expected
        if isinstance(key, str):
            at = header.index(key)
        else:
            at = tuple(map(header.index, key))
        keys = [k for k, _row in records]
        if table:
            # Fresh from the pipe no term knows its size or placement;
            # then every term does.
            copy = pickle.loads(pickle.dumps(table))
            for table_rows in (copy, copy, table):
                columns = list(zip(*table_rows))
                count = len(table_rows)
                assert header.price_keyed(columns, at, count) == expected
                assert HashPartitioner(num_partitions).partitions_at(
                    columns, at, count
                ) == [reference_hash(k) % num_partitions for k in keys]
                by_length = _ByReprLength(num_partitions)
                assert by_length.partitions_at(columns, at, count) == [
                    by_length.partition_for(k) for k in keys
                ]
        table_of, dict_table = RowTable(header), {}
        for k, row in records:
            table_of.setdefault(k, []).append(row)
            dict_table.setdefault(k, []).append(as_dict(header, row))
        assert table_of.size() == reference_size(dict_table)
        ctx = SparkContext(num_executors=3)
        ctx.broadcast(table_of)
        assert ctx.metrics.snapshot()["broadcast_bytes"] == 3 * table_of.size()
        # A shuffle of the keyed rows charges the dicts' price, and puts
        # every record where a shuffle of the same pairs, keys and all,
        # puts it.
        pairs = keyed(rows(ctx.parallelize(table, 2), header), key)
        assert pairs.key_at == at
        partitioner = HashPartitioner(num_partitions)
        before = ctx.metrics.snapshot()
        placed = pairs.partitionBy(partitioner).collectPartitions()
        assert (ctx.metrics.snapshot() - before).shuffle_bytes == expected
        assert placed == (
            ctx.parallelize(records, 2).partitionBy(partitioner)
        ).collectPartitions()
        assert all(
            reference_hash(k) % num_partitions == index
            for index, part in enumerate(placed)
            for k, _row in part
        )

    return test


test_rows_are_priced_as_the_dicts_they_stand_for = prices_rows(300)
test_rows_are_priced_as_the_dicts_they_stand_for_deep = pytest.mark.slow(
    prices_rows(5000)
)


class _ByReprLength(Partitioner):
    """A partitioner that keeps the base class's column placement."""

    def partition_for(self, key):
        return len(repr(key)) % self.num_partitions


def places_keys(examples):
    """A column of keys is placed as each key is, through
    ``partitions_for`` and, as the row columns a key is cut from,
    through ``partitions_at``."""

    @given(
        keys=st.one_of(*(st.lists(kind, max_size=6) for kind in key_kinds)),
        num_partitions=st.integers(1, 16),
    )
    @settings(max_examples=examples, deadline=None)
    def test(keys, num_partitions):
        # Fresh from the pipe no term knows its placement; then every
        # term does.  (The copy is held to the copy's definition, see
        # above.)
        copy = pickle.loads(pickle.dumps(keys))
        expected = [reference_hash(key) % num_partitions for key in copy]
        hashed = HashPartitioner(num_partitions)
        assert hashed.partitions_for(copy) == expected
        assert hashed.partitions_for(copy) == expected
        assert hashed.partitions_for(tuple(copy)) == expected
        assert [hashed.partition_for(key) for key in copy] == expected
        assert hashed.partitions_at([copy], 0, len(copy)) == expected
        widths = {len(key) for key in copy if type(key) is tuple}
        tuples = all(type(key) is tuple for key in copy)
        if copy and tuples and len(widths) == 1:
            # The key tuples' items as row columns, in reverse order.
            (width,) = widths
            columns = list(zip(*copy))[::-1]
            at = tuple(range(width))[::-1]
            assert hashed.partitions_at(columns, at, len(copy)) == expected
        by_length = _ByReprLength(5)
        assert by_length.partitions_for(keys) == [
            by_length.partition_for(key) for key in keys
        ]

    return test


test_a_column_is_placed_like_its_keys = places_keys(400)
test_a_column_is_placed_like_its_keys_deep = pytest.mark.slow(
    places_keys(5000)
)


@given(term=terms)
@settings(max_examples=100, deadline=None)
def test_a_term_crosses_the_pipe_without_its_facts(term):
    bare = pickle.dumps(term)
    facts(term)
    hash(term)
    assert pickle.dumps(term) == bare
    copy = pickle.loads(bare)
    assert (copy._hash, copy._size, copy._placement) == (None, None, None)
    assert copy == term and facts(copy) == facts(term)


def _facts_in_child(values, conn):
    conn.send([facts(value) for value in values])
    conn.close()


@pytest.mark.skipif(
    not parallel_available(), reason="the parallel backend needs fork"
)
def test_equal_across_a_fork():
    """A forked worker computes (or inherits) the same facts: nothing
    here depends on the process, unlike the salted builtin ``hash``."""
    a, b = URI("http://x/é"), Literal('say "hi"\n', language="en")
    warm = ((a, b), {"x": a, "n": Literal(3)}, [BNode("b0"), 2.5, None])
    cold = ((URI("http://x/cold"),), {"y": Literal("日本", datatype=a)})
    facts(warm)  # filled before the fork; *cold* is filled in the child
    mp = multiprocessing.get_context("fork")
    receiver, sender = mp.Pipe(duplex=False)
    child = mp.Process(target=_facts_in_child, args=((warm, cold), sender))
    child.start()
    sender.close()
    assert receiver.poll(30)
    from_child = receiver.recv()
    child.join(30)
    assert not child.is_alive() and child.exitcode == 0
    assert from_child == [facts(warm), facts(cold)]
    assert from_child == [
        (reference_size(v), reference_hash(v)) for v in (warm, cold)
    ]
