"""The term table every pickle on a forked context's pipes is encoded over.

A term equal to one the table lists crosses as its index and comes back
as the table's own object; any other term crosses by value, as plain
:mod:`pickle` carries it.  Neither changes what a record *is*: the round
trip is the identity on values, and a blob that names table terms can
only be read under the table.
"""

import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.lubm import LubmGenerator
from repro.rdf.terms import BNode, Literal, Term, URI
from repro.runtime import build_engine
from repro.spark.context import SparkContext
from repro.spark.parallel import parallel_available
from repro.spark.rdd import ShuffleBlocks, TermTable
from repro.spark.row import Row
from repro.sparql.parser import parse_sparql

NS = "http://example.org/"

text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from("\\\"'\n\té日𝄞"),
    ),
    max_size=6,
)
uris = st.builds(URI, text.map(lambda local: NS + local))
terms = st.one_of(
    uris,
    st.builds(BNode, text.filter(bool)),
    st.builds(Literal, text),
    st.builds(Literal, text, datatype=uris),
    st.builds(Literal, text, language=st.sampled_from(["en", "fr-CA"])),
    st.builds(Literal, st.integers(-3, 3)),
)


def twin(term):
    """An equal term that is another object, its facts unknown."""
    return pickle.loads(pickle.dumps(term))


def slots(term):
    return term._hash, term._size, term._placement


def records_over(pick):
    """Records of every shape a pipe carries, whose terms *pick* draws."""
    leaf = st.one_of(pick, st.integers(-9, 9), text)
    return st.one_of(
        st.tuples(pick, pick, pick),
        # A shuffled solution: (key, row), the row unbound at one place.
        st.tuples(st.tuples(pick), st.tuples(pick, st.none(), pick)),
        st.tuples(pick, st.tuples(leaf, leaf)),
        st.tuples(pick, pick).map(lambda values: Row(("s", "o"), values)),
        leaf,
    )


def terms_in(value):
    """*value*'s terms, in a fixed order, nested literals' datatypes aside."""
    if isinstance(value, Term):
        yield value
    elif isinstance(value, Row):
        yield from terms_in(value._values)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from terms_in(item)


@st.composite
def tables_and_records(draw):
    inside = draw(st.lists(terms, min_size=1, max_size=6))
    table = TermTable()
    table.extend([[tuple(inside)]])
    outside = draw(
        st.lists(terms.filter(lambda term: term not in table.index), max_size=4)
    )
    # Equal-but-distinct objects of table terms cross as the table's too.
    pool = inside + [twin(term) for term in inside] + outside
    records = draw(st.lists(records_over(st.sampled_from(pool)), max_size=8))
    return table, records


@given(drawn=tables_and_records())
@settings(max_examples=200, deadline=None)
def test_a_record_crosses_the_codec_unchanged(drawn):
    table, records = drawn
    for term in table.terms:
        assert None not in slots(term)
    # Kept apart from the draw, so no test computes an outside term's facts.
    copy = table.loads(table.dumps(records))
    for sent, received in zip(terms_in(records), terms_in(copy)):
        index = table.index.get(sent)
        if index is None:
            assert received is not sent and slots(received) == (None, None, None)
        else:
            assert received is table.terms[index] and None not in slots(received)
    assert copy == records
    assert list(terms_in(copy)) == list(terms_in(records))


@given(drawn=tables_and_records())
@settings(max_examples=100, deadline=None)
def test_plain_pickle_never_reads_a_table_term(drawn):
    table, records = drawn
    blob = table.dumps(records)
    # A literal outside the table may still name a table term: its datatype.
    named = [
        named
        for term in terms_in(records)
        for named in (term, getattr(term, "datatype", None))
        if named is not None
    ]
    if any(term in table.index for term in named):
        with pytest.raises(pickle.UnpicklingError, match="without the table"):
            pickle.loads(blob)
    else:
        assert pickle.loads(blob) == records


def test_an_empty_table_writes_what_plain_pickle_reads():
    records = [(URI(NS + "a"), Literal("x", language="en")), {"?s": BNode("b1")}]
    table = TermTable()
    assert pickle.loads(table.dumps(records)) == records


def test_the_table_only_grows():
    a, b, c = URI(NS + "a"), Literal("b", datatype=URI(NS + "t")), BNode("c")
    table = TermTable()
    table.extend([[(a, b)], [{"?x": a}]])
    first = list(table.terms)
    blob = table.dumps([(a, b, c)])
    table.extend([[(c, twin(a))]])
    assert table.terms[: len(first)] == first and table.terms[len(first):] == [c]
    assert table.terms[0] is a
    assert table.loads(blob) == [(a, b, c)]


def test_blocks_decode_under_the_table_they_carry():
    a, b = URI(NS + "a"), URI(NS + "b")
    mine, other = TermTable(), TermTable()
    mine.extend([[(a, b)]])
    other.extend([[(b, a)]])
    blocks = ShuffleBlocks([[]], mine)
    blocks.append(ShuffleBlocks.encode([[(a, b)]], mine))
    assert blocks[0] == [(a, b)] and blocks[0][0][0] is a
    assert ShuffleBlocks(blocks.blocks, other)[0] == [(b, a)]  # why it carries one


needs_fork = pytest.mark.skipif(
    not parallel_available(), reason="the parallel backend needs fork"
)


def words(prefix, count):
    return [URI("%s%s%d" % (NS, prefix, i)) for i in range(count)]


def refork_job(ctx):
    """Two jobs, the second wider than the first.  The RDD whose terms
    open the first pool's table is no job's, and is dropped between
    them.  Returns both answers and the shuffle the first job ran."""
    gone = ctx.parallelize([(term, term) for term in words("gone", 6)], 2)
    pairs = [(s, (o, Literal(i))) for i, (s, o) in enumerate(zip(words("s", 8), words("o", 8)))]
    shuffled = ctx.parallelize(pairs, 2).reduceByKey(lambda x, _y: x, 2)
    answers = [sorted(shuffled.collect())]
    del gone
    gc.collect()
    later = ctx.parallelize([(term, None) for term in words("new", 8)], 4)
    answers.append(sorted(shuffled.union(later).collect()))
    return answers, shuffled


@needs_fork
def test_blocks_encoded_before_a_refork_read_the_same_after_it():
    """The wider job forks a second pool.  Its table keeps every index of
    the first -- also those of terms whose RDD is gone -- so the blocks
    the first pool's workers wrote decode in the second pool's workers
    to the records the serial shuffle holds."""
    serial, _ = refork_job(SparkContext(4))
    ctx = SparkContext(4, backend="parallel", workers=4)
    backend, tables, widths = ctx.executor_backend, [], []
    original = backend._pool_for

    def probing(run_ctx):
        pool = original(run_ctx)
        if not widths or widths[-1] != pool.size:
            widths.append(pool.size)
            tables.append(list(backend.terms.terms))
        return pool

    backend._pool_for = probing
    forked, shuffled = refork_job(ctx)
    assert forked == serial
    assert widths == [2, 4]
    first, second = tables
    assert first[:6] == words("gone", 6)
    assert second[: len(first)] == first and second[len(first):] == words("new", 8)
    assert isinstance(shuffled._buckets, ShuffleBlocks)
    assert shuffled._buckets.terms is backend.terms


SNOWFLAKE = "examples/queries/shapes/snowflake/advising_pair.rq"


@needs_fork
def test_snowflake_blocks_take_at_most_half_the_plain_bytes(monkeypatch):
    """A count, not a clock: every shuffle block of the snowflake on
    LUBM-5, through the codec, against the same fragments plain-pickled.
    (A fragment its worker keeps is no block: it never crosses a pipe.)"""
    appended = []
    append = ShuffleBlocks.append

    def recording(self, encoded):
        appended.extend((self.terms, block) for block in encoded if type(block) is bytes)
        append(self, encoded)

    monkeypatch.setattr(ShuffleBlocks, "append", recording)
    graph = LubmGenerator(num_universities=5, seed=42).generate()
    engine = build_engine("SPARQLGX", graph, backend="parallel", workers=2, parallelism=8)
    with open(SNOWFLAKE) as handle:
        engine.execute(parse_sparql(handle.read()))
    assert appended
    coded = sum(len(block) for _table, block in appended)
    plain = sum(len(pickle.dumps(table.loads(block))) for table, block in appended)
    assert coded <= 0.5 * plain, (coded, plain)
