"""The statistics catalog: correctness, determinism, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evolution.versioned import VersionedGraph
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.stats import StatsCatalog
from repro.stats.catalog import (
    MAX_PAIR_PREDICATES,
    CharacteristicSet,
    PredicateStats,
    _factors,
)
from tests.graph_edits import apply_edits, edit_scripts, linked_scripts

EX = "http://example.org/"


def _uri(name):
    return URI(EX + name)


#: A first advisor for :func:`small_graph`'s loner.
LONER_ADVISOR = Triple(_uri("loner"), _uri("advisor"), _uri("a1"))


@pytest.fixture(scope="module")
def small_graph():
    """Two advisors with papers, one loner: known exact statistics."""
    graph = RDFGraph()
    for student, advisor in (("s1", "a1"), ("s2", "a1"), ("s3", "a2")):
        graph.add(Triple(_uri(student), _uri("advisor"), _uri(advisor)))
    for student in ("s1", "s2"):
        graph.add(Triple(_uri(student), _uri("writes"), _uri("p_" + student)))
    graph.add(Triple(_uri("loner"), _uri("writes"), _uri("p_loner")))
    return graph


def test_totals_match_graph(lubm_graph):
    catalog = StatsCatalog.from_graph(lubm_graph)
    assert catalog.triples == len(lubm_graph)
    assert catalog.distinct_subjects == len(lubm_graph.subjects())
    assert catalog.distinct_predicates == len(lubm_graph.predicates())
    assert catalog.distinct_objects == len(lubm_graph.objects())


def test_per_predicate_counts_match_graph(lubm_graph):
    catalog = StatsCatalog.from_graph(lubm_graph)
    expected = {
        term.n3(): count
        for term, count in lubm_graph.predicate_counts().items()
    }
    assert {
        p: stats.count for p, stats in catalog.predicates.items()
    } == expected
    assert catalog.predicate_count("<http://example.org/nope>") == 0
    assert catalog.predicate_stats("<http://example.org/nope>") is None


def test_characteristic_sets_partition_subjects(small_graph):
    catalog = StatsCatalog.from_graph(small_graph)
    by_preds = {cs.predicates: cs for cs in catalog.characteristic_sets}
    advisor, writes = _uri("advisor").n3(), _uri("writes").n3()
    assert by_preds[(advisor, writes)].subjects == 2  # s1, s2
    assert by_preds[(advisor,)].subjects == 1  # s3
    assert by_preds[(writes,)].subjects == 1  # loner
    assert (
        sum(cs.subjects for cs in catalog.characteristic_sets)
        == catalog.distinct_subjects
    )


def test_star_cardinality_exact_on_small_graph(small_graph):
    catalog = StatsCatalog.from_graph(small_graph)
    advisor, writes = _uri("advisor").n3(), _uri("writes").n3()
    # Joining the two partitions on the subject yields exactly s1 and s2.
    assert catalog.star_cardinality([advisor, writes]) == pytest.approx(2.0)
    assert catalog.star_cardinality([advisor]) == pytest.approx(3.0)
    assert catalog.star_cardinality(["<http://example.org/nope>"]) is None


def test_pair_selectivity_fractions(small_graph):
    catalog = StatsCatalog.from_graph(small_graph)
    advisor, writes = _uri("advisor").n3(), _uri("writes").n3()
    # 2 of the 3 advisor triples have a subject that also writes.
    assert catalog.selectivity("ss", advisor, writes) == pytest.approx(2 / 3)
    # 2 of the 3 writes triples have a subject with an advisor.
    assert catalog.selectivity("ss", writes, advisor) == pytest.approx(2 / 3)
    # No advisor object is ever a writing subject: total reduction.
    assert catalog.selectivity("os", writes, advisor) == 0.0
    # Unstored pairs (same predicate is never stored) default to 1.0.
    assert catalog.selectivity("ss", advisor, advisor) == 1.0
    with pytest.raises(ValueError):
        catalog.selectivity("oo", advisor, writes)


def test_json_round_trip_and_build_determinism(lubm_graph):
    first = StatsCatalog.from_graph(lubm_graph, version=3)
    second = StatsCatalog.from_graph(lubm_graph, version=3)
    assert first.to_json() == second.to_json()
    restored = StatsCatalog.from_json(first.to_json())
    assert restored.version == 3
    assert restored.to_json() == first.to_json()
    assert restored.summary() == first.summary()


def triple_walk_catalog(graph):
    """The catalog counted triple by triple, the way ``from_graph`` did
    before it read the graph's indexes: the reference for the index walk."""
    count, subjects, objects, per_subject = {}, {}, {}, {}
    for triple in graph:
        p = triple.predicate.n3()
        count[p] = count.get(p, 0) + 1
        for table, term in ((subjects, triple.subject), (objects, triple.object)):
            row = table.setdefault(p, {})
            row[term] = row.get(term, 0) + 1
        row = per_subject.setdefault(triple.subject, {})
        row[p] = row.get(p, 0) + 1
    grouped = {}
    for row in per_subject.values():
        entry = grouped.setdefault(tuple(sorted(row)), [0, {}])
        entry[0] += 1
        for p, n in row.items():
            entry[1][p] = entry[1].get(p, 0) + n
    return StatsCatalog(
        triples=len(graph),
        distinct_subjects=len({t.subject for t in graph}),
        distinct_predicates=len(count),
        distinct_objects=len({t.object for t in graph}),
        predicates={
            p: PredicateStats(count[p], len(subjects[p]), len(objects[p]))
            for p in count
        },
        characteristic_sets=[
            CharacteristicSet(key, n, occ) for key, (n, occ) in grouped.items()
        ],
        pair_selectivity=_factors(
            StatsCatalog._pair_survivors(subjects, objects), count
        ),
    )


def test_index_walk_equals_triple_walk_on_lubm(lubm_graph):
    assert (
        StatsCatalog.from_graph(lubm_graph).to_json()
        == triple_walk_catalog(lubm_graph).to_json()
    )


@settings(max_examples=200, deadline=None)
@given(script=edit_scripts)
def test_edited_graph_catalog_equals_fresh_graph_catalog(script):
    """Bytes depend on the triples held, not on the edits that got there
    (a removed predicate, subject or object leaves nothing behind)."""
    graph = RDFGraph()
    apply_edits(graph, script)
    expected = triple_walk_catalog(RDFGraph(sorted(graph))).to_json()
    assert StatsCatalog.from_graph(graph).to_json() == expected
    assert StatsCatalog.from_graph(graph.copy()).to_json() == expected


def test_from_payload_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        StatsCatalog.from_payload({"format": 999})


# ----------------------------------------------------------------------
# Maintenance by delta
# ----------------------------------------------------------------------


def carry_forward(store, catalog, changes):
    """Commit each ``(additions, deletions)`` of *changes* to *store* and
    carry *catalog* along: after every commit it is byte-equal to a full
    pass over the head, and the catalog it came from is left as it was
    (plans, lint and routing may still hold it)."""
    for additions, deletions in changes:
        before = catalog.to_json()
        version = store.commit(additions, deletions)
        carried = catalog.apply_delta(
            store.delta(version), store.head(), version
        )
        fresh = StatsCatalog.from_graph(store.head(), version)
        assert carried.to_json() == fresh.to_json()
        assert carried.pair_survivors == fresh.pair_survivors
        assert catalog.to_json() == before
        catalog = carried
    return catalog


def as_commit(script):
    return (
        [t for is_add, t in script if is_add],
        [t for is_add, t in script if not is_add],
    )


@settings(max_examples=150, deadline=None)
@given(
    base=edit_scripts,
    commits=st.lists(st.one_of(edit_scripts, linked_scripts), max_size=6),
)
def test_apply_delta_equals_from_graph_after_every_commit(base, commits):
    graph = RDFGraph()
    apply_edits(graph, base)
    store = VersionedGraph(graph)
    carry_forward(
        store,
        StatsCatalog.from_graph(store.head()),
        [as_commit(script) for script in commits],
    )


LUBM = "http://repro.example.org/lubm#"
MENTORS = Triple(
    URI(LUBM + "Student0_0_0"), URI(LUBM + "mentors"), URI(LUBM + "Student0_0_1")
)


def test_apply_delta_brings_a_predicate_in_and_takes_its_last_triple_out(
    lubm_graph,
):
    store = VersionedGraph(lubm_graph)
    catalog = carry_forward(
        store, StatsCatalog.from_graph(store.head()), [([MENTORS], [])]
    )
    assert catalog.predicate_count(MENTORS.predicate.n3()) == 1
    catalog = carry_forward(store, catalog, [([], [MENTORS])])
    assert catalog.predicate_stats(MENTORS.predicate.n3()) is None
    assert not any(
        MENTORS.predicate.n3() in key for key in catalog.pair_survivors
    )


def test_apply_delta_drops_a_subject_with_its_last_triple(lubm_graph):
    store = VersionedGraph(lubm_graph)
    subject = min(
        lubm_graph.subjects(),
        key=lambda s: (len(list(lubm_graph.triples((s, None, None)))), s),
    )
    doomed = list(lubm_graph.triples((subject, None, None)))
    catalog = carry_forward(
        store, StatsCatalog.from_graph(store.head()), [([], doomed)]
    )
    assert catalog.distinct_subjects == len(lubm_graph.subjects()) - 1


def test_apply_delta_of_an_empty_commit_only_restamps(lubm_graph):
    store = VersionedGraph(lubm_graph)
    first = StatsCatalog.from_graph(store.head())
    carried = carry_forward(store, first, [([], []), ([], [])])
    assert carried.version == 2
    assert carried.to_payload() == dict(first.to_payload(), version=2)


def test_apply_delta_across_the_pair_predicate_cap(small_graph):
    """Past the cap the pairs go and the rest is still carried; back
    under it the pairs need every term, so that commit is a full pass."""
    store = VersionedGraph(small_graph)
    extra = [
        Triple(_uri("s1"), _uri("extra%d" % n), _uri("s2"))
        for n in range(MAX_PAIR_PREDICATES)
    ]
    catalog = carry_forward(
        store,
        StatsCatalog.from_graph(store.head()),
        [(extra[:-2], []), (extra[-2:], []), ([LONER_ADVISOR], extra[:1])],
    )
    assert catalog.distinct_predicates > MAX_PAIR_PREDICATES
    assert catalog.pair_survivors is None and catalog.pair_selectivity == {}
    catalog = carry_forward(store, catalog, [([], extra[1:3])])
    assert catalog.distinct_predicates <= MAX_PAIR_PREDICATES
    assert catalog.pair_selectivity


def test_apply_delta_on_a_catalog_read_back_from_json(small_graph):
    """JSON keeps the rounded factors, not the counts: the first commit
    after reading one back is a full pass."""
    store = VersionedGraph(small_graph)
    restored = StatsCatalog.from_json(
        StatsCatalog.from_graph(store.head()).to_json()
    )
    assert restored.pair_survivors is None
    carry_forward(store, restored, [([LONER_ADVISOR], [])])
