"""The statistics catalog: correctness, determinism, serialization."""

import pytest
from hypothesis import given, settings

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.stats import StatsCatalog
from repro.stats.catalog import CharacteristicSet, PredicateStats
from tests.graph_edits import apply_edits, edit_scripts

EX = "http://example.org/"


def _uri(name):
    return URI(EX + name)


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
        pair_selectivity=StatsCatalog._pair_selectivities(
            count, subjects, objects
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
