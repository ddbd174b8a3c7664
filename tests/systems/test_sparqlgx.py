"""SPARQLGX mechanism tests: vertical partitioning, stats, join order."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.watdiv import WATDIV, WatdivGenerator
from repro.evolution import VersionedGraph
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.sparql.parser import parse_sparql
from repro.systems import sparqlgx as sparqlgx_module
from repro.systems.sparqlgx import SparqlgxEngine
from tests.systems.conftest import assert_engine_matches_reference

PREFIX = "PREFIX wd: <http://repro.example.org/watdiv#>\n"


@pytest.fixture
def engine(watdiv_graph):
    eng = SparqlgxEngine(SparkContext(4))
    eng.load(watdiv_graph)
    return eng


class TestVerticalStore:
    def test_one_table_per_predicate(self, engine, watdiv_graph):
        assert set(engine.vp_tables) == watdiv_graph.predicates()

    def test_tables_hold_subject_object_pairs_only(self, engine):
        table = engine.vp_tables[WATDIV.friendOf]
        s, o = table.first()
        assert hasattr(s, "n3") and hasattr(o, "n3")

    def test_sizes_match_data(self, engine, watdiv_graph):
        counts = watdiv_graph.predicate_counts()
        for predicate, size in engine.vp_sizes.items():
            assert counts[predicate] == size

    def test_statistics_collected(self, engine, watdiv_graph):
        assert engine.stats["distinct_subjects"] == len(
            watdiv_graph.subjects()
        )
        assert engine.stats["distinct_predicates"] == len(
            watdiv_graph.predicates()
        )
        assert engine.stats["triples"] == len(watdiv_graph)


class TestScanBehaviour:
    def test_bounded_predicate_reads_one_store(self, engine):
        sc = engine.ctx
        before = sc.metrics.snapshot()
        engine.execute(PREFIX + "SELECT ?u ?f WHERE { ?u wd:friendOf ?f }")
        cost = sc.metrics.snapshot() - before
        assert cost.records_scanned <= engine.vp_sizes[WATDIV.friendOf]

    def test_unbounded_predicate_reads_everything(self, engine, watdiv_graph):
        sc = engine.ctx
        before = sc.metrics.snapshot()
        engine.execute(
            PREFIX + "SELECT ?p ?o WHERE { wd:User0 ?p ?o }"
        )
        cost = sc.metrics.snapshot() - before
        assert cost.records_scanned >= len(watdiv_graph)

    def test_unknown_predicate_is_empty(self, engine, watdiv_graph):
        assert_engine_matches_reference(
            engine,
            watdiv_graph,
            PREFIX + "SELECT ?s WHERE { ?s wd:doesNotExist ?o }",
        )


class TestJoinOrdering:
    def test_selective_pattern_estimated_smaller(self, engine):
        query = parse_sparql(
            PREFIX
            + "SELECT * WHERE { ?u wd:friendOf ?f . ?u wd:name 'User 3' }"
        )
        unselective, selective = query.where.triple_patterns()
        assert engine._estimated_cardinality(
            selective
        ) < engine._estimated_cardinality(unselective)

    def test_order_starts_with_most_selective(self, engine):
        query = parse_sparql(
            PREFIX
            + "SELECT * WHERE { ?u wd:friendOf ?f . ?u wd:name 'User 3' }"
        )
        ordered = engine._order_patterns(query.where.triple_patterns())
        assert not isinstance(ordered[0].object, type(ordered[1].object)) or \
            engine._estimated_cardinality(ordered[0]) <= \
            engine._estimated_cardinality(ordered[1])

    def test_ordering_keeps_connectivity(self, engine):
        query = parse_sparql(
            PREFIX
            + "SELECT * WHERE { ?u wd:friendOf ?f . ?f wd:purchased ?p . "
            "?p wd:hasCategory ?c }"
        )
        ordered = engine._order_patterns(query.where.triple_patterns())
        bound = {v.name for v in ordered[0].variables()}
        for pattern in ordered[1:]:
            assert bound & {v.name for v in pattern.variables()}
            bound |= {v.name for v in pattern.variables()}


class TestCorrectness:
    @pytest.mark.parametrize(
        "name", sorted(WatdivGenerator.all_queries())
    )
    def test_canonical_queries(self, engine, watdiv_graph, name):
        assert_engine_matches_reference(
            engine, watdiv_graph, WatdivGenerator.all_queries()[name]
        )


# -- the write path: a commit merged into the sorted stores --------------

XSD = "http://www.w3.org/2001/XMLSchema#"
EX = "http://example.org/"

#: Objects whose sort keys tie in pairs or more: three numerals of value
#: 1, and "chat" four ways (plain, xsd:string, @en, @fr).
TIED_OBJECTS = [
    Literal("1", URI(XSD + "int")),
    Literal("1.0", URI(XSD + "double")),
    Literal("01", URI(XSD + "integer")),
    Literal("chat"),
    Literal("chat", URI(XSD + "string")),
    Literal("chat", language="en"),
    Literal("chat", language="fr"),
]
#: Doubles around a NaN, which equals no float, itself included.
DOUBLES = [Literal(text, URI(XSD + "double")) for text in ("2", "NaN", "1")]
OBJECTS = (
    TIED_OBJECTS
    + DOUBLES
    + [Literal("NaN", URI(XSD + "float"))]
    + [URI(EX + "o%d" % n) for n in range(3)]
)
SUBJECTS = [URI(EX + "s%d" % n) for n in range(6)]
PREDICATES = [URI(EX + "p%d" % n) for n in range(3)]
#: Never in a generated graph: a commit adding it brings a new store.
NEW_PREDICATE = URI(EX + "fresh")

vocabulary_triples = st.builds(
    Triple,
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES + [NEW_PREDICATE]),
    st.sampled_from(OBJECTS),
)


def store_rows(engine):
    return {
        predicate.n3(): table.collect()
        for predicate, table in engine.vp_tables.items()
    }


def assert_as_fresh_load(engine, graph, touched, written, rdds):
    """*engine*, brought to *graph* by a commit touching *touched* that
    returned *written* and created *rdds* RDDs, holds what a fresh load
    of *graph* holds."""
    fresh = SparqlgxEngine(SparkContext(4)).load(graph)
    assert store_rows(engine) == store_rows(fresh)
    assert engine.vp_sizes == fresh.vp_sizes
    assert engine.stats == fresh.stats
    assert written == sum(fresh.vp_sizes.get(p, 0) for p in touched)
    assert rdds == sum(p in fresh.vp_tables for p in touched)


def commit_and_check(engine, store, additions=(), deletions=()):
    version = store.commit(additions, deletions)
    delta = store.delta(version)
    touched = {t.predicate for t in delta.added + delta.removed}
    before = engine.ctx._rdd_counter
    written = engine.apply_delta(delta, store.head())
    rdds = engine.ctx._rdd_counter - before
    assert_as_fresh_load(engine, store.head(), touched, written, rdds)


class TestMergedCommits:
    """A commit merges its pairs into the touched stores; the stores,
    sizes, statistics, records-rewritten count and RDDs made are those of
    a fresh load of the head, whatever the commit and the tie."""

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(vocabulary_triples, min_size=1, max_size=80),
        commits=st.lists(
            st.tuples(
                st.sampled_from(["edit", "empty", "new", "readd", "fail"]),
                st.lists(vocabulary_triples, max_size=4),
                st.lists(vocabulary_triples, max_size=4),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_commits_equal_a_fresh_load(self, initial, commits):
        graph = RDFGraph(
            [t for t in initial if t.predicate != NEW_PREDICATE]
        )
        store = VersionedGraph(graph)
        engine = SparqlgxEngine(SparkContext(4)).load(store.head())
        for kind, additions, deletions in commits:
            head = store.head()
            if kind == "edit":
                commit_and_check(engine, store, additions, deletions)
            elif kind == "empty":
                # Every triple of one predicate goes: its store goes too.
                predicate = (additions + deletions + initial)[0].predicate
                commit_and_check(
                    engine,
                    store,
                    deletions=list(head.triples((None, predicate, None))),
                )
            elif kind == "new":
                fresh = [
                    Triple(t.subject, NEW_PREDICATE, t.object)
                    for t in additions
                ]
                commit_and_check(
                    engine,
                    store,
                    fresh or [Triple(SUBJECTS[0], NEW_PREDICATE, OBJECTS[0])],
                )
            elif kind == "readd":
                # An object leaves a store, then comes back.
                present = sorted(head)
                if present:
                    gone = present[len(additions) % len(present)]
                    commit_and_check(engine, store, deletions=[gone])
                    commit_and_check(engine, store, additions=[gone])
            else:
                # A commit the pool could not follow: the staged copy
                # takes it, the original's stores stay as they were, and
                # the head reverts (its index order perturbed).
                rows = store_rows(engine)
                version = store.commit(additions, deletions)
                staged = copy.copy(engine)
                staged.apply_delta(store.delta(version), store.head())
                assert store_rows(engine) == rows
                store.revert()
                assert_as_fresh_load(engine, store.head(), (), 0, 0)

    def test_a_small_commit_merges_without_enumerating(self, monkeypatch):
        graph = RDFGraph(
            Triple(subject, PREDICATES[0], obj)
            for subject in SUBJECTS
            for obj in OBJECTS
        )
        store = VersionedGraph(graph)
        engine = SparqlgxEngine(SparkContext(4)).load(store.head())
        version = store.commit(
            [Triple(SUBJECTS[2], PREDICATES[0], URI(EX + "extra"))],
            [Triple(SUBJECTS[4], PREDICATES[0], TIED_OBJECTS[5])],
        )

        def enumerated(*args):
            raise AssertionError("the store was enumerated, not merged")

        with monkeypatch.context() as patch:
            patch.setattr(sparqlgx_module, "_sorted_pairs", enumerated)
            before = engine.ctx._rdd_counter
            written = engine.apply_delta(store.delta(version), store.head())
        assert_as_fresh_load(
            engine,
            store.head(),
            {PREDICATES[0]},
            written,
            engine.ctx._rdd_counter - before,
        )

    def test_tied_objects_order_by_n3_whatever_the_insertion_order(self):
        triples = [Triple(SUBJECTS[0], PREDICATES[0], o) for o in TIED_OBJECTS]
        for order in (triples, triples[::-1]):
            engine = SparqlgxEngine(SparkContext(4)).load(RDFGraph(order))
            # Numerals tie at 1.0 and sort before strings; within a tie, by N3.
            store = engine.vp_tables[PREDICATES[0]].collect()
            assert [o for _s, o in store] == (
                sorted(TIED_OBJECTS[:3], key=Literal.n3)
                + sorted(TIED_OBJECTS[3:], key=Literal.n3)
            )

    def test_a_store_holding_nan_drops_a_deleted_pair(self):
        # Inserted in this order, a NaN key that compared with nothing
        # left the store unsorted, and the deleted "1" was not found.
        graph = RDFGraph(
            Triple(SUBJECTS[0], PREDICATES[0], obj) for obj in DOUBLES
        )
        store = VersionedGraph(graph)
        engine = SparqlgxEngine(SparkContext(4)).load(store.head())
        assert [o for _s, o in engine.vp_tables[PREDICATES[0]].collect()] == [
            DOUBLES[2],
            DOUBLES[0],
            DOUBLES[1],
        ]
        commit_and_check(
            engine,
            store,
            deletions=[Triple(SUBJECTS[0], PREDICATES[0], DOUBLES[2])],
        )
        assert engine.vp_sizes[PREDICATES[0]] == 2

    def test_a_store_out_of_order_is_enumerated_not_merged_past(self):
        # Should a store ever not be in _pair_key order, a removed pair
        # is not where a bisection looks: the store is read afresh from
        # the graph instead of keeping the pair.
        triples = [Triple(SUBJECTS[0], PREDICATES[0], o) for o in OBJECTS]
        store = VersionedGraph(RDFGraph(triples))
        engine = SparqlgxEngine(SparkContext(4)).load(store.head())
        table = engine.vp_tables[PREDICATES[0]]
        engine.vp_tables[PREDICATES[0]] = engine.ctx.parallelize(
            table.collect()[::-1]
        ).cache()
        commit_and_check(engine, store, deletions=[triples[0]])

    def test_a_commit_of_most_of_a_store_enumerates_it(self, monkeypatch):
        graph = RDFGraph(
            Triple(subject, PREDICATES[0], obj)
            for subject in SUBJECTS
            for obj in OBJECTS
        )
        store = VersionedGraph(graph)
        engine = SparqlgxEngine(SparkContext(4)).load(store.head())
        version = store.commit(deletions=list(graph)[: len(graph) // 2])

        def merged(*args):
            raise AssertionError("the store was merged, not enumerated")

        with monkeypatch.context() as patch:
            patch.setattr(sparqlgx_module, "_merge", merged)
            before = engine.ctx._rdd_counter
            written = engine.apply_delta(store.delta(version), store.head())
        assert_as_fresh_load(
            engine,
            store.head(),
            {PREDICATES[0]},
            written,
            engine.ctx._rdd_counter - before,
        )
