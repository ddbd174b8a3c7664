"""Incremental maintenance: the delta walk must equal a rebuild, always.

Edge cases the benchmark's churn stream does not isolate: a commit that
empties a view, a commit touching only predicates with no materialized
views, and a hypothesis property driving random commit streams against
the from-scratch materialization oracle.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.lubm import LubmGenerator
from repro.evolution import VersionedGraph
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.stats.catalog import StatsCatalog
from repro.views import ViewCatalog
from repro.views.catalog import (
    MaintenanceReport,
    _has_p_with_value,
    _predicate_terms,
    _rows_with_value,
)

from tests.graph_edits import apply_edits, linked_scripts
from tests.views.oracle import oracle_view

EX = "http://x/"


def t(s, p, o):
    return Triple(URI(EX + s), URI(EX + p), URI(EX + o))


def assert_views_exact(catalog, graph):
    """Every maintained view byte-matches from-scratch materialization."""
    for view in catalog.sorted_views():
        oracle = oracle_view(graph, view.key, view.factor)
        assert view.rows() == oracle.rows(), view.name


@pytest.fixture
def store():
    graph = RDFGraph(
        [
            t("a", "p1", "x"),
            t("b", "p1", "y"),
            t("c", "p1", "z"),
            t("d", "p1", "w"),
            t("a", "p2", "k"),
            t("b", "p2", "k"),
        ]
    )
    return VersionedGraph(graph)


def build(store, threshold=0.5):
    head = store.head()
    return ViewCatalog.build(
        head, StatsCatalog.from_graph(head), threshold=threshold
    )


class TestEdgeCases:
    def test_commit_that_empties_a_view(self, store):
        catalog = build(store)
        key = ("ss", "<%sp1>" % EX, "<%sp2>" % EX)
        assert len(catalog.get(key)) == 2
        # Deleting every p2 triple starves the semi-join: no p1 subject
        # survives, so the view must drain to empty (step 3 evictions).
        version = store.commit(
            additions=[], deletions=[t("a", "p2", "k"), t("b", "p2", "k")]
        )
        report = catalog.apply_delta(
            store.delta(version), store.head(), version
        )
        assert len(catalog.get(key)) == 0
        assert catalog.get(key).factor == 0.0
        assert report.rows_removed == 2
        assert_views_exact(catalog, store.head())

    def test_commit_on_predicate_with_no_views(self, store):
        catalog = build(store)
        before_rows = [
            (view.key, view.rows()) for view in catalog.sorted_views()
        ]
        version = store.commit(
            additions=[t("q", "brand_new", "r")], deletions=[]
        )
        report = catalog.apply_delta(
            store.delta(version), store.head(), version
        )
        # Nothing materialized mentions the predicate: zero work, but the
        # catalog still advances to the new version (consistency key).
        assert report.views_affected == 0
        assert report.cost_units == 0
        assert catalog.version == version
        assert [
            (view.key, view.rows()) for view in catalog.sorted_views()
        ] == before_rows

    def test_value_reappears_pulls_rows_back_in(self, store):
        catalog = build(store)
        key = ("ss", "<%sp1>" % EX, "<%sp2>" % EX)
        v1 = store.commit(additions=[], deletions=[t("a", "p2", "k")])
        catalog.apply_delta(store.delta(v1), store.head(), v1)
        assert len(catalog.get(key)) == 1
        # Re-adding a p2 triple for "a" must pull the p1 row back (step 4).
        v2 = store.commit(additions=[t("a", "p2", "m")], deletions=[])
        catalog.apply_delta(store.delta(v2), store.head(), v2)
        assert len(catalog.get(key)) == 2
        assert_views_exact(catalog, store.head())

    def test_added_p1_triple_joins_iff_value_survives(self, store):
        catalog = build(store)
        key = ("ss", "<%sp1>" % EX, "<%sp2>" % EX)
        version = store.commit(
            additions=[t("a", "p1", "extra"), t("nope", "p1", "extra")],
            deletions=[],
        )
        catalog.apply_delta(store.delta(version), store.head(), version)
        rows = catalog.get(key).rows()
        assert (URI(EX + "a"), URI(EX + "extra")) in rows
        assert all(s != URI(EX + "nope") for s, _ in rows)
        assert_views_exact(catalog, store.head())

    def test_maintenance_cheaper_than_rebuild_accounting(self, store):
        catalog = build(store)
        version = store.commit(
            additions=[], deletions=[t("a", "p2", "k")]
        )
        report = catalog.apply_delta(
            store.delta(version), store.head(), version
        )
        assert report.views_affected > 0
        assert 0 < report.cost_units
        assert report.rebuild_cost_units > 0


class TestIncrementalEqualsRebuildProperty:
    """Hypothesis: any commit stream leaves every view oracle-exact."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_commit_stream(self, data):
        graph = LubmGenerator(num_universities=1, seed=7).generate()
        triples = sorted(graph)
        store = VersionedGraph(graph.copy())
        head = store.head()
        catalog = ViewCatalog.build(
            head, StatsCatalog.from_graph(head), threshold=0.6
        )
        commits = data.draw(st.integers(min_value=1, max_value=3))
        removed_pool = []
        for _ in range(commits):
            current = sorted(store.head())
            to_delete = data.draw(
                st.lists(
                    st.sampled_from(current),
                    max_size=12,
                    unique=True,
                )
            )
            to_add = data.draw(
                st.lists(
                    st.sampled_from(removed_pool or triples),
                    max_size=8,
                    unique=True,
                )
            )
            version = store.commit(additions=to_add, deletions=to_delete)
            removed_pool.extend(to_delete)
            report = catalog.apply_delta(
                store.delta(version), store.head(), version
            )
            assert catalog.version == version
            assert report.cost_units >= 0
            assert_views_exact(catalog, store.head())


class ProbeRecordingGraph(RDFGraph):
    """Records each ``triples()`` pattern and counts the triples handed out."""

    def __init__(self, triples=None):
        super().__init__(triples)
        self.patterns = []
        self.yielded = 0

    def triples(self, pattern=(None, None, None)):
        self.patterns.append(pattern)
        for triple in super().triples(pattern):
            self.yielded += 1
            yield triple

    def __iter__(self):
        self.patterns.append((None, None, None))
        for triple in super().__iter__():
            self.yielded += 1
            yield triple


class TestMaintenanceWorkIsProportionalToTheDelta:
    """Counted, not clocked: what apply_delta reads from the graph."""

    def test_forty_triple_delta_never_walks_a_partition(self):
        graph = LubmGenerator(num_universities=1, seed=7).generate()
        deck = sorted(graph)
        store = VersionedGraph(graph)
        head = store.head()
        catalog = ViewCatalog.build(
            head, StatsCatalog.from_graph(head), threshold=0.6
        )
        # Two commits, so the second both removes triples and brings
        # removed ones back: all four maintenance steps see work.
        first = store.commit(deletions=deck[::20][:20])
        catalog.apply_delta(store.delta(first), store.head(), first)
        version = store.commit(
            additions=deck[::20][:20], deletions=deck[7::20][:20]
        )
        delta = store.delta(version)
        assert delta.size() == 40

        probed = ProbeRecordingGraph(store.head())
        report = catalog.apply_delta(delta, probed, version)

        assert report.views_affected > 0
        assert report.rows_added > 0 and report.rows_removed > 0
        # Every probe binds the predicate and a join value; a partition
        # scan (predicate only) or a graph scan never happens.
        assert probed.patterns
        assert all(
            sum(position is not None for position in pattern) >= 2
            for pattern in probed.patterns
        )
        # At most one triple per delta triple a view looks at plus one
        # per row added or evicted -- which is what cost_units counts.
        assert probed.yielded <= report.cost_units
        assert report.cost_units <= (
            report.views_affected * delta.size()
            + report.rows_added
            + report.rows_removed
        )
        assert report.cost_units < report.rebuild_cost_units
        # The index-counted sizes are the scanned sizes of the same head.
        fresh = RDFGraph(sorted(store.head()))
        terms = {term.n3(): term for term in fresh.predicates()}
        sizes = {
            n3: len(list(fresh.triples((None, term, None))))
            for n3, term in terms.items()
        }
        touched = {t.predicate.n3() for t in delta.added + delta.removed}
        affected = [
            view
            for view in catalog.sorted_views()
            if view.p1 in touched or view.p2 in touched
        ]
        assert report.views_affected == len(affected)
        assert report.rebuild_cost_units == sum(
            sizes.get(view.p1, 0) + sizes.get(view.p2, 0) for view in affected
        )
        for view in affected:
            assert view.factor == round(len(view) / sizes[view.p1], 6)
        assert_views_exact(catalog, fresh)


# -- the per-view walk the catalog replaced, kept as the reference -------


def reference_apply_delta(catalog, delta, graph, version):
    """What ``ViewCatalog.apply_delta`` did before it walked the delta
    once: every affected view re-walks the whole delta and reads its own
    join values, and every predicate of the head is counted."""
    report = MaintenanceReport()
    touched = {t.predicate.n3() for t in (*delta.added, *delta.removed)}
    affected = sorted(
        key for key in catalog.views if key[1] in touched or key[2] in touched
    )
    terms = _predicate_terms(graph)
    sizes = {n3: graph.predicate_count(term) for n3, term in terms.items()}
    for key in affected:
        view = catalog.views[key]
        report.views_affected += 1
        report.cost_units += reference_maintain_view(
            view, delta, graph, terms, report
        )
        p1_count = sizes.get(key[1], 0)
        report.rebuild_cost_units += p1_count + sizes.get(key[2], 0)
        view.version = version
        view.factor = round(len(view) / p1_count, 6) if p1_count else 0.0
    catalog.version = version
    return report


def reference_maintain_view(view, delta, graph, terms, report):
    _kind, p1_n3, p2_n3 = view.key
    p1_term, p2_term = terms.get(p1_n3), terms.get(p2_n3)
    cost = 0
    for triple in delta.removed:
        if triple.predicate.n3() != p1_n3:
            continue
        cost += 1
        if view._remove_row((triple.subject, triple.object)):
            report.rows_removed += 1
    for triple in delta.added:
        if triple.predicate.n3() != p1_n3:
            continue
        cost += 1
        value = triple.subject if view.column1 == "s" else triple.object
        if p2_term is not None and _has_p_with_value(
            graph, p2_term, view.column2, value
        ):
            if view._add_row((triple.subject, triple.object)):
                report.rows_added += 1
    for value in reference_delta_values(delta.removed, p2_n3, view.column2):
        cost += 1
        if p2_term is not None and _has_p_with_value(
            graph, p2_term, view.column2, value
        ):
            continue
        for row in view.rows_with_value(value):
            cost += 1
            if view._remove_row(row):
                report.rows_removed += 1
    for value in reference_delta_values(delta.added, p2_n3, view.column2):
        cost += 1
        if p1_term is None:
            continue
        for row in _rows_with_value(graph, p1_term, view.column1, value):
            cost += 1
            if row not in view:
                view._add_row(row)
                report.rows_added += 1
    return cost


def reference_delta_values(triples, predicate_n3, column):
    values = {}
    for triple in triples:
        if triple.predicate.n3() != predicate_n3:
            continue
        values[triple.subject if column == "s" else triple.object] = None
    return sorted(values, key=lambda term: term.n3())


def catalog_state(catalog):
    return catalog.version, [
        (view.key, view.rows(), view.factor, view.version)
        for view in catalog.sorted_views()
    ]


class TestOneWalkEqualsThePerViewWalk:
    """Every view of three predicates materialized, so each p2 is shared
    by several views: the one-walk catalog and the reference agree on
    rows, factors and every report field, commit after commit."""

    @settings(max_examples=40, deadline=None)
    @given(
        initial=linked_scripts, commits=st.lists(linked_scripts, max_size=4)
    )
    def test_reports_and_views_equal_the_reference(self, initial, commits):
        graph = RDFGraph()
        apply_edits(graph, initial)
        store = VersionedGraph(graph)
        head = store.head()
        catalog = ViewCatalog.build(
            head, StatsCatalog.from_graph(head), threshold=1.0
        )
        reference = copy.deepcopy(catalog)
        for script in commits:
            additions = [t for is_add, t in script if is_add]
            deletions = [t for is_add, t in script if not is_add]
            version = store.commit(additions, deletions)
            delta = store.delta(version)
            report = catalog.apply_delta(delta, store.head(), version)
            expected = reference_apply_delta(
                reference, delta, store.head(), version
            )
            assert report == expected
            assert catalog_state(catalog) == catalog_state(reference)

    def test_lubm_commit_equals_the_reference(self):
        graph = LubmGenerator(num_universities=1, seed=7).generate()
        deck = sorted(graph)
        store = VersionedGraph(graph)
        head = store.head()
        catalog = ViewCatalog.build(
            head, StatsCatalog.from_graph(head), threshold=0.6
        )
        reference = copy.deepcopy(catalog)
        for additions, deletions in (
            ([], deck[::20][:20]),
            (deck[::20][:20], deck[7::20][:20]),
        ):
            version = store.commit(additions, deletions)
            delta = store.delta(version)
            report = catalog.apply_delta(delta, store.head(), version)
            assert report.views_affected > 1
            assert report == reference_apply_delta(
                reference, delta, store.head(), version
            )
            assert catalog_state(catalog) == catalog_state(reference)
