"""Incremental maintenance: the delta walk must equal a rebuild, always.

Edge cases the benchmark's churn stream does not isolate: a commit that
empties a view, a commit touching only predicates with no materialized
views, and a hypothesis property driving random commit streams against
the from-scratch materialization oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.lubm import LubmGenerator
from repro.evolution import VersionedGraph
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.stats.catalog import StatsCatalog
from repro.views import ViewCatalog, materialize_view

EX = "http://x/"


def t(s, p, o):
    return Triple(URI(EX + s), URI(EX + p), URI(EX + o))


def assert_views_exact(catalog, graph):
    """Every maintained view byte-matches from-scratch materialization."""
    for view in catalog.sorted_views():
        oracle = materialize_view(graph, view.key, view.factor)
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
