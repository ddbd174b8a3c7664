"""The served write path: what one version costs, and that an evolved
service is indistinguishable from one built on the same triples.

Work is counted, never clocked: a version costs exactly one statistics
pass whatever the pool, lint and routing knobs say, every consumer of a
version reads that one catalog object, and the head a commit stream
leaves behind carries no trace of the edits that produced it.
"""

import pytest

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.runtime import build_engine
from repro.server import QueryRequest, QueryService
from repro.server.loadgen import build_shape_workload
from repro.stats.catalog import StatsCatalog
from repro.views import materialize_view

LUBM = "http://repro.example.org/lubm#"


def change_set(graph, epoch):
    """Fifteen deletions and one addition, distinct per epoch."""
    doomed = sorted(graph)[epoch * 15 : (epoch + 1) * 15]
    addition = Triple(
        URI(LUBM + "StudentNew%d" % epoch),
        URI(LUBM + "advisor"),
        URI(LUBM + "ProfNew%d" % epoch),
    )
    return [addition], doomed


@pytest.mark.parametrize("route", [False, True])
@pytest.mark.parametrize("lint_admission", [False, True])
@pytest.mark.parametrize("pool_size", [1, 3])
def test_one_statistics_pass_per_version(
    lubm_graph, stats_passes, pool_size, lint_admission, route
):
    service = QueryService(
        lubm_graph,
        pool_size=pool_size,
        lint_admission=lint_admission,
        route=route,
        optimize=True,
        enable_views=True,
    )
    assert len(stats_passes) == 1
    for epoch in range(2):
        del stats_passes[:]
        additions, deletions = change_set(lubm_graph, epoch)
        version = service.commit(additions, deletions)
        assert stats_passes == [service.versions.head()]
        # One object for every consumer of the version.
        catalog = service.catalog
        assert catalog.version == service.stats_version == version
        assert service.optimizer.catalog is catalog
        engines = [
            slot.engine_for("SPARQLGX") if route else slot
            for slot in service.pool
        ]
        assert all(engine.optimizer is service.optimizer for engine in engines)
        if route:
            assert service.routing.planner.estimator.catalog is catalog


def test_unoptimized_service_also_pays_one_pass(lubm_graph, stats_passes):
    service = QueryService(lubm_graph, pool_size=2)
    assert len(stats_passes) == 1
    service.commit(*change_set(lubm_graph, 0))
    assert len(stats_passes) == 2
    assert service.catalog.version == service.version == 1


def test_engine_loaded_without_a_catalog_counts_its_own(
    lubm_graph, watdiv_graph, stats_passes
):
    """SPARQLGX's statistics are sizes of the graph's indexes: it reads
    them there -- the catalog's numbers, and no pass."""

    def assert_counts_like_the_catalog(graph):
        engine = build_engine("SPARQLGX", graph)
        assert stats_passes == []
        catalog = StatsCatalog.from_graph(graph)
        del stats_passes[:]
        assert {p.n3(): n for p, n in engine.vp_sizes.items()} == {
            name: stats.count for name, stats in catalog.predicates.items()
        }
        assert engine.stats == {
            "distinct_subjects": catalog.distinct_subjects,
            "distinct_predicates": catalog.distinct_predicates,
            "distinct_objects": catalog.distinct_objects,
            "triples": catalog.triples,
        }

    assert_counts_like_the_catalog(lubm_graph)
    assert_counts_like_the_catalog(watdiv_graph)
    # Index pruning: a predicate whose last triple was removed is gone
    # from the key sets, not counted as an empty partition.
    pruned = lubm_graph.copy()
    lonely = Triple(
        URI(LUBM + "Student0_0_0"), URI(LUBM + "mentors"), URI(LUBM + "Nobody")
    )
    pruned.add(lonely)
    pruned.remove(lonely)
    assert_counts_like_the_catalog(pruned)
    assert lonely.predicate not in build_engine("SPARQLGX", pruned).vp_sizes


def query_pool(graph):
    """Fourteen distinct shape-stratified queries, as ``serve_mixed`` asks."""
    texts = dict.fromkeys(
        text for _, text in build_shape_workload(graph, per_shape=4, seed=42)
    )
    return list(texts)[:14]


def test_evolved_service_equals_service_built_on_its_head(lubm_graph):
    """Three commits -- one brings a brand-new predicate in, the next
    takes its only triple out again -- then everything the service says
    is compared with a service built fresh on the head's triples."""
    novel = Triple(
        URI(LUBM + "Student0_0_0"), URI(LUBM + "mentors"), URI(LUBM + "Student0_0_1")
    )
    evolved = QueryService(
        lubm_graph, pool_size=1, optimize=True, enable_views=True
    )
    for epoch in range(3):
        additions, deletions = change_set(lubm_graph, epoch)
        if epoch == 1:
            additions = additions + [novel]
        if epoch == 2:
            deletions = deletions + [novel]
        evolved.commit(additions, deletions)
    head = evolved.versions.head()
    rebuilt = RDFGraph(sorted(head))
    assert novel.predicate not in head.predicates()

    # Statistics: bytes of the head's catalog, version stamp aside.
    assert (
        StatsCatalog.from_graph(head).to_json()
        == StatsCatalog.from_graph(rebuilt).to_json()
    )
    assert evolved.catalog.to_json() == StatsCatalog.from_graph(
        rebuilt, version=3
    ).to_json()

    # Answers: byte-identical to a fresh service's, query by query.
    fresh = QueryService(
        rebuilt, pool_size=1, optimize=True, enable_views=True
    )
    pool = query_pool(lubm_graph)
    assert len(pool) == 14
    answered = 0
    for index, text in enumerate(pool):
        request = QueryRequest(text=text, id="q%d" % index)
        served, expected = evolved.submit(request), fresh.submit(request)
        # (Lint messages name the graph version, so compare their codes.)
        assert (
            served.status,
            served.payload,
            [d["code"] for d in served.diagnostics],
        ) == (
            expected.status,
            expected.payload,
            [d["code"] for d in expected.diagnostics],
        ), text
        answered += served.status == "ok"
    assert answered >= 10

    # Views: which pairs are materialized is fixed at build time, so the
    # evolved catalog is compared content by content -- every maintained
    # view, its factor and the summary totals against materialization
    # from scratch on the rebuilt graph.
    sizes = {
        term.n3(): len(list(rebuilt.triples((None, term, None))))
        for term in rebuilt.predicates()
    }
    views = evolved.view_catalog.sorted_views()
    oracles = [materialize_view(rebuilt, v.key, v.factor) for v in views]
    assert [v.rows() for v in views] == [o.rows() for o in oracles]
    summary = evolved.stats()["views"]
    assert summary["version"] == 3
    assert summary["views"] == len(views)
    assert summary["rows"] == sum(len(o) for o in oracles)

    # The last maintenance report, re-derived from the last delta alone.
    delta = evolved.versions.delta(3)
    touched = {t.predicate.n3() for t in delta.added + delta.removed}
    affected = [v for v in views if v.p1 in touched or v.p2 in touched]
    report = evolved.last_maintenance
    assert report.views_affected == len(affected)
    assert report.rebuild_cost_units == sum(
        sizes.get(v.p1, 0) + sizes.get(v.p2, 0) for v in affected
    )
    for view in affected:
        expected = (
            round(len(view) / sizes[view.p1], 6) if sizes.get(view.p1) else 0.0
        )
        assert view.factor == expected
