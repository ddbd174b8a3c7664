"""The query service with materialized views: counters, maintenance,
version consistency, and constructor validation."""

import pytest

from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.server import QueryRequest, QueryService
from tests.views.oracle import oracle_view

LUBM = "http://repro.example.org/lubm#"
QUERY = (
    "PREFIX lubm: <%s>\n"
    "SELECT ?x ?y WHERE { ?x lubm:advisor ?y . ?x lubm:takesCourse ?c . }"
    % LUBM
)


def views_service(graph, **kwargs):
    return QueryService(
        graph, pool_size=1, optimize=True, enable_views=True, **kwargs
    )


def test_views_require_optimize(lubm_graph):
    with pytest.raises(ValueError):
        QueryService(lubm_graph, pool_size=1, enable_views=True)


def test_views_answers_match_plain_service(lubm_graph):
    plain = QueryService(lubm_graph, pool_size=1, optimize=True)
    viewed = views_service(lubm_graph)
    assert (
        viewed.submit(QueryRequest(text=QUERY, id="q")).payload
        == plain.submit(QueryRequest(text=QUERY, id="q")).payload
    )


def test_view_hits_counter_and_stats_surface(lubm_graph):
    service = views_service(lubm_graph)
    assert service.view_catalog is not None
    assert len(service.view_catalog) > 0
    outcome = service.submit(QueryRequest(text=QUERY))
    assert outcome.status == "ok"
    assert service.snapshot()["view_hits"] >= 1
    payload = service.stats()
    assert payload["views"]["views"] == len(service.view_catalog)
    assert payload["views"]["version"] == service.version
    plain = QueryService(lubm_graph, pool_size=1, optimize=True)
    assert "views" not in plain.stats()


def test_commit_maintains_views_incrementally(lubm_graph):
    service = views_service(lubm_graph)
    catalog_before = service.view_catalog
    doomed = sorted(lubm_graph)[30:60]
    service.commit(deletions=doomed)
    # Same catalog object, delta-maintained -- not a rebuild...
    assert service.view_catalog is catalog_before
    assert service.view_catalog.version == service.version == 1
    assert service.last_maintenance is not None
    assert (
        service.snapshot()["views_maintained"]
        == service.last_maintenance.views_affected
        > 0
    )
    # ...and every view stays exact against the post-commit head.
    head = service.versions.head()
    for view in service.view_catalog.sorted_views()[:30]:
        oracle = oracle_view(head, view.key, view.factor)
        assert view.rows() == oracle.rows(), view.name
    # Post-commit queries still answer and still substitute.
    outcome = service.submit(QueryRequest(text=QUERY))
    assert outcome.status == "ok"
    assert service.snapshot()["view_hits"] >= 1


def test_post_commit_answers_match_views_off(lubm_graph):
    viewed = views_service(lubm_graph)
    plain = QueryService(lubm_graph, pool_size=1, optimize=True)
    addition = Triple(
        URI(LUBM + "StudentNew"),
        URI(LUBM + "advisor"),
        URI(LUBM + "ProfNew"),
    )
    doomed = sorted(lubm_graph)[10:25]
    for service in (viewed, plain):
        service.commit(additions=[addition], deletions=doomed)
    assert (
        viewed.submit(QueryRequest(text=QUERY)).payload
        == plain.submit(QueryRequest(text=QUERY)).payload
    )


def test_view_threshold_flows_through(lubm_graph):
    tight = views_service(lubm_graph, view_threshold=0.1)
    loose = views_service(lubm_graph, view_threshold=0.9)
    assert len(tight.view_catalog) < len(loose.view_catalog)
    assert tight.view_catalog.threshold == 0.1
