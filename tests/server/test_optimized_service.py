"""The query service with the cost-based optimizer enabled."""

import pytest

from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.server import QueryRequest, QueryService
from repro.server.cache import PlanCache
from repro.sparql.parser import parse_sparql

LUBM = "http://repro.example.org/lubm#"
QUERY = (
    "PREFIX lubm: <%s>\n"
    "SELECT ?s ?d WHERE { ?s lubm:memberOf ?d . ?s lubm:age ?a . }" % LUBM
)


def test_optimized_answers_match_unoptimized(lubm_graph):
    plain = QueryService(lubm_graph, pool_size=1)
    optimized = QueryService(lubm_graph, pool_size=1, optimize=True)
    for service in (plain, optimized):
        outcome = service.submit(QueryRequest(text=QUERY, id="q"))
        assert outcome.status == "ok"
    assert (
        optimized.submit(QueryRequest(text=QUERY)).payload
        == plain.submit(QueryRequest(text=QUERY)).payload
    )


def test_stats_surface(lubm_graph):
    optimized = QueryService(lubm_graph, pool_size=1, optimize=True)
    stats = optimized.stats()
    assert stats["optimizer"] == "dp"
    assert stats["stats_version"] == 0
    plain = QueryService(lubm_graph, pool_size=1)
    assert plain.stats()["optimizer"] is None


def test_commit_refreshes_statistics_and_plan_cache_key(lubm_graph):
    service = QueryService(lubm_graph, pool_size=1, optimize=True)
    assert service.stats_version == 0
    first = service.submit(QueryRequest(text=QUERY))
    assert first.cache == "cold"
    assert len(service.plan_cache) == 1

    service.commit(
        additions=[
            Triple(
                URI(LUBM + "StudentNew"),
                URI(LUBM + "memberOf"),
                URI(LUBM + "DepartmentNew"),
            )
        ]
    )
    # New statistics generation: the optimizer follows the new head...
    assert service.stats_version == 1
    assert service.optimizer.stats_version == 1
    for engine in service.pool:
        assert engine.optimizer is service.optimizer
    # ...and the same text misses the plan cache (stale-stats entry dead).
    second = service.submit(QueryRequest(text=QUERY))
    assert second.cache == "cold"
    assert len(service.plan_cache) == 2


def test_unoptimized_commit_keeps_plan_cache_warm(lubm_graph):
    service = QueryService(lubm_graph, pool_size=1)
    service.submit(QueryRequest(text=QUERY))
    service.commit(
        additions=[
            Triple(
                URI(LUBM + "StudentNew"),
                URI(LUBM + "memberOf"),
                URI(LUBM + "DepartmentNew"),
            )
        ]
    )
    # Without an optimizer the stats version is pinned to 0: the parsed
    # plan survives the commit (only the result cache is invalidated).
    outcome = service.submit(QueryRequest(text=QUERY))
    assert outcome.cache == "plan"
    assert len(service.plan_cache) == 1


def test_plan_cache_keys_on_stats_version():
    cache = PlanCache(capacity=8)
    text = "SELECT ?s WHERE { ?s ?p ?o }"
    cache.put(text, parse_sparql(text), stats_version=0)
    assert cache.lookup(text, stats_version=0) is not None
    assert cache.lookup(text, stats_version=1) is None
    cache.put(text, parse_sparql(text), stats_version=1)
    assert len(cache) == 2
