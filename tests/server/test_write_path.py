"""The served write path: what one version costs, and that an evolved
service is indistinguishable from one built on the same triples.

Work is counted, never clocked: a service pays one statistics pass, at
build, whatever the pool, lint and routing knobs say; a commit carries
that catalog forward by its delta, every consumer of a version reads
the one catalog object, and the head a commit stream leaves behind
carries no trace of the edits that produced it.
"""

import json
import random
from pathlib import Path

import pytest

from repro.evolution import VersionedGraph
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.runtime import build_engine
from repro.server import CommitFailedError, QueryRequest, QueryService
from repro.server.loadgen import build_shape_workload
from repro.server.service import _advanced
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.stats.catalog import StatsCatalog
from repro.systems import ENGINE_HOMES
from tests.views.oracle import oracle_view

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
        # No pass: the delta carried the catalog to the head's bytes.
        assert stats_passes == []
        catalog = service.catalog
        assert catalog.to_json() == StatsCatalog.from_graph(
            service.versions.head(), version=version
        ).to_json()
        # One object for every consumer of the version.
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
    assert len(stats_passes) == 1
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
    oracles = [oracle_view(rebuilt, v.key, v.factor) for v in views]
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


SHAPES = Path(__file__).resolve().parents[2] / "examples/queries/shapes"
MENTORS = Triple(
    URI(LUBM + "Student0_0_0"), URI(LUBM + "mentors"), URI(LUBM + "Student0_0_1")
)


def seeded_commits(graph, seed):
    """Four change sets drawn with *seed*: each deletes eight triples and
    grafts their predicates and objects onto other subjects; the second
    brings a brand-new predicate in and the fourth takes its only triple
    out again."""
    deck = sorted(graph)
    random.Random(seed).shuffle(deck)
    for epoch in range(4):
        deletions = deck[epoch * 8 : (epoch + 1) * 8]
        additions = [
            Triple(deck[-1 - epoch * 8 - i].subject, t.predicate, t.object)
            for i, t in enumerate(deletions)
        ]
        if epoch == 1:
            additions.append(MENTORS)
        if epoch == 3:
            deletions.append(MENTORS)
        yield additions, deletions


def assert_answers_like_a_fresh_service(graph, seed, **knobs):
    """Every shape query, on every pool slot of a service evolved by
    :func:`seeded_commits`, returns the result bytes a service built
    fresh on the head returns."""
    evolved = QueryService(graph, enable_result_cache=False, **knobs)
    for additions, deletions in seeded_commits(graph, seed):
        evolved.commit(additions, deletions)
    head = evolved.versions.head()
    assert MENTORS.predicate not in head.predicates()
    fresh = QueryService(RDFGraph(sorted(head)), **knobs)
    answered = 0
    for path in sorted(SHAPES.glob("*/*.rq")):
        request = QueryRequest(text=path.read_text(), id=path.stem)
        expected = fresh.submit(request)
        for worker in range(evolved.pool_size):
            served = evolved.execute_on(request, worker)
            assert (served.status, served.result) == (
                expected.status,
                expected.result,
            ), (path.name, worker)
        answered += expected.status == "ok"
    assert answered >= 8


# SPARQLGX takes the delta store by store; Naive reloads.
@pytest.mark.parametrize("engine", ["SPARQLGX", "Naive"])
def test_evolved_pool_answers_like_a_fresh_service(lubm_graph, engine):
    assert_answers_like_a_fresh_service(
        lubm_graph, 7, engine=engine, pool_size=2, optimize=True,
        enable_views=True,
    )


def test_evolved_routed_pool_answers_like_a_fresh_service(lubm_graph):
    """Under routing a slot is an engine set, each member taking the
    delta its own way."""
    assert_answers_like_a_fresh_service(
        lubm_graph, 7, pool_size=2, route=True, optimize=True
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("engine", ["SPARQLGX", "Naive"])
def test_evolved_pool_answers_like_a_fresh_service_wide(
    lubm_graph, engine, optimize, seed
):
    assert_answers_like_a_fresh_service(
        lubm_graph, seed, engine=engine, pool_size=2, optimize=optimize,
        enable_views=optimize,
    )


MENTORS_QUERY = "SELECT ?s ?p WHERE { ?s <%smentors> ?p }" % LUBM


@pytest.mark.parametrize("optimize", [False, True])
def test_a_commit_that_raises_leaves_the_service_at_its_version(
    lubm_graph, optimize
):
    """A reload that exhausts its task attempts used to leave the version
    bumped and the pool half-moved: the mentors query then answered ok
    at version 1 with no rows.  Now nothing moves."""
    service = QueryService(
        lubm_graph,
        engine="SPARQL-Hybrid",
        pool_size=2,
        enable_result_cache=False,
        lint_admission=False,
        optimize=optimize,
        enable_views=optimize,
        faults="fail:p=0.05;seed=3",
        max_task_attempts=1,
    )
    catalog, optimizer, pool = service.catalog, service.optimizer, service.pool
    with pytest.raises(CommitFailedError, match="version 0 kept"):
        service.commit([MENTORS])
    assert service.version == 0 and service.versions.head() == lubm_graph
    assert service.catalog is catalog and service.optimizer is optimizer
    assert service.pool == pool
    if optimize:
        assert service.view_catalog.version == 0
    for worker in range(2):
        outcome = service.execute_on(QueryRequest(MENTORS_QUERY), worker)
        assert (outcome.status, outcome.version) == ("ok", 0)
        assert json.loads(outcome.payload)["rows"] == []


@pytest.mark.parametrize("engine", sorted(ENGINE_HOMES))
def test_a_staged_slot_leaves_the_slot_it_was_copied_from_as_it_was(engine):
    """A commit brings a shallow copy of each pool slot to the new head;
    whatever that does to the copy, the slot still answers at its
    version (SPARQLGX rewrites its store maps in place, so its copy
    takes its own)."""
    node = [URI(LUBM + "n%d" % i) for i in range(4)]
    p, q = URI(LUBM + "p"), URI(LUBM + "q")
    versions = VersionedGraph(
        RDFGraph([Triple(node[0], p, node[1]), Triple(node[1], q, node[2])])
    )
    query = parse_sparql("SELECT * WHERE { ?a ?r ?b }")
    slot = build_engine(engine, versions.head())
    before = evaluate(query, versions.head())
    version = versions.commit(
        [Triple(node[2], p, node[3])], [Triple(node[1], q, node[2])]
    )
    staged = _advanced(slot, versions.delta(version), versions.head())
    assert staged.execute(query).same_as(evaluate(query, versions.head()))
    assert slot.execute(query).same_as(before)
