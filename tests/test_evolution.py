"""Tests for the evolving-data module (Section V future work)."""

import pytest

from repro.data.lubm import LUBM, LubmGenerator
from repro.evolution import (
    ArchivePolicy,
    Delta,
    VersionedGraph,
)
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.systems import NaiveEngine, SparqlgxEngine

EX = "http://x/"


def uri(name):
    return URI(EX + name)


def t(s, p, o):
    return Triple(uri(s), uri(p), uri(o))


@pytest.fixture
def base_graph():
    return RDFGraph([t("a", "p", "b"), t("b", "p", "c"), t("a", "q", "d")])


class TestVersionedGraphHistory:
    def test_initial_version_zero(self, base_graph):
        store = VersionedGraph(base_graph)
        assert store.head_version == 0
        assert store.snapshot(0) == base_graph

    def test_commit_applies_changes(self, base_graph):
        store = VersionedGraph(base_graph)
        version = store.commit(
            additions=[t("c", "p", "e")], deletions=[t("a", "q", "d")]
        )
        assert version == 1
        head = store.head()
        assert t("c", "p", "e") in head
        assert t("a", "q", "d") not in head

    def test_past_versions_recoverable(self, base_graph):
        store = VersionedGraph(base_graph)
        store.commit(additions=[t("x", "p", "y")])
        store.commit(deletions=[t("x", "p", "y")])
        assert t("x", "p", "y") in store.snapshot(1)
        assert t("x", "p", "y") not in store.snapshot(2)
        assert store.snapshot(0) == base_graph

    def test_noop_changes_filtered(self, base_graph):
        store = VersionedGraph(base_graph)
        store.commit(
            additions=[t("a", "p", "b")],  # already present
            deletions=[t("zz", "p", "zz")],  # absent
        )
        assert store.delta(1).size() == 0

    def test_bad_version_raises(self, base_graph):
        store = VersionedGraph(base_graph)
        with pytest.raises(KeyError):
            store.snapshot(5)
        with pytest.raises(KeyError):
            store.delta(0)

    def test_diff_between_versions(self, base_graph):
        store = VersionedGraph(base_graph)
        store.commit(additions=[t("x", "p", "y")])
        store.commit(additions=[t("x2", "p", "y2")], deletions=[t("a", "q", "d")])
        delta = store.diff(0, 2)
        assert set(delta.added) == {t("x", "p", "y"), t("x2", "p", "y2")}
        assert set(delta.removed) == {t("a", "q", "d")}
        inverse = store.diff(2, 0)
        assert (inverse.added, inverse.removed) == (delta.removed, delta.added)

    def test_invalid_checkpoint_interval(self):
        with pytest.raises(ValueError):
            VersionedGraph(checkpoint_every=0)


class TestArchivePolicies:
    def _history(self, policy, commits=8):
        store = VersionedGraph(
            RDFGraph([t("seed", "p", "o")]),
            policy=policy,
            checkpoint_every=3,
        )
        for i in range(commits):
            store.commit(additions=[t("s%d" % i, "p", "o%d" % i)])
        return store

    def test_full_stores_most_replays_none(self):
        store = self._history(ArchivePolicy.FULL)
        store.snapshot(5)
        assert store.last_replay_cost == 0

    def test_delta_stores_least_replays_most(self):
        store = self._history(ArchivePolicy.DELTA)
        store.snapshot(5)
        assert store.last_replay_cost == 5  # replayed deltas 1..5

    def test_hybrid_bounded_replay(self):
        store = self._history(ArchivePolicy.HYBRID)
        store.snapshot(5)  # nearest checkpoint: version 3
        assert 0 < store.last_replay_cost <= 3

    def test_storage_ordering(self):
        full = self._history(ArchivePolicy.FULL).storage_triples()
        hybrid = self._history(ArchivePolicy.HYBRID).storage_triples()
        delta = self._history(ArchivePolicy.DELTA).storage_triples()
        assert delta < hybrid < full

    def test_all_policies_reconstruct_identically(self):
        stores = {
            policy: self._history(policy) for policy in ArchivePolicy
        }
        for version in range(9):
            snapshots = [
                stores[policy].snapshot(version) for policy in ArchivePolicy
            ]
            assert snapshots[0] == snapshots[1] == snapshots[2]


class TestVersionQueries:
    def test_query_each_version(self, base_graph):
        store = VersionedGraph(base_graph)
        store.commit(additions=[t("e", "q", "d")])
        query = "PREFIX ex: <http://x/>\nSELECT ?s WHERE { ?s ex:q ex:d }"
        assert len(store.query_version(query, 0)) == 1
        assert len(store.query_version(query, 1)) == 2

    def test_versions_where(self, base_graph):
        store = VersionedGraph(base_graph)
        store.commit(deletions=[t("a", "q", "d")])
        store.commit(additions=[t("a", "q", "d")])
        ask = "PREFIX ex: <http://x/>\nASK { ex:a ex:q ex:d }"
        assert store.versions_where(ask) == [0, 2]


class TestUpdatableEngines:
    QUERY = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }"
    )

    def _new_triples(self):
        member = LUBM.memberOf
        return [
            Triple(LUBM["NewStudent%d" % i], member, LUBM.Department0_0)
            for i in range(5)
        ]

    def _updated(self, engine_class, graph, additions=(), deletions=()):
        """A loaded engine, the head it was brought to by ``apply_delta``
        and the records that rewrote."""
        engine = engine_class(SparkContext(4)).load(graph)
        store = VersionedGraph(graph)
        version = store.commit(additions=additions, deletions=deletions)
        touched = engine.apply_delta(store.delta(version), store.head())
        return engine, store.head(), touched

    @pytest.mark.parametrize(
        "engine_class",
        [SparqlgxEngine, NaiveEngine],
        # The names the suite's floor lists these two cases under.
        ids=["UpdatableSparqlgxEngine", "UpdatableNaiveEngine"],
    )
    def test_update_then_query_matches_reference(
        self, lubm_graph, engine_class
    ):
        removed = next(iter(lubm_graph.triples((None, LUBM.memberOf, None))))
        engine, updated, _ = self._updated(
            engine_class, lubm_graph, self._new_triples(), [removed]
        )
        assert removed not in updated and len(updated) == len(lubm_graph) + 4
        expected = evaluate(parse_sparql(self.QUERY), updated)
        assert engine.execute(self.QUERY).same_as(expected)

    def test_sparqlgx_touches_only_affected_stores(self, lubm_graph):
        engine, _, touched = self._updated(
            SparqlgxEngine, lubm_graph, self._new_triples()
        )
        assert touched == engine.vp_sizes[LUBM.memberOf]
        assert touched < len(lubm_graph)
        # Every other predicate kept the RDD it was built with.
        built = SparqlgxEngine(SparkContext(4)).load(lubm_graph).vp_tables
        assert [
            predicate
            for predicate, table in engine.vp_tables.items()
            if table.id != built[predicate].id
        ] == [LUBM.memberOf]

    def test_naive_rewrites_everything(self, lubm_graph):
        _, _, touched = self._updated(
            NaiveEngine, lubm_graph, self._new_triples()
        )
        assert touched >= len(lubm_graph)

    def test_new_predicate_creates_store(self, lubm_graph):
        brand_new = Triple(LUBM.X, URI(EX + "fresh"), LUBM.Y)
        engine, _, _ = self._updated(SparqlgxEngine, lubm_graph, [brand_new])
        result = engine.execute(
            "PREFIX ex: <http://x/>\nSELECT ?s WHERE { ?s ex:fresh ?o }"
        )
        assert len(result) == 1

    def test_emptying_predicate_removes_store(self, lubm_graph):
        advisors = list(lubm_graph.triples((None, LUBM.advisor, None)))
        engine, _, _ = self._updated(
            SparqlgxEngine, lubm_graph, deletions=advisors
        )
        assert LUBM.advisor not in engine.vp_tables
        result = engine.execute(
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT ?s WHERE { ?s lubm:advisor ?p }"
        )
        assert len(result) == 0

    def test_stats_stay_consistent(self, lubm_graph):
        engine, updated, _ = self._updated(
            SparqlgxEngine, lubm_graph, self._new_triples()
        )
        assert engine.stats["triples"] == len(lubm_graph) + 5
        assert engine.stats == SparqlgxEngine().load(updated).stats
