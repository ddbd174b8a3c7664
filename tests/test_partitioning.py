"""Tests for the future-work partitioning module (Section V)."""

import pytest

from repro.data.lubm import LUBM
from repro.data.watdiv import WATDIV
from repro.partitioning import (
    EdgeCutPartitioner,
    PartitionedTripleStore,
    SemanticPartitioner,
    ldg_partition,
)
from repro.rdf.terms import URI
from repro.spark.context import SparkContext
from repro.spark.partitioner import HashPartitioner
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.sparql.results import Solution, SolutionSet


def uri(name):
    return URI("http://x/" + name)


class TestSemanticPartitioner:
    def test_class_subjects_colocated(self, lubm_graph):
        partitioner = SemanticPartitioner(4, lubm_graph)
        for cls in lubm_graph.classes():
            partitions = {
                partitioner.partition_for(subject)
                for subject in lubm_graph.instances_of(cls)
            }
            assert len(partitions) == 1, cls

    def test_in_range(self, lubm_graph):
        partitioner = SemanticPartitioner(3, lubm_graph)
        for subject in lubm_graph.subjects():
            assert 0 <= partitioner.partition_for(subject) < 3

    def test_unknown_subject_falls_back_to_hash(self, lubm_graph):
        partitioner = SemanticPartitioner(4, lubm_graph)
        index = partitioner.partition_for(uri("stranger"))
        assert 0 <= index < 4

    def test_load_reasonably_balanced(self, lubm_graph):
        store = PartitionedTripleStore(
            SparkContext(4), lubm_graph, SemanticPartitioner(4, lubm_graph)
        )
        # LPT bound: max load <= ideal + largest class.
        assert store.balance() < 2.5

    def test_class_scan_touches_one_partition(self, lubm_graph):
        store = PartitionedTripleStore(
            SparkContext(4), lubm_graph, SemanticPartitioner(4, lubm_graph)
        )
        assert store.class_scan_partitions(LUBM.Course) == 1

    def test_hash_scatters_class_scans(self, lubm_graph):
        store = PartitionedTripleStore(
            SparkContext(4), lubm_graph, HashPartitioner(4)
        )
        assert store.class_scan_partitions(LUBM.Course) > 1

    def test_partition_of_class(self, lubm_graph):
        partitioner = SemanticPartitioner(4, lubm_graph)
        assert partitioner.partition_of_class(LUBM.Course) is not None
        assert partitioner.partition_of_class(uri("NoSuchClass")) is None


class TestLdgPartition:
    def test_empty(self):
        assert ldg_partition([], 4) == {}

    def test_all_vertices_placed_in_range(self):
        edges = [(uri("a"), uri("b")), (uri("b"), uri("c"))]
        placement = ldg_partition(edges, 2)
        assert set(placement) == {uri("a"), uri("b"), uri("c")}
        assert all(0 <= p < 2 for p in placement.values())

    def test_clique_stays_together(self):
        # Two 4-cliques joined by one bridge: LDG should cut only the bridge.
        def clique(prefix):
            nodes = [uri("%s%d" % (prefix, i)) for i in range(4)]
            return [
                (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]
            ]

        edges = clique("a") + clique("b") + [(uri("a0"), uri("b0"))]
        placement = ldg_partition(edges, 2)
        assert sum(placement[a] != placement[b] for a, b in edges) <= 2

    def test_respects_capacity(self):
        edges = [(uri("hub"), uri("n%d" % i)) for i in range(20)]
        placement = ldg_partition(edges, 4, balance_slack=1.1)
        counts = {}
        for partition in placement.values():
            counts[partition] = counts.get(partition, 0) + 1
        assert max(counts.values()) <= int(1.1 * 21 / 4) + 1

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            ldg_partition([], 0)

    def test_deterministic(self):
        edges = [(uri("a"), uri("b")), (uri("b"), uri("c")), (uri("c"), uri("a"))]
        assert ldg_partition(edges, 2) == ldg_partition(edges, 2)


class TestEdgeCutPartitioner:
    def test_beats_hashing_on_lubm(self, lubm_graph):
        sc = SparkContext(4)
        ldg_store = PartitionedTripleStore(
            sc, lubm_graph, EdgeCutPartitioner(4, lubm_graph)
        )
        hash_store = PartitionedTripleStore(sc, lubm_graph, HashPartitioner(4))
        assert ldg_store.edge_cut_fraction() < hash_store.edge_cut_fraction()

    def test_balance_bounded(self, lubm_graph):
        partitioner = EdgeCutPartitioner(4, lubm_graph, balance_slack=1.2)
        assert partitioner.balance() <= 1.3

    def test_store_hop_locality_improves(self, lubm_graph):
        sc = SparkContext(4)
        hash_store = PartitionedTripleStore(
            sc, lubm_graph, HashPartitioner(4)
        )
        ldg_store = PartitionedTripleStore(
            sc, lubm_graph, EdgeCutPartitioner(4, lubm_graph)
        )
        predicate = LUBM.worksFor
        assert ldg_store.linear_hop_locality(
            predicate
        ) > hash_store.linear_hop_locality(predicate)


class TestPartitionedStoreEvaluation:
    @pytest.mark.parametrize(
        "make_partitioner",
        [
            lambda g: HashPartitioner(4),
            lambda g: SemanticPartitioner(4, g),
            lambda g: EdgeCutPartitioner(4, g),
        ],
        ids=["hash", "semantic", "edgecut"],
    )
    def test_local_star_evaluation_correct(
        self, lubm_graph, make_partitioner
    ):
        query = parse_sparql(
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            "SELECT ?s ?d ?a WHERE { "
            "?s rdf:type lubm:GraduateStudent . "
            "?s lubm:memberOf ?d . ?s lubm:age ?a }"
        )
        store = PartitionedTripleStore(
            SparkContext(4), lubm_graph, make_partitioner(lubm_graph)
        )
        bindings = store.evaluate_star_locally(
            query.where.triple_patterns()
        )
        got = SolutionSet(
            ["s", "d", "a"],
            [Solution(b) for b in bindings.collect()],
        )
        expected = evaluate(query, lubm_graph)
        assert got.same_as(expected)

    def test_local_star_requires_star(self, lubm_graph):
        query = parse_sparql(
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT * WHERE { ?a lubm:advisor ?b . ?b lubm:worksFor ?c }"
        )
        store = PartitionedTripleStore(
            SparkContext(4), lubm_graph, HashPartitioner(4)
        )
        with pytest.raises(ValueError):
            store.evaluate_star_locally(query.where.triple_patterns())

    def test_star_evaluation_shuffles_nothing(self, lubm_graph):
        sc = SparkContext(4)
        store = PartitionedTripleStore(
            sc, lubm_graph, SemanticPartitioner(4, lubm_graph)
        )
        query = parse_sparql(
            "PREFIX lubm: <http://repro.example.org/lubm#>\n"
            "SELECT * WHERE { ?s lubm:memberOf ?d . ?s lubm:age ?a }"
        )
        before = sc.metrics.snapshot()
        store.evaluate_star_locally(query.where.triple_patterns()).collect()
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records == 0
