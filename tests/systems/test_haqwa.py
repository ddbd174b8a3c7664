"""HAQWA mechanism tests: subject hashing, replication, locality, encoding."""

import pytest

from repro.data.lubm import LubmGenerator
from repro.data.workload import QueryWorkload
from repro.spark.context import SparkContext
from repro.sparql.parser import parse_sparql
from repro.systems.haqwa import (
    HaqwaEngine,
    group_by_subject,
    linking_predicates,
)
from tests.systems.conftest import assert_engine_matches_reference

PREFIX = "PREFIX lubm: <http://repro.example.org/lubm#>\n" \
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"

STAR = PREFIX + """
SELECT ?s ?d ?a WHERE {
  ?s rdf:type lubm:GraduateStudent .
  ?s lubm:memberOf ?d .
  ?s lubm:age ?a .
}
"""

LINEAR = PREFIX + """
SELECT ?s ?p ?dep WHERE {
  ?s lubm:advisor ?p .
  ?p lubm:worksFor ?dep .
}
"""


class TestPatternAnalysis:
    def test_group_by_subject(self):
        query = parse_sparql(STAR)
        groups = group_by_subject(query.where.triple_patterns())
        assert len(groups) == 1
        assert len(groups[0]) == 3

    def test_linear_forms_two_groups(self):
        query = parse_sparql(LINEAR)
        groups = group_by_subject(query.where.triple_patterns())
        assert [len(g) for g in groups] == [1, 1]

    def test_linking_predicates(self):
        query = parse_sparql(LINEAR)
        links = linking_predicates(query.where.triple_patterns())
        assert {p.local_name() for p in links} == {"advisor"}

    def test_star_has_no_links(self):
        query = parse_sparql(STAR)
        assert linking_predicates(query.where.triple_patterns()) == set()


class TestPartitioning:
    def test_subject_triples_colocated(self, lubm_graph):
        engine = HaqwaEngine(SparkContext(4))
        engine.load(lubm_graph)
        partitions = engine.store.collectPartitions()
        subject_home = {}
        for index, partition in enumerate(partitions):
            for s, _p, _o in partition:
                subject_home.setdefault(s, set()).add(index)
        # Without a workload there are no replicas: one home per subject.
        assert all(len(homes) == 1 for homes in subject_home.values())

    def test_star_query_runs_without_shuffle(self, lubm_graph):
        sc = SparkContext(4)
        engine = HaqwaEngine(sc)
        engine.load(lubm_graph)
        before = sc.metrics.snapshot()
        assert_engine_matches_reference(engine, lubm_graph, STAR)
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records == 0

    def test_linear_query_shuffles_without_workload(self, lubm_graph):
        sc = SparkContext(4)
        engine = HaqwaEngine(sc)
        engine.load(lubm_graph)
        before = sc.metrics.snapshot()
        assert_engine_matches_reference(engine, lubm_graph, LINEAR)
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records > 0


class TestWorkloadAwareAllocation:
    @pytest.fixture
    def workload(self):
        workload = QueryWorkload()
        workload.add("linear", parse_sparql(LINEAR), frequency=10.0)
        return workload

    def test_replication_happens(self, lubm_graph, workload):
        engine = HaqwaEngine(SparkContext(4), workload=workload)
        engine.load(lubm_graph)
        assert engine.replicated_triples > 0

    def test_frequent_query_becomes_local(self, lubm_graph, workload):
        sc = SparkContext(4)
        engine = HaqwaEngine(sc, workload=workload)
        engine.load(lubm_graph)
        before = sc.metrics.snapshot()
        assert_engine_matches_reference(engine, lubm_graph, LINEAR)
        cost = sc.metrics.snapshot() - before
        assert cost.shuffle_records == 0

    def test_replicas_produce_no_duplicates(self, lubm_graph, workload):
        engine = HaqwaEngine(SparkContext(4), workload=workload)
        engine.load(lubm_graph)
        assert_engine_matches_reference(engine, lubm_graph, STAR)
        assert_engine_matches_reference(engine, lubm_graph, LINEAR)

    def test_constant_subject_star_on_the_shuffle_path(self, lubm_graph, workload):
        # The professor's triples are replicated beside every advisee;
        # a star anchored on the constant must still come from its home
        # partition alone (12 rows for the reference's 4 before the fix).
        engine = HaqwaEngine(SparkContext(4), workload=workload)
        engine.load(lubm_graph)
        assert engine.replicated_triples > 0
        result = assert_engine_matches_reference(
            engine,
            lubm_graph,
            PREFIX
            + "SELECT ?dep ?s WHERE {"
            " lubm:Professor0_1_2 lubm:worksFor ?dep ."
            " ?s lubm:advisor lubm:Professor0_1_2 }",
        )
        assert len(result) == 4

    def test_infrequent_query_still_correct(self, lubm_graph, workload):
        engine = HaqwaEngine(SparkContext(4), workload=workload)
        engine.load(lubm_graph)
        assert_engine_matches_reference(
            engine, lubm_graph, LubmGenerator.query_complex()
        )

    def test_chain_longer_than_replication_falls_back(self, lubm_graph, workload):
        # Three-hop chain: replication is one hop deep, so this must take
        # the shuffle path yet stay correct.
        engine = HaqwaEngine(SparkContext(4), workload=workload)
        engine.load(lubm_graph)
        assert_engine_matches_reference(
            engine, lubm_graph, LubmGenerator.query_linear()
        )


class TestEncoding:
    def test_dictionary_built(self, lubm_graph):
        engine = HaqwaEngine(SparkContext(4))
        engine.load(lubm_graph)
        assert len(engine.dictionary) > 0

    def test_store_holds_integers(self, lubm_graph):
        engine = HaqwaEngine(SparkContext(4))
        engine.load(lubm_graph)
        triple = engine.store.first()
        assert all(isinstance(x, int) for x in triple)

    def test_results_decoded_to_terms(self, lubm_graph):
        engine = HaqwaEngine(SparkContext(4))
        engine.load(lubm_graph)
        result = engine.execute(STAR)
        first = result.solutions[0]
        assert first.get("s") is not None
        assert hasattr(first.get("s"), "n3")
