"""Mechanism tests for the graph-model engines: S2X, Kassaie's matcher,
Spar(k)ql, the GraphFrames system and SparkRDF.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.lubm import LUBM, LubmGenerator
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF
from repro.spark.context import SparkContext
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.parser import parse_sparql
from repro.systems.graphframes_sys import GraphFramesEngine
from repro.systems.graphx_sgm import (
    GraphXSubgraphEngine,
    decompose_into_paths,
)
from repro.systems.s2x import S2XEngine
from repro.systems.sparkql import SparkqlEngine
from repro.systems.sparkrdf import SparkRdfMesgEngine
from tests.systems.conftest import assert_engine_matches_reference

PREFIX = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

LINEAR = LubmGenerator.query_linear()
STAR = LubmGenerator.query_star()


class TestS2X:
    @pytest.fixture
    def engine(self, lubm_graph):
        eng = S2XEngine(SparkContext(4))
        eng.load(lubm_graph)
        return eng

    def test_property_graph_includes_literal_vertices(self, engine, lubm_graph):
        assert engine.graph.num_vertices() == len(
            lubm_graph.subjects() | lubm_graph.objects()
        )
        assert engine.graph.num_edges() == len(lubm_graph)

    def test_validation_iterates_to_fixpoint(self, engine, lubm_graph):
        assert_engine_matches_reference(engine, lubm_graph, LINEAR)
        assert engine.last_validation_rounds >= 1

    def test_validation_prunes_candidates(self, engine, lubm_graph):
        # A chain where few advisor edges continue to worksFor: at least
        # one validation round must discard something (rounds > 1 means a
        # change occurred in round 1).
        assert_engine_matches_reference(
            engine, lubm_graph, LubmGenerator.query_snowflake()
        )
        assert engine.last_validation_rounds >= 2

    def test_star_correct(self, engine, lubm_graph):
        assert_engine_matches_reference(engine, lubm_graph, STAR)


class TestKassaieSubgraphMatcher:
    def test_path_decomposition_linear(self):
        query = parse_sparql(LINEAR)
        paths = decompose_into_paths(query.where.triple_patterns())
        assert len(paths) == 1
        assert len(paths[0]) == 3

    def test_path_decomposition_star(self):
        query = parse_sparql(STAR)
        paths = decompose_into_paths(query.where.triple_patterns())
        assert len(paths) == 3
        assert all(len(p) == 1 for p in paths)

    def test_path_decomposition_handles_cycles(self):
        query = parse_sparql(
            PREFIX
            + "SELECT * WHERE { ?a lubm:p ?b . ?b lubm:q ?c . ?c lubm:r ?a }"
        )
        paths = decompose_into_paths(query.where.triple_patterns())
        assert sum(len(p) for p in paths) == 3

    def test_linear_chain_correct(self, lubm_graph):
        engine = GraphXSubgraphEngine(SparkContext(4))
        engine.load(lubm_graph)
        assert_engine_matches_reference(engine, lubm_graph, LINEAR)

    def test_mt_tables_empty_for_unmatched(self, lubm_graph):
        engine = GraphXSubgraphEngine(SparkContext(4))
        engine.load(lubm_graph)
        result = engine.execute(
            PREFIX + "SELECT ?s WHERE { ?s lubm:advisor ?p . ?p lubm:advisor ?q }"
        )
        assert len(result) == 0


EX = "http://repro.example.org/nodes#"
_vertices = [URI(EX + "v%d" % i) for i in range(8)]
#: The last class and property are in no graph.
_classes = [URI(EX + "C%d" % i) for i in range(4)]
_properties = [URI(EX + "d%d" % i) for i in range(4)]
_values = [Literal(i) for i in range(3)]

#: Vertices with classes and data property values: on four partitions
#: most of them lack some property or class.
vertex_graphs = st.lists(
    st.one_of(
        st.builds(
            Triple,
            st.sampled_from(_vertices),
            st.just(RDF.type),
            st.sampled_from(_classes[:-1]),
        ),
        st.builds(
            Triple,
            st.sampled_from(_vertices),
            st.sampled_from(_properties[:-1]),
            st.sampled_from(_values),
        ),
    ),
    min_size=1,
    max_size=30,
).map(RDFGraph)
X = Variable("x")
constraint_sets = st.lists(
    st.one_of(
        st.builds(
            TriplePattern,
            st.just(X),
            st.just(RDF.type),
            st.sampled_from(_classes),
        ),
        st.builds(
            TriplePattern,
            st.just(X),
            st.sampled_from(_properties),
            st.one_of(
                st.sampled_from([Variable("a"), Variable("b")]),
                st.sampled_from(_values),
            ),
        ),
    ),
    min_size=1,
    max_size=4,
)


def walk_every_vertex(part, constraints):
    """A partition's node table for ``?x`` by definition: every vertex
    against every constraint, as bindings."""
    out = []
    for vertex, attrs in part:
        found = [{"x": vertex}]
        for pattern in constraints:
            obj = pattern.object
            if pattern.predicate == RDF.type:
                found = found if obj in attrs["types"] else []
                continue
            values = attrs["props"].get(pattern.predicate, [])
            if not isinstance(obj, Variable):
                found = [b for b in found for v in values if v == obj]
            else:
                found = [
                    {**b, obj.name: v}
                    for b in found
                    for v in values
                    if b.get(obj.name, v) == v
                ]
        out += found
    return out


def node_tables_walk_their_candidates(examples):
    @given(graph=vertex_graphs, constraints=constraint_sets)
    @settings(max_examples=examples, deadline=None)
    def test(graph, constraints):
        engine = SparkqlEngine(SparkContext(4))
        engine.load(graph)
        table = engine._node_table("x", constraints)
        found = [
            [dict(zip(table.header, row)) for row in part]
            for part in table.collectPartitions()
        ]
        assert found == [
            walk_every_vertex(part, constraints)
            for part in engine.graph.vertices.collectPartitions()
        ]

    return test


#: A node table walks the fewest candidates a constraint leaves, and
#: finds the rows, in the order, of a walk over every vertex.
test_a_node_table_is_the_walk_over_every_vertex = (
    node_tables_walk_their_candidates(150)
)
test_a_node_table_is_the_walk_over_every_vertex_deep = pytest.mark.slow(
    node_tables_walk_their_candidates(3000)
)


class TestSparkql:
    @pytest.fixture
    def engine(self, lubm_graph):
        eng = SparkqlEngine(SparkContext(4))
        eng.load(lubm_graph)
        return eng

    def test_split_object_vs_data_properties(self, engine):
        assert LUBM.advisor in engine.object_properties
        assert LUBM.age in engine.data_properties
        assert LUBM.age not in engine.object_properties

    def test_types_stored_in_nodes(self, engine, lubm_graph):
        attrs = dict(engine.graph.vertices.collect())
        student = next(iter(lubm_graph.instances_of(LUBM.GraduateStudent)))
        assert LUBM.GraduateStudent in attrs[student]["types"]

    def test_data_properties_stored_in_nodes(self, engine, lubm_graph):
        attrs = dict(engine.graph.vertices.collect())
        student = next(iter(lubm_graph.instances_of(LUBM.GraduateStudent)))
        assert LUBM.age in attrs[student]["props"]

    def test_type_edges_not_in_graph(self, engine):
        labels = {e.attr for e in engine.graph.edges.collect()}
        assert RDF.type not in labels

    def test_star_with_types_correct(self, engine, lubm_graph):
        assert_engine_matches_reference(engine, lubm_graph, STAR)

    def test_chain_correct(self, engine, lubm_graph):
        assert_engine_matches_reference(engine, lubm_graph, LINEAR)

    def test_type_variable_falls_back(self, engine, lubm_graph):
        assert_engine_matches_reference(
            engine, lubm_graph, PREFIX + "SELECT ?s ?t WHERE { ?s rdf:type ?t }"
        )

    def test_bfs_order_root_is_most_connected(self):
        query = parse_sparql(LubmGenerator.query_snowflake())
        edges = [
            p
            for p in query.where.triple_patterns()
            if p.predicate
            in (LUBM.memberOf, LUBM.advisor, LUBM.worksFor, LUBM.teacherOf)
        ]
        plan = SparkqlEngine._bfs_order(edges)
        assert len(plan) == len(edges)


class TestGraphFramesEngine:
    @pytest.fixture
    def engine(self, lubm_graph):
        eng = GraphFramesEngine(SparkContext(4))
        eng.load(lubm_graph)
        return eng

    def test_predicate_frequency_ordering(self, engine):
        query = parse_sparql(LubmGenerator.query_snowflake())
        ordered = engine._order_patterns(query.where.triple_patterns())
        frequencies = [
            engine.predicate_frequency.get(p.predicate, 0) for p in ordered
        ]
        assert frequencies == sorted(frequencies)

    def test_local_search_space_pruning(self, engine, lubm_graph):
        query = parse_sparql(LINEAR)
        engine.execute(query)
        assert engine.last_pruned_edge_count < len(lubm_graph)

    def test_no_pruning_with_variable_predicate(self, engine, lubm_graph):
        engine.execute(
            PREFIX + "SELECT ?p WHERE { ?s ?p ?o }"
        )
        assert engine.last_pruned_edge_count == len(lubm_graph)

    def test_motif_translation_correct(self, engine, lubm_graph):
        assert_engine_matches_reference(engine, lubm_graph, LINEAR)
        assert_engine_matches_reference(engine, lubm_graph, STAR)

    def test_constant_endpoints(self, engine, lubm_graph):
        dept = next(
            iter(lubm_graph.triples((None, LUBM.subOrganizationOf, None)))
        )
        query = PREFIX + (
            "SELECT ?d WHERE { ?d lubm:subOrganizationOf %s }"
            % dept.object.n3()
        )
        assert_engine_matches_reference(engine, lubm_graph, query)


class TestSparkRdfMesg:
    @pytest.fixture
    def engine(self, lubm_graph):
        eng = SparkRdfMesgEngine(SparkContext(4))
        eng.load(lubm_graph)
        return eng

    def test_mesg_levels_built(self, engine):
        assert engine.class_index
        assert engine.relation_index
        assert engine.cr_index
        assert engine.rc_index
        assert engine.crc_index

    def test_crc_narrower_than_relation(self, engine):
        # takesCourse: Student x Course.  CRC file must be no larger than
        # the whole relation file.
        relation = engine.relation_index[LUBM.takesCourse]
        crc = engine.crc_index[
            (LUBM.UndergraduateStudent, LUBM.takesCourse, LUBM.Course)
        ]
        assert 0 < len(crc) < len(relation)

    def test_class_constraint_selects_narrow_index(self, engine, lubm_graph):
        query = PREFIX + """
        SELECT ?s ?c WHERE {
          ?s rdf:type lubm:GraduateStudent .
          ?s lubm:takesCourse ?c .
        }
        """
        assert_engine_matches_reference(engine, lubm_graph, query)
        assert engine.last_index_reads.get("CR", 0) > 0
        assert engine.last_index_reads.get("REL", 0) == 0

    def test_type_pattern_removed_but_verified(self, engine, lubm_graph):
        # Multi-class safety: constraints checked on every binding.
        query = PREFIX + """
        SELECT ?s ?d WHERE {
          ?s rdf:type lubm:GraduateStudent .
          ?s lubm:memberOf ?d .
          ?d rdf:type lubm:Department .
        }
        """
        assert_engine_matches_reference(engine, lubm_graph, query)
        assert engine.last_index_reads.get("CRC", 0) > 0

    def test_index_reads_smaller_than_full_scan(self, engine, lubm_graph):
        query = PREFIX + """
        SELECT ?s ?c WHERE {
          ?s rdf:type lubm:GraduateStudent .
          ?s lubm:takesCourse ?c .
        }
        """
        engine.execute(query)
        total_reads = sum(engine.last_index_reads.values())
        assert total_reads < len(lubm_graph)

    def test_pure_type_query_uses_class_index(self, engine, lubm_graph):
        query = PREFIX + "SELECT ?s WHERE { ?s rdf:type lubm:Course }"
        assert_engine_matches_reference(engine, lubm_graph, query)
        assert engine.last_index_reads.get("CLASS", 0) > 0

    def test_prepartitioned_joins_stay_local(self, engine, lubm_graph):
        sc = engine.ctx
        before = sc.metrics.snapshot()
        engine.execute(STAR)
        cost = sc.metrics.snapshot() - before
        # Dynamic pre-partitioning: join input already placed by the join
        # variable, so (nearly) nothing crosses executors.
        assert cost.shuffle_records > 0
        assert cost.locality_fraction() > 0.9

    def test_variable_predicate_reads_level_one(self, engine, lubm_graph):
        assert_engine_matches_reference(
            engine, lubm_graph, PREFIX + "SELECT ?p WHERE { ?s ?p ?o }"
        )
        assert engine.last_index_reads.get("REL", 0) > 0
