"""Each engine against the reference on small random graphs.

A named slice of the differential matrix (tests/differential/matrix.py):
Hypothesis draws the graph (``small_graphs``), a fragment query over it
(``fragment_queries``) and HAQWA's frequent chain; the assertion is the
matrix's.  The HAQWA replica regression is
tests/differential/test_matrix.py's ``test_a_replica_answers_once``.
"""

from hypothesis import given, settings, strategies as st

from tests.differential.matrix import Cell, check_graph, fragment_queries, small_graphs


def matches_reference(engine, examples, variant=""):
    @given(graph=small_graphs, data=st.data())
    @settings(max_examples=examples, deadline=None)
    def test(graph, data):
        def choose(options):
            return data.draw(st.sampled_from(options))

        text = data.draw(fragment_queries(graph))
        check_graph(Cell.of(engine, variant), graph, text, choose=choose)

    return test


test_naive_matches_reference = matches_reference("Naive", 25)
test_haqwa_matches_reference = matches_reference("HAQWA", 25)
#: Replicas on: a frequent chain drawn per graph has its hop targets
#: copied beside their sources, and no partition may answer for a
#: subject it only holds a replica of.
test_haqwa_with_a_workload_matches_reference = matches_reference(
    "HAQWA", 60, "workload"
)
test_sparqlgx_matches_reference = matches_reference("SPARQLGX", 25)
test_s2rdf_matches_reference = matches_reference("S2RDF", 20)
test_hybrid_matches_reference = matches_reference("SPARQL-Hybrid", 20)
test_s2x_matches_reference = matches_reference("S2X", 15)
test_graphframes_matches_reference = matches_reference("GraphFrames-RDF", 15)
test_sparkrdf_matches_reference = matches_reference("SparkRDF", 15)
test_graphx_sgm_matches_reference = matches_reference("SPARQL-GraphX", 15)
test_sparkql_matches_reference = matches_reference("Spar(k)ql", 15)
