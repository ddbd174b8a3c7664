"""Property-based engine validation on random graphs and queries.

Hypothesis builds small random RDF graphs and structured BGPs; a rotating
subset of engines must agree with the reference evaluator on every one.
This is the adversarial net behind the hand-written correctness tests.
"""

from hypothesis import example, given, settings, strategies as st

from repro.data.workload import QueryWorkload
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.sparql.algebra import evaluate
from repro.sparql.ast import (
    GroupGraphPattern,
    SelectQuery,
    TriplePattern,
    Variable,
)
from repro.systems import (
    GraphFramesEngine,
    GraphXSubgraphEngine,
    HaqwaEngine,
    HybridEngine,
    NaiveEngine,
    S2RdfEngine,
    S2XEngine,
    SparkRdfMesgEngine,
    SparkqlEngine,
    SparqlgxEngine,
)

EX = "http://x/"

_subjects = st.sampled_from([URI(EX + "s%d" % i) for i in range(6)])
_predicates = st.sampled_from([URI(EX + "p%d" % i) for i in range(3)])
_objects = st.one_of(
    st.sampled_from([URI(EX + "s%d" % i) for i in range(6)]),
    st.sampled_from([Literal(i) for i in range(3)]),
)
_triples = st.builds(Triple, _subjects, _predicates, _objects)
_graphs = st.lists(_triples, min_size=1, max_size=24).map(RDFGraph)


def _select(patterns):
    return SelectQuery(variables=None, where=GroupGraphPattern(patterns))


def _star_query(predicates, subject=Variable("s")):
    """A star on *subject*: a variable, or a constant anchoring it."""
    return _select(
        [
            TriplePattern(subject, predicate, Variable("o%d" % i))
            for i, predicate in enumerate(predicates)
        ]
    )


def _chain_query(predicates, head=Variable("v0")):
    """A chain from *head*: a variable, or a constant anchoring it."""
    nodes = [head] + [Variable("v%d" % (i + 1)) for i in range(len(predicates))]
    return _select(
        [
            TriplePattern(nodes[i], predicate, nodes[i + 1])
            for i, predicate in enumerate(predicates)
        ]
    )


def _link_query(subject, outgoing, incoming):
    """``<s> pA ?o . ?q pB <s>``: two stars linked by a constant."""
    return _select(
        [
            TriplePattern(subject, outgoing, Variable("o")),
            TriplePattern(Variable("q"), incoming, subject),
        ]
    )


_star_predicates = st.lists(_predicates, min_size=1, max_size=3, unique=True)
_chain_predicates = st.lists(_predicates, min_size=2, max_size=3)
_chains = _chain_predicates.map(_chain_query)
_queries = st.one_of(
    _star_predicates.map(_star_query),
    _chains,
    st.builds(_star_query, _star_predicates, _subjects),
    st.builds(_chain_query, _chain_predicates, _subjects),
    st.builds(_link_query, _subjects, _predicates, _predicates),
)


def _check(engine_class, graph, query, **engine_kwargs):
    engine = engine_class(SparkContext(4), **engine_kwargs)
    engine.load(graph)
    expected = evaluate(query, graph)
    actual = engine.execute(query)
    assert actual.same_as(expected), (
        "%s: %d vs %d rows on %r over %d triples"
        % (
            engine_class.profile.name,
            len(actual),
            len(expected),
            query.where.triple_patterns(),
            len(graph),
        )
    )


@given(graph=_graphs, query=_queries)
@settings(max_examples=25, deadline=None)
def test_naive_matches_reference(graph, query):
    _check(NaiveEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=25, deadline=None)
def test_haqwa_matches_reference(graph, query):
    _check(HaqwaEngine, graph, query)


@given(graph=_graphs, query=_queries, frequent=_chains)
@example(
    # s0's triples are replicated beside s1: the star on the constant s0
    # came back once per copy (2 rows for the reference's 1).
    graph=RDFGraph(
        [
            Triple(URI(EX + "s1"), URI(EX + "p0"), URI(EX + "s0")),
            Triple(URI(EX + "s0"), URI(EX + "p0"), URI(EX + "s2")),
        ]
    ),
    query=_link_query(URI(EX + "s0"), URI(EX + "p0"), URI(EX + "p0")),
    frequent=_chain_query([URI(EX + "p0"), URI(EX + "p0")]),
)
@settings(max_examples=60, deadline=None)
def test_haqwa_with_a_workload_matches_reference(graph, query, frequent):
    """Replicas on: the frequent chain's hop targets are copied beside
    their sources, and no partition may answer for a subject it only
    holds a replica of."""
    workload = QueryWorkload()
    workload.add("frequent", frequent, frequency=10.0)
    _check(HaqwaEngine, graph, query, workload=workload)


@given(graph=_graphs, query=_queries)
@settings(max_examples=25, deadline=None)
def test_sparqlgx_matches_reference(graph, query):
    _check(SparqlgxEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=20, deadline=None)
def test_s2rdf_matches_reference(graph, query):
    _check(S2RdfEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=20, deadline=None)
def test_hybrid_matches_reference(graph, query):
    _check(HybridEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=15, deadline=None)
def test_s2x_matches_reference(graph, query):
    _check(S2XEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=15, deadline=None)
def test_graphframes_matches_reference(graph, query):
    _check(GraphFramesEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=15, deadline=None)
def test_sparkrdf_matches_reference(graph, query):
    _check(SparkRdfMesgEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=15, deadline=None)
def test_graphx_sgm_matches_reference(graph, query):
    _check(GraphXSubgraphEngine, graph, query)


@given(graph=_graphs, query=_queries)
@settings(max_examples=15, deadline=None)
def test_sparkql_matches_reference(graph, query):
    _check(SparkqlEngine, graph, query)
