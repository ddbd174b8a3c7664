"""The load-time layouts: one canonical order and one dictionary encoding
per graph version, shared read-only by every engine that loads it
(docs/ARCHITECTURE.md, "Load-time layouts").
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.encoding import Dictionary
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF, XSD
from repro.spark.context import SparkContext
from repro.systems import ENGINE_HOMES, engine_class

from tests.systems.conftest import assert_engine_matches_reference

EX = "http://example.org/layouts/"
DICTIONARY_ENGINES = ("S2RDF", "HAQWA", "SPARQL-Hybrid")


def ex(name):
    return URI(EX + name)


def small_graph():
    """Two chains of ``knows`` ending in ``worksAt``, plus types."""
    graph = RDFGraph()
    for i in range(6):
        graph.add(Triple(ex("p%d" % i), ex("knows"), ex("p%d" % (i + 1))))
        graph.add(Triple(ex("p%d" % i), RDF.type, ex("Person")))
    graph.add(Triple(ex("p6"), ex("worksAt"), ex("org0")))
    graph.add(Triple(ex("p3"), ex("worksAt"), ex("org1")))
    return graph


QUERY = (
    "SELECT ?a ?b ?org WHERE { ?a <%sknows> ?b . ?b <%sworksAt> ?org }"
    % (EX, EX)
)


def load(name, graph):
    return engine_class(name)(SparkContext(2)).load(graph)


@pytest.mark.parametrize("name", sorted(ENGINE_HOMES))
def test_a_change_drops_the_layouts_every_engine_builds_from(name):
    graph = small_graph()
    answers = [load(name, graph).execute(QUERY)]
    # An addition, then a removal, both on the query's predicates; an
    # engine is built after each.
    assert graph.add(Triple(ex("p1"), ex("worksAt"), ex("org2")))
    answers.append(assert_engine_matches_reference(load(name, graph), graph, QUERY))
    assert graph.remove(Triple(ex("p2"), ex("knows"), ex("p3")))
    answers.append(assert_engine_matches_reference(load(name, graph), graph, QUERY))
    fresh = load(name, RDFGraph(sorted(graph))).execute(QUERY)
    assert answers[-1].same_as(fresh)
    assert not any(a.same_as(b) for a, b in zip(answers, answers[1:]))


def test_two_engines_of_one_graph_share_every_layout():
    graph = small_graph()
    engines = {name: load(name, graph) for name in DICTIONARY_ENGINES}
    dictionary, triples = graph.encoding()
    assert all(e.dictionary is dictionary for e in engines.values())
    order = graph.canonical_order()
    naive, sparkql = load("Naive", graph), load("Spar(k)ql", graph)
    assert graph.canonical_order() is order and graph.encoding().triples is triples
    # The engines' stores hold the layout's own tuples, not copies.
    assert all(a is b for a, b in zip(naive.triples.collect(), order))
    assert all(a is b for a, b in zip(sparkql._all_triples.collect(), order))


def test_a_no_op_change_keeps_the_layouts_and_a_copy_starts_without():
    graph = small_graph()
    order, encoding = graph.canonical_order(), graph.encoding()
    assert not graph.add(Triple(ex("p0"), ex("knows"), ex("p1")))
    assert not graph.remove(Triple(ex("p0"), ex("knows"), ex("p9")))
    assert graph.canonical_order() is order and graph.encoding() is encoding
    clone = graph.copy()
    clone.add(Triple(ex("p9"), ex("knows"), ex("p0")))
    assert len(clone.canonical_order()) == len(order) + 1
    assert graph.canonical_order() is order


@pytest.mark.parametrize("name", DICTIONARY_ENGINES)
def test_mutating_a_shared_layout_through_an_engine_fails_loudly(name):
    graph = small_graph()
    engine = load(name, graph)
    with pytest.raises(TypeError, match="frozen"):
        engine.dictionary.encode_term(ex("unseen"))
    assert engine.dictionary.get(ex("unseen")) is None
    # A seen term still encodes: the dictionary only stops growing.
    assert engine.dictionary.encode_term(ex("knows")) == engine.dictionary.get(
        ex("knows")
    )
    with pytest.raises(TypeError):
        graph.encoding().triples[0] = (0, 0, 0)
    with pytest.raises(TypeError):
        graph.canonical_order()[0] = graph.canonical_order()[1]


GRAPH_ENGINES = ("S2X", "SPARQL-GraphX", "GraphFrames-RDF")


def test_the_graph_engines_share_one_vertex_list():
    graph = small_graph()
    builds = []
    subjects = graph.subjects
    graph.subjects = lambda: builds.append(1) or subjects()
    engines = [load(name, graph) for name in GRAPH_ENGINES]
    vertices = graph.vertices()
    assert len(builds) == 1 and graph.vertices() is vertices
    # GraphFrames-RDF's nodelist holds the layout's own terms, in order.
    nodes = engines[2].gframe.vertices.rdd.collect()
    assert len(nodes) == len(vertices)
    assert all(a is b for (a,), b in zip(nodes, vertices))
    with pytest.raises(TypeError):
        vertices[0] = ex("unseen")


def test_a_change_drops_the_vertex_list_and_a_copy_starts_without():
    graph = small_graph()
    vertices = graph.vertices()
    assert not graph.add(Triple(ex("p0"), ex("knows"), ex("p1")))
    assert not graph.remove(Triple(ex("p0"), ex("knows"), ex("p9")))
    assert graph.vertices() is vertices
    clone = graph.copy()
    assert clone._vertices is None and clone.vertices() == vertices
    assert graph.add(Triple(ex("p9"), ex("knows"), ex("p0")))
    assert graph.vertices() is not vertices
    assert ex("p9") in graph.vertices() and ex("p9") not in vertices
    grown = graph.vertices()
    assert graph.remove(Triple(ex("p9"), ex("knows"), ex("p0")))
    assert graph.vertices() == vertices and graph.vertices() is not grown


# Unequal terms whose sort keys tie: the comparator leaves each pair in
# iteration order, and the shared order must do exactly the same.
TIED_OBJECTS = [
    Literal("1", datatype=XSD.int),
    Literal("1.0", datatype=XSD.double),
    Literal("a"),
    Literal("a", language="en"),
    ex("o"),
]
_triples = st.builds(
    Triple,
    st.sampled_from([ex("s0"), ex("s1")]),
    st.sampled_from([ex("p"), ex("q")]),
    st.sampled_from(TIED_OBJECTS),
)


def _old_encoding(graph):
    """Ids first-seen over ``sorted(graph)``, one triple at a time."""
    dictionary = Dictionary()
    return dictionary, [dictionary.encode(t).as_tuple() for t in sorted(graph)]


@given(st.lists(_triples, max_size=14), st.lists(_triples, max_size=4))
@settings(max_examples=60, deadline=None)
def test_the_shared_layouts_are_what_each_engine_built(triples, changes):
    graph = RDFGraph(triples)
    for round_ in range(2):
        order = graph.canonical_order()
        assert list(order) == [t.as_tuple() for t in sorted(graph)]
        dictionary, encoded = graph.encoding()
        old_dictionary, old_encoded = _old_encoding(graph)
        assert list(encoded) == old_encoded
        assert list(encoded) == Dictionary().encode_graph(graph)
        assert graph.vertices() == tuple(
            sorted(graph.subjects() | graph.objects(), key=lambda t: t.sort_key())
        )
        assert [dictionary.decode_id(i) for i in range(len(dictionary))] == [
            old_dictionary.decode_id(i) for i in range(len(old_dictionary))
        ]
        # The next version: toggle each change, then check again.
        for triple in changes:
            if not graph.remove(triple):
                graph.add(triple)
