"""Tests for triples (position validity) and the indexed graph."""

import pytest
from hypothesis import given, settings

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triple import Triple, TripleValidityError
from repro.rdf.vocab import RDF
from tests.graph_edits import apply_edits, edit_scripts

EX = "http://example.org/"


def uri(name):
    return URI(EX + name)


@pytest.fixture
def graph():
    g = RDFGraph()
    g.add(Triple(uri("alice"), uri("knows"), uri("bob")))
    g.add(Triple(uri("alice"), uri("age"), Literal(30)))
    g.add(Triple(uri("bob"), uri("knows"), uri("carol")))
    g.add(Triple(uri("alice"), RDF.type, uri("Person")))
    g.add(Triple(uri("bob"), RDF.type, uri("Person")))
    return g


class TestTripleValidity:
    def test_valid_forms(self):
        Triple(uri("s"), uri("p"), uri("o"))
        Triple(BNode("b"), uri("p"), Literal("x"))
        Triple(uri("s"), uri("p"), BNode("b"))

    def test_literal_subject_rejected(self):
        with pytest.raises(TripleValidityError):
            Triple(Literal("x"), uri("p"), uri("o"))

    def test_literal_predicate_rejected(self):
        with pytest.raises(TripleValidityError):
            Triple(uri("s"), Literal("p"), uri("o"))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(TripleValidityError):
            Triple(uri("s"), BNode("b"), uri("o"))

    def test_tuple_protocol(self):
        t = Triple(uri("s"), uri("p"), uri("o"))
        assert t[0] == uri("s")
        assert list(t) == [uri("s"), uri("p"), uri("o")]
        assert t.as_tuple() == (uri("s"), uri("p"), uri("o"))

    def test_n3(self):
        t = Triple(uri("s"), uri("p"), Literal(1))
        assert t.n3().endswith(" .")

    def test_equality_hash_order(self):
        a = Triple(uri("s"), uri("p"), uri("o"))
        b = Triple(uri("s"), uri("p"), uri("o"))
        assert a == b and hash(a) == hash(b)
        c = Triple(uri("s"), uri("p"), uri("z"))
        assert a < c

    def test_immutable(self):
        t = Triple(uri("s"), uri("p"), uri("o"))
        with pytest.raises(AttributeError):
            t.subject = uri("x")


class TestGraphMutation:
    def test_add_and_len(self, graph):
        assert len(graph) == 5

    def test_add_duplicate_returns_false(self, graph):
        assert not graph.add(Triple(uri("alice"), uri("knows"), uri("bob")))
        assert len(graph) == 5

    def test_add_all_counts_new(self, graph):
        added = graph.add_all(
            [
                Triple(uri("alice"), uri("knows"), uri("bob")),  # dup
                Triple(uri("carol"), uri("knows"), uri("alice")),
            ]
        )
        assert added == 1

    def test_remove(self, graph):
        assert graph.remove(Triple(uri("alice"), uri("knows"), uri("bob")))
        assert len(graph) == 4
        assert not graph.remove(Triple(uri("alice"), uri("knows"), uri("bob")))

    def test_contains(self, graph):
        assert Triple(uri("alice"), uri("knows"), uri("bob")) in graph
        assert Triple(uri("bob"), uri("knows"), uri("alice")) not in graph

    def test_remove_prunes_terms_no_triple_carries(self, graph):
        # age's only triple, and the only triple with object 30.
        graph.remove(Triple(uri("alice"), uri("age"), Literal(30)))
        assert uri("age") not in graph.predicates()
        assert Literal(30) not in graph.objects()
        assert uri("alice") in graph.subjects()  # still knows bob
        graph.remove(Triple(uri("bob"), uri("knows"), uri("carol")))
        graph.remove(Triple(uri("bob"), RDF.type, uri("Person")))
        assert uri("bob") not in graph.subjects()
        assert uri("bob") in graph.objects()  # alice still knows bob
        assert graph.predicate_counts() == {uri("knows"): 1, RDF.type: 1}


class TestEditedGraphEqualsFreshGraph:
    """Whatever sequence of adds and removes built it, a graph reports
    exactly what the same triples loaded fresh report."""

    @settings(max_examples=200, deadline=None)
    @given(script=edit_scripts)
    def test_vocabulary_and_counts(self, script):
        graph = RDFGraph()
        apply_edits(graph, script)
        fresh = RDFGraph(sorted(graph))
        assert len(graph) == len(fresh)
        assert graph.subjects() == fresh.subjects()
        assert graph.predicates() == fresh.predicates()
        assert graph.objects() == fresh.objects()
        assert graph.predicate_counts() == fresh.predicate_counts()
        for predicate in fresh.predicates():
            assert graph.predicate_count(predicate) == len(
                list(fresh.triples((None, predicate, None)))
            )
        assert graph.predicate_count(uri("never")) == 0

    @settings(max_examples=200, deadline=None)
    @given(script=edit_scripts, later=edit_scripts)
    def test_copy_is_equal_and_shares_no_container(self, script, later):
        graph = RDFGraph()
        apply_edits(graph, script)
        clone = graph.copy()
        assert clone == graph and len(clone) == len(graph)
        assert sorted(clone.triples((None, uri("p0"), None))) == sorted(
            graph.triples((None, uri("p0"), None))
        )
        before = (len(graph), sorted(graph), graph.predicates())
        apply_edits(clone, later)
        assert (len(graph), sorted(graph), graph.predicates()) == before
        assert clone == RDFGraph(sorted(clone))
        assert len(clone) == len(sorted(clone))


class TestGraphLookup:
    def test_fully_bound(self, graph):
        hits = list(graph.triples((uri("alice"), uri("knows"), uri("bob"))))
        assert len(hits) == 1

    def test_subject_bound(self, graph):
        assert len(list(graph.triples((uri("alice"), None, None)))) == 3

    def test_subject_predicate_bound(self, graph):
        hits = list(graph.triples((uri("alice"), uri("knows"), None)))
        assert [t.object for t in hits] == [uri("bob")]

    def test_predicate_bound(self, graph):
        assert len(list(graph.triples((None, uri("knows"), None)))) == 2

    def test_predicate_object_bound(self, graph):
        hits = list(graph.triples((None, RDF.type, uri("Person"))))
        assert {t.subject for t in hits} == {uri("alice"), uri("bob")}

    def test_object_bound(self, graph):
        hits = list(graph.triples((None, None, uri("bob"))))
        assert len(hits) == 1

    def test_subject_object_bound(self, graph):
        hits = list(graph.triples((uri("alice"), None, uri("bob"))))
        assert [t.predicate for t in hits] == [uri("knows")]

    def test_all_wildcards(self, graph):
        assert len(list(graph.triples((None, None, None)))) == 5

    def test_no_match_is_empty(self, graph):
        assert list(graph.triples((uri("nobody"), None, None))) == []


class TestGraphViews:
    def test_subjects_predicates_objects(self, graph):
        assert uri("alice") in graph.subjects()
        assert uri("knows") in graph.predicates()
        assert Literal(30) in graph.objects()

    def test_predicate_counts(self, graph):
        counts = graph.predicate_counts()
        assert counts[uri("knows")] == 2
        assert counts[RDF.type] == 2

    def test_types_and_instances(self, graph):
        assert graph.types_of(uri("alice")) == {uri("Person")}
        assert graph.instances_of(uri("Person")) == {
            uri("alice"),
            uri("bob"),
        }
        assert graph.classes() == {uri("Person")}

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add(Triple(uri("x"), uri("p"), uri("y")))
        assert len(clone) == len(graph) + 1

    def test_equality_is_set_based(self, graph):
        assert graph == graph.copy()
        other = graph.copy()
        other.add(Triple(uri("x"), uri("p"), uri("y")))
        assert graph != other

    def test_to_list_sorted(self, graph):
        listed = graph.to_list()
        assert listed == sorted(listed)
