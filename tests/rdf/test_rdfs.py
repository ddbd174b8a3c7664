"""Tests for RDFS entailment rules."""

import pytest

from repro.rdf.graph import RDFGraph
from repro.rdf.rdfs import RDFSReasoner
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF, RDFS

EX = "http://example.org/"


def uri(name):
    return URI(EX + name)


class TestIndividualRules:
    def test_rdfs2_domain(self):
        graph = RDFGraph(
            [
                Triple(uri("knows"), RDFS.domain, uri("Person")),
                Triple(uri("a"), uri("knows"), uri("b")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("a"), RDF.type, uri("Person")) in closure

    def test_rdfs3_range(self):
        graph = RDFGraph(
            [
                Triple(uri("knows"), RDFS.range, uri("Person")),
                Triple(uri("a"), uri("knows"), uri("b")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("b"), RDF.type, uri("Person")) in closure

    def test_rdfs3_skips_literal_objects(self):
        graph = RDFGraph(
            [
                Triple(uri("age"), RDFS.range, uri("Number")),
                Triple(uri("a"), uri("age"), Literal(5)),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert len(closure) == len(graph)

    def test_rdfs5_subproperty_transitivity(self):
        graph = RDFGraph(
            [
                Triple(uri("p"), RDFS.subPropertyOf, uri("q")),
                Triple(uri("q"), RDFS.subPropertyOf, uri("r")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("p"), RDFS.subPropertyOf, uri("r")) in closure

    def test_rdfs7_subproperty_usage(self):
        graph = RDFGraph(
            [
                Triple(uri("p"), RDFS.subPropertyOf, uri("q")),
                Triple(uri("a"), uri("p"), uri("b")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("a"), uri("q"), uri("b")) in closure

    def test_rdfs9_subclass_instances(self):
        graph = RDFGraph(
            [
                Triple(uri("Student"), RDFS.subClassOf, uri("Person")),
                Triple(uri("a"), RDF.type, uri("Student")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("a"), RDF.type, uri("Person")) in closure

    def test_rdfs11_subclass_transitivity(self):
        graph = RDFGraph(
            [
                Triple(uri("A"), RDFS.subClassOf, uri("B")),
                Triple(uri("B"), RDFS.subClassOf, uri("C")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("A"), RDFS.subClassOf, uri("C")) in closure


class TestClosureBehaviour:
    def test_multi_step_chain(self):
        graph = RDFGraph(
            [
                Triple(uri("A"), RDFS.subClassOf, uri("B")),
                Triple(uri("B"), RDFS.subClassOf, uri("C")),
                Triple(uri("C"), RDFS.subClassOf, uri("D")),
                Triple(uri("x"), RDF.type, uri("A")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("x"), RDF.type, uri("D")) in closure

    def test_input_not_modified(self):
        graph = RDFGraph(
            [
                Triple(uri("A"), RDFS.subClassOf, uri("B")),
                Triple(uri("x"), RDF.type, uri("A")),
            ]
        )
        RDFSReasoner().materialize(graph)
        assert len(graph) == 2

    def test_idempotent(self):
        graph = RDFGraph(
            [
                Triple(uri("A"), RDFS.subClassOf, uri("B")),
                Triple(uri("x"), RDF.type, uri("A")),
            ]
        )
        reasoner = RDFSReasoner()
        once = reasoner.materialize(graph)
        twice = reasoner.materialize(once)
        assert once == twice

    def test_rule_selection(self):
        graph = RDFGraph(
            [
                Triple(uri("A"), RDFS.subClassOf, uri("B")),
                Triple(uri("x"), RDF.type, uri("A")),
                Triple(uri("p"), RDFS.domain, uri("D")),
                Triple(uri("x"), uri("p"), uri("y")),
            ]
        )
        only_subclass = RDFSReasoner(enabled_rules=["rdfs9"]).materialize(graph)
        assert Triple(uri("x"), RDF.type, uri("B")) in only_subclass
        assert Triple(uri("x"), RDF.type, uri("D")) not in only_subclass

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            RDFSReasoner(enabled_rules=["rdfs99"])

    def test_cycle_terminates(self):
        graph = RDFGraph(
            [
                Triple(uri("A"), RDFS.subClassOf, uri("B")),
                Triple(uri("B"), RDFS.subClassOf, uri("A")),
                Triple(uri("x"), RDF.type, uri("A")),
            ]
        )
        closure = RDFSReasoner().materialize(graph)
        assert Triple(uri("x"), RDF.type, uri("B")) in closure

    def test_lubm_tbox_entailment(self, lubm_graph_with_tbox):
        from repro.data.lubm import LUBM

        closure = RDFSReasoner().materialize(lubm_graph_with_tbox)
        # Every graduate student becomes a Student and a Person.
        grads = lubm_graph_with_tbox.instances_of(LUBM.GraduateStudent)
        assert grads
        for grad in grads:
            assert Triple(grad, RDF.type, LUBM.Student) in closure
            assert Triple(grad, RDF.type, LUBM.Person) in closure
