"""Tests for the LUBM-like and WatDiv-like generators."""

import hashlib
import random

import pytest

from repro.data.lubm import LUBM, LubmGenerator
from repro.data.sp2bench import Sp2bGenerator
from repro.data.watdiv import WATDIV, WatdivGenerator
from repro.rdf.graph import RDFGraph
from repro.rdf.rdfs import RDFSReasoner
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.sparql.shapes import QueryShape, classify_shape


class TestLubmGenerator:
    def test_deterministic(self):
        a = LubmGenerator(num_universities=1, seed=1).generate()
        b = LubmGenerator(num_universities=1, seed=1).generate()
        assert a == b

    def test_seed_changes_data(self):
        a = LubmGenerator(num_universities=1, seed=1).generate()
        b = LubmGenerator(num_universities=1, seed=2).generate()
        assert a != b

    def test_scales_with_universities(self):
        small = LubmGenerator(num_universities=1).generate()
        large = LubmGenerator(num_universities=3).generate()
        assert len(large) > 2 * len(small)

    def test_schema_structure(self, lubm_graph):
        assert lubm_graph.instances_of(LUBM.University)
        assert lubm_graph.instances_of(LUBM.Department)
        assert lubm_graph.instances_of(LUBM.Course)
        students = lubm_graph.instances_of(
            LUBM.GraduateStudent
        ) | lubm_graph.instances_of(LUBM.UndergraduateStudent)
        assert len(students) == 36  # 3 departments x 12

    def test_every_department_belongs_to_university(self, lubm_graph):
        for dept in lubm_graph.instances_of(LUBM.Department):
            parents = list(
                lubm_graph.triples((dept, LUBM.subOrganizationOf, None))
            )
            assert len(parents) == 1

    def test_advisors_are_professors(self, lubm_graph):
        professor_classes = {
            LUBM.FullProfessor,
            LUBM.AssociateProfessor,
            LUBM.AssistantProfessor,
        }
        for triple in lubm_graph.triples((None, LUBM.advisor, None)):
            assert lubm_graph.types_of(triple.object) & professor_classes

    def test_tbox_supports_inference(self):
        graph = LubmGenerator(num_universities=1).generate(include_tbox=True)
        closure = RDFSReasoner().materialize(graph)
        assert len(closure) > len(graph)

    def test_canonical_queries_parse_match_shape_and_answer(self, lubm_graph):
        expected_shapes = {
            "star": QueryShape.STAR,
            "linear": QueryShape.LINEAR,
            "snowflake": QueryShape.SNOWFLAKE,
            "complex": QueryShape.COMPLEX,
        }
        for name, text in LubmGenerator.all_queries().items():
            query = parse_sparql(text)
            if name in expected_shapes:
                assert classify_shape(query) is expected_shapes[name], name
            assert len(evaluate(query, lubm_graph)) > 0, name


class TestWatdivGenerator:
    def test_deterministic(self):
        a = WatdivGenerator(seed=3).generate()
        b = WatdivGenerator(seed=3).generate()
        assert a == b

    def test_entity_counts(self, watdiv_graph):
        assert len(watdiv_graph.instances_of(WATDIV.User)) == 30
        assert len(watdiv_graph.instances_of(WATDIV.Product)) == 15
        assert watdiv_graph.instances_of(WATDIV.Review)

    def test_reviews_connect_users_and_products(self, watdiv_graph):
        for review in watdiv_graph.instances_of(WATDIV.Review):
            reviewers = list(
                watdiv_graph.triples((review, WATDIV.reviewer, None))
            )
            targets = list(
                watdiv_graph.triples((review, WATDIV.reviewFor, None))
            )
            assert len(reviewers) == 1 and len(targets) == 1

    def test_product_popularity_skewed(self, watdiv_graph):
        counts = {}
        for triple in watdiv_graph.triples((None, WATDIV.purchased, None)):
            counts[triple.object] = counts.get(triple.object, 0) + 1
        most = max(counts.values())
        least = min(counts.values())
        assert most > least  # head product strictly more popular

    def test_canonical_queries(self, watdiv_graph):
        for name, text in WatdivGenerator.all_queries().items():
            query = parse_sparql(text)
            assert len(evaluate(query, watdiv_graph)) > 0, name


#: Per generator (seed 3): a digest of the ``repr`` of every row it
#: inserts, in order, how many, and the generator's next draw after the
#: last one -- recorded from the triple-by-triple ``RDFGraph.add`` calls
#: the generators made before they handed their rows over in one call.
TRIPLE_BY_TRIPLE = {
    "lubm": ["aef7e319854dde7c", 849, 0.14655519713176268],
    "watdiv": ["20eb5f5576251858", 1092, 0.48590052930985606],
    "sp2bench": ["a211796daada9f42", 456, 0.8115514128083371],
}


def _index_dump(graph):
    """The three indexes with keys and sets in their iteration order."""
    return [
        [
            (key, [(key2, list(values)) for key2, values in inner.items()])
            for key, inner in index.items()
        ]
        for index in (graph._spo, graph._pos, graph._osp)
    ]


@pytest.mark.parametrize(
    "name, make",
    [
        ("lubm", lambda: LubmGenerator(2, seed=3)),
        ("watdiv", lambda: WatdivGenerator(seed=3)),
        ("sp2bench", lambda: Sp2bGenerator(seed=3)),
    ],
)
def test_one_add_rows_call_builds_what_triple_by_triple_adds_did(name, make):
    """The same rows in the same order and the same random draws, and
    indexes equal to those of one ``add(Triple(...))`` per row, key order
    and set order included (one process, so one hash seed)."""
    rng = random.Random(3)
    rows = list(make()._rows(rng))
    digest = hashlib.sha256(
        "\n".join(repr(row) for row in rows).encode()
    ).hexdigest()[:16]
    assert [digest, len(rows), rng.random()] == TRIPLE_BY_TRIPLE[name]
    one_by_one = RDFGraph()
    for row in rows:
        one_by_one.add(Triple(*row))
    assert _index_dump(make().generate()) == _index_dump(one_by_one)
