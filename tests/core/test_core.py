"""Tests for the survey core: dimensions, taxonomy, registry, reports,
assessment framework.
"""

import pytest

from repro.core import (
    Assessment,
    Claim,
    ClaimResult,
    DataModel,
    SparkAbstraction,
    SystemRegistry,
    TAXONOMY,
    default_registry,
    render_table_i,
    render_table_ii,
    render_taxonomy,
)
from repro.core.reports import (
    PAPER_TABLE_I,
    PAPER_TABLE_II,
    table_i_cells,
    table_ii_rows,
)
from repro.core.taxonomy import TaxonomyNode


class TestTaxonomy:
    def test_two_dimensions(self):
        assert len(TAXONOMY.children) == 2
        labels = [child.label for child in TAXONOMY.children]
        assert labels == ["Data Model", "Apache Spark Abstraction"]

    def test_leaves_match_figure_one(self):
        assert TAXONOMY.leaves() == [
            "The Triple Model",
            "The Graph Model",
            "RDD",
            "DataFrames",
            "Spark SQL",
            "GraphX",
            "GraphFrames",
        ]

    def test_find(self):
        assert TAXONOMY.find("GraphX") is not None
        assert TAXONOMY.find("Nonexistent") is None

    def test_depth(self):
        assert TAXONOMY.depth() == 3

    def test_render_contains_all_labels(self):
        text = render_taxonomy()
        for leaf in TAXONOMY.leaves():
            assert leaf in text

    def test_custom_node(self):
        node = TaxonomyNode("root", [TaxonomyNode("leaf")])
        assert node.leaves() == ["leaf"]


class TestRegistry:
    def test_default_has_nine_systems(self):
        assert len(default_registry()) == 9

    def test_by_name(self):
        registry = default_registry()
        assert registry.by_name("S2RDF").profile.citation == "[24]"
        with pytest.raises(KeyError):
            registry.by_name("Nonexistent")

    def test_duplicate_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError):
            registry.register(registry.by_name("S2X"))

    def test_unprofiled_class_rejected(self):
        class NotAnEngine:
            pass

        with pytest.raises(ValueError):
            SystemRegistry([NotAnEngine])

    def test_classify_by_data_model(self):
        registry = default_registry()
        triple = registry.classify(data_model=DataModel.TRIPLE)
        graph = registry.classify(data_model=DataModel.GRAPH)
        assert len(triple) == 4 and len(graph) == 5

    def test_classify_by_abstraction(self):
        registry = default_registry()
        graphx = registry.classify(abstraction=SparkAbstraction.GRAPHX)
        assert {cls.profile.citation for cls in graphx} == {
            "[23]", "[16]", "[12]",
        }

    def test_classify_cell(self):
        registry = default_registry()
        cell = registry.classify(
            data_model=DataModel.TRIPLE,
            abstraction=SparkAbstraction.RDD,
        )
        assert {cls.profile.citation for cls in cell} == {
            "[7]", "[13]", "[21]",
        }


class TestReports:
    def test_computed_table_i_matches_paper(self):
        cells = table_i_cells(default_registry())
        for key, expected in PAPER_TABLE_I.items():
            assert tuple(sorted(cells.get(key, ()))) == tuple(
                sorted(expected)
            ), key

    def test_no_extra_table_i_cells(self):
        cells = table_i_cells(default_registry())
        assert set(cells) == set(PAPER_TABLE_I)

    def test_computed_table_ii_matches_paper(self):
        assert [
            tuple(row) for row in table_ii_rows(default_registry())
        ] == [tuple(row) for row in PAPER_TABLE_II]

    def test_render_table_i_text(self):
        text = render_table_i()
        assert "[7], [13], [21]" in text
        assert "GraphFrames" in text

    def test_render_table_ii_text(self):
        text = render_table_ii()
        assert "Hash / Query Aware" in text
        assert "Extended Vertical" in text
        assert text.count("BGP+") == 4  # rows [7], [13], [24], [23]

    def test_diff_detects_mismatch(self):
        from repro.systems import HaqwaEngine, ALL_ENGINE_CLASSES

        class Impostor(HaqwaEngine):
            pass

        # Mutating a profile copy: a wrong partitioning label must surface.
        import dataclasses

        Impostor.profile = dataclasses.replace(
            HaqwaEngine.profile, partitioning=HaqwaEngine.profile.partitioning
        )
        Impostor.profile = dataclasses.replace(
            Impostor.profile,
            optimization=type(Impostor.profile.optimization).YES,
        )
        registry = SystemRegistry(
            [Impostor] + [c for c in ALL_ENGINE_CLASSES if c is not HaqwaEngine]
        )
        # The computed table follows the profile, so the row leaves
        # the paper's.
        changed = [
            (tuple(computed), tuple(paper))
            for computed, paper in zip(table_ii_rows(registry), PAPER_TABLE_II)
            if tuple(computed) != tuple(paper)
        ]
        assert len(changed) == 1 and changed[0][1][0] == "[7]"


class TestAssessment:
    def test_claim_check_roundtrip(self):
        claim = Claim(
            claim_id="demo",
            quotation="x is faster than y",
            section="IV",
            experiment=lambda: ClaimResult("demo", True, {"speedup": 2}),
        )
        result = claim.check()
        assert result.holds
        assert "HOLDS" in result.summary()

    def test_claim_id_mismatch_caught(self):
        claim = Claim(
            claim_id="demo",
            quotation="",
            section="IV",
            experiment=lambda: ClaimResult("other", True),
        )
        with pytest.raises(ValueError):
            claim.check()

    def test_assessment_runs_all(self):
        assessment = Assessment()
        assessment.add(
            "a", "quote a", "IV-A", lambda: ClaimResult("a", True)
        )
        assessment.add(
            "b", "quote b", "IV-B", lambda: ClaimResult("b", False, {"n": 1})
        )
        results = assessment.run()
        assert [r.holds for r in results] == [True, False]
        report = assessment.report()
        assert "quote a" in report and "DOES NOT HOLD" in report

    def test_duplicate_claim_rejected(self):
        assessment = Assessment()
        assessment.add("a", "", "IV", lambda: ClaimResult("a", True))
        with pytest.raises(ValueError):
            assessment.add("a", "", "IV", lambda: ClaimResult("a", True))
