"""Front 1: the SPARQL/plan linter, rule by rule."""

import pytest

from repro.analysis import lint_text
from repro.stats import StatsCatalog

PREFIX = "PREFIX lubm: <http://repro.example.org/lubm#>\n"


@pytest.fixture(scope="module")
def catalog(lubm_graph):
    return StatsCatalog.from_graph(lubm_graph)


def codes(report):
    return sorted({d.code for d in report.diagnostics})


def lint(text, **kwargs):
    return lint_text(PREFIX + text, **kwargs)


class TestParseErrors:
    def test_ql000_on_unparseable_text(self):
        report = lint_text("SELECT ?s WHERE { ?s ?p")
        assert codes(report) == ["QL000"]
        assert report.exit_code() == 5

    def test_ql000_suppresses_other_rules(self):
        # No algebra exists, so nothing else may fire (or crash).
        report = lint_text("totally not sparql")
        assert codes(report) == ["QL000"]


class TestCartesian:
    def test_disjoint_patterns_flagged(self):
        report = lint(
            "SELECT ?s ?t WHERE "
            "{ ?s lubm:memberOf ?d . ?t lubm:teacherOf ?c }"
        )
        assert "QL001" in codes(report)

    def test_three_patterns_two_components(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n . "
            "?p lubm:publicationAuthor ?a }"
        )
        assert "QL001" in codes(report)

    def test_connected_star_clean(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n }"
        )
        assert "QL001" not in codes(report)

    def test_single_pattern_clean(self):
        report = lint("SELECT ?s WHERE { ?s lubm:memberOf ?d }")
        assert codes(report) == []

    def test_union_sharing_a_variable_with_the_bgp_clean(self):
        # A BGP beside a UNION is a join node, not one BGP.
        report = lint(
            "SELECT ?s ?x WHERE { ?s lubm:name ?n "
            "{ ?s lubm:memberOf ?x } UNION { ?s lubm:teacherOf ?x } }"
        )
        assert "QL001" not in codes(report)

    def test_union_disjoint_from_the_bgp_flagged(self):
        report = lint(
            "SELECT ?s ?x WHERE { ?s lubm:name ?n "
            "{ ?t lubm:memberOf ?x } UNION { ?t lubm:teacherOf ?x } }"
        )
        (finding,) = [d for d in report.diagnostics if d.code == "QL001"]
        assert "{n,s} vs {t,x}" in finding.message

    def test_nested_group_disjoint_from_the_bgp_flagged(self):
        report = lint(
            "SELECT ?s ?t WHERE { ?s lubm:name ?n "
            "{ ?t lubm:memberOf ?d OPTIONAL { ?t lubm:age ?a } } }"
        )
        assert "QL001" in codes(report)


class TestUnboundProjection:
    def test_phantom_variable_flagged(self):
        report = lint("SELECT ?s ?email WHERE { ?s lubm:memberOf ?d }")
        assert "QL002" in codes(report)
        assert any("?email" in d.message for d in report.diagnostics)

    def test_bound_projection_clean(self):
        report = lint("SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }")
        assert "QL002" not in codes(report)

    def test_optional_binding_counts(self):
        report = lint(
            "SELECT ?s ?n WHERE { ?s lubm:memberOf ?d "
            "OPTIONAL { ?s lubm:name ?n } }"
        )
        assert "QL002" not in codes(report)


class TestUnsatisfiableFilter:
    def test_constant_false(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:memberOf ?d . FILTER (1 > 2) }"
        )
        assert "QL003" in codes(report)

    def test_empty_numeric_range(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:age ?a . "
            "FILTER (?a > 40) FILTER (?a < 30) }"
        )
        assert "QL003" in codes(report)

    def test_conflicting_equalities(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:age ?a . "
            "FILTER (?a = 20 && ?a = 21) }"
        )
        assert "QL003" in codes(report)

    def test_equality_vs_exclusion(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:age ?a . "
            "FILTER (?a = 20 && ?a != 20) }"
        )
        assert "QL003" in codes(report)

    def test_satisfiable_range_clean(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:age ?a . "
            "FILTER (?a >= 18 && ?a < 120) }"
        )
        assert "QL003" not in codes(report)

    def test_boundary_nonstrict_satisfiable(self):
        # >= 30 and <= 30 admits exactly 30: satisfiable.
        report = lint(
            "SELECT ?s WHERE { ?s lubm:age ?a . "
            "FILTER (?a >= 30) FILTER (?a <= 30) }"
        )
        assert "QL003" not in codes(report)

    def test_boundary_strict_empty(self):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:age ?a . "
            "FILTER (?a > 30) FILTER (?a <= 30) }"
        )
        assert "QL003" in codes(report)

    def test_filters_in_different_groups_not_conjoined(self):
        # The two branches of a UNION are alternatives, not a
        # conjunction: no contradiction exists in either branch.
        report = lint(
            "SELECT ?s WHERE { { ?s lubm:age ?a . FILTER (?a > 40) } "
            "UNION { ?s lubm:age ?a . FILTER (?a < 30) } }"
        )
        assert "QL003" not in codes(report)


class TestUnknownPredicate:
    def test_needs_catalog(self):
        report = lint("SELECT ?s WHERE { ?s lubm:hasTelepathy ?x }")
        assert "QL004" not in codes(report)

    def test_mandatory_unknown_is_error(self, catalog):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:hasTelepathy ?x }", catalog=catalog
        )
        found = [d for d in report.diagnostics if d.code == "QL004"]
        assert len(found) == 1
        assert found[0].severity == "error"
        assert "provably empty" in found[0].message

    def test_optional_unknown_is_warning(self, catalog):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:memberOf ?d "
            "OPTIONAL { ?s lubm:hasTelepathy ?x } }",
            catalog=catalog,
        )
        found = [d for d in report.diagnostics if d.code == "QL004"]
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert report.exit_code() == 4

    def test_known_predicate_clean(self, catalog):
        report = lint(
            "SELECT ?s WHERE { ?s lubm:memberOf ?d }", catalog=catalog
        )
        assert "QL004" not in codes(report)


class TestCostOverDeadline:
    SCAN = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

    def test_needs_catalog_and_deadline(self, catalog):
        assert "QL005" not in codes(lint_text(self.SCAN))
        assert "QL005" not in codes(lint_text(self.SCAN, catalog=catalog))
        assert "QL005" not in codes(lint_text(self.SCAN, deadline=5))

    def test_scan_over_tight_budget(self, catalog):
        report = lint_text(self.SCAN, catalog=catalog, deadline=5)
        found = [d for d in report.diagnostics if d.code == "QL005"]
        assert len(found) == 1
        assert found[0].severity == "error"

    def test_generous_budget_clean(self, catalog):
        report = lint_text(self.SCAN, catalog=catalog, deadline=10**9)
        assert "QL005" not in codes(report)


class TestBroadcastMisuse:
    JOIN = (
        PREFIX
        + "SELECT ?s WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n }"
    )

    def test_threshold_over_dataset_warns(self, catalog):
        report = lint_text(
            self.JOIN, catalog=catalog, broadcast_threshold=10**6
        )
        found = [d for d in report.diagnostics if d.code == "QL006"]
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert report.exit_code() == 4

    def test_default_threshold_clean(self, catalog):
        assert "QL006" not in codes(lint_text(self.JOIN, catalog=catalog))

    def test_single_pattern_never_warns(self, catalog):
        # No join, so nothing is broadcast regardless of the threshold.
        report = lint(
            "SELECT ?s WHERE { ?s lubm:memberOf ?d }",
            catalog=catalog,
            broadcast_threshold=10**6,
        )
        assert "QL006" not in codes(report)


class TestReportShape:
    def test_subject_carried_into_locations(self):
        report = lint_text(
            "SELECT ?s WHERE { ?s ?p", subject="broken.rq"
        )
        assert all(
            d.location == "broken.rq" for d in report.diagnostics
        )

    def test_lint_is_read_only(self, lubm_graph, catalog):
        before = len(lubm_graph)
        lint_text(
            "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
            catalog=catalog,
            deadline=5,
        )
        assert len(lubm_graph) == before
