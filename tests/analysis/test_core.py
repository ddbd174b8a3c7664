"""Framework: rule registration, report determinism, exit codes."""

import json

import pytest

from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    RuleSet,
    merge_reports,
)


def diag(code="XX001", severity="error", message="boom", **kwargs):
    return Diagnostic(code=code, severity=severity, message=message, **kwargs)


class TestRuleSet:
    def test_rules_run_in_registration_order(self):
        rules = RuleSet("t")
        calls = []

        @rules.rule("T001", "error", "first")
        def first(context, found):
            calls.append("first")
            return [found("a")]

        @rules.rule("T002", "warning", "second")
        def second(context, found):
            calls.append("second")
            return [found("b")]

        out = rules.run(object())
        assert calls == ["first", "second"]
        assert [d.code for d in out] == ["T001", "T002"]
        assert [d.severity for d in out] == ["error", "warning"]

    def test_duplicate_code_rejected(self):
        rules = RuleSet("t")

        @rules.rule("T001", "error", "first")
        def first(context, found):
            return []

        with pytest.raises(ValueError):

            @rules.rule("T001", "warning", "again")
            def again(context, found):
                return []

    def test_bad_severity_rejected(self):
        rules = RuleSet("t")
        with pytest.raises(ValueError):

            @rules.rule("T001", "fatal", "nope")
            def nope(context, found):
                return []


class TestExitCodes:
    def test_clean(self):
        assert AnalysisReport("t").exit_code() == EXIT_CLEAN == 0

    def test_warnings_only(self):
        report = AnalysisReport("t", diagnostics=[diag(severity="warning")])
        assert report.exit_code() == EXIT_WARNINGS == 4

    def test_errors_dominate_warnings(self):
        report = AnalysisReport(
            "t",
            diagnostics=[diag(severity="warning"), diag(severity="error")],
        )
        assert report.exit_code() == EXIT_ERRORS == 5


class TestReportDeterminism:
    """Satellite: reports are byte-identical however findings arrive."""

    FINDINGS = [
        diag("B002", "warning", "later", location="b.rq", line=3),
        diag("A001", "error", "earlier", location="a.rq", line=9),
        diag("A001", "error", "same file earlier line", location="a.rq"),
        diag("C003", "error", "third file", location="c.rq", column=2),
    ]

    def permutations(self):
        import itertools

        return itertools.permutations(self.FINDINGS)

    def test_json_identical_across_insertion_orders(self):
        renderings = {
            AnalysisReport("t", diagnostics=list(order)).to_json()
            for order in self.permutations()
        }
        assert len(renderings) == 1

    def test_text_identical_across_insertion_orders(self):
        renderings = {
            AnalysisReport("t", diagnostics=list(order)).render()
            for order in self.permutations()
        }
        assert len(renderings) == 1

    def test_json_identical_across_repeated_runs(self):
        report = AnalysisReport("t", diagnostics=list(self.FINDINGS))
        assert report.to_json() == report.to_json()

    def test_json_keys_sorted_at_every_level(self):
        body = AnalysisReport(
            "t", diagnostics=list(self.FINDINGS)
        ).to_json()

        def assert_sorted(node):
            if isinstance(node, dict):
                assert list(node) == sorted(node)
                for value in node.values():
                    assert_sorted(value)
            elif isinstance(node, list):
                for value in node:
                    assert_sorted(value)

        assert_sorted(json.loads(body))

    def test_summary_counts_match_diagnostics(self):
        payload = AnalysisReport(
            "t", diagnostics=list(self.FINDINGS)
        ).to_payload()
        assert payload["summary"] == {"errors": 3, "warnings": 1, "total": 4}

    def test_render_line_format(self):
        line = diag(
            "A001", "error", "msg", location="f.rq", line=4, column=7
        ).render()
        assert line == "f.rq:4:7: error A001: msg"

    def test_render_omits_zero_position(self):
        assert diag(location="f.rq").render() == "f.rq: error XX001: boom"


class TestMerge:
    def test_merge_combines_and_sorts(self):
        first = AnalysisReport("t", subject="a", diagnostics=[diag("Z009")])
        second = AnalysisReport("t", subject="b", diagnostics=[diag("A001")])
        merged = merge_reports("t", [first, second])
        assert [d.code for d in merged.sorted_diagnostics()] == [
            "A001",
            "Z009",
        ]
        assert merged.exit_code() == EXIT_ERRORS
