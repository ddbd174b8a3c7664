"""The shared rule-engine framework behind both analyzers.

An analyzer is a :class:`RuleSet`: an ordered registry of :class:`Rule`
objects, each owning a stable code (``QL001``, ``DT002``, ...), a
severity, and a check function.  Running the set over a context object
produces an :class:`AnalysisReport` -- a sorted list of
:class:`Diagnostic` records with deterministic JSON and human-text
renderings, and an exit code following the CLI convention:

* ``0`` -- clean (no findings);
* ``4`` -- warnings only;
* ``5`` -- at least one error.

Determinism: diagnostics sort on ``(location, line, column, code,
message)``, payloads are plain dicts serialized with ``sort_keys=True``,
and nothing here consults a clock -- two runs over the same inputs are
byte-identical (asserted in ``tests/analysis/test_core.py``).
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Exit codes shared by ``repro lint`` and ``repro.analysis.determinism``.
EXIT_CLEAN = 0
EXIT_WARNINGS = 4
EXIT_ERRORS = 5

#: Recognized severities, mildest first.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated at a location.

    *location* names the analyzed subject (a file path or query name);
    *line*/*column* are 1-based source coordinates when the subject has
    them (the determinism checker) and 0 when it does not (query lint).
    """

    code: str
    severity: str
    message: str
    location: str = "-"
    line: int = 0
    column: int = 0

    def sort_key(self):
        return (self.location, self.line, self.column, self.code, self.message)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
            "line": self.line,
            "column": self.column,
        }

    def render(self) -> str:
        where = self.location
        if self.line:
            where = "%s:%d:%d" % (self.location, self.line, self.column)
        return "%s: %s %s: %s" % (where, self.severity, self.code, self.message)


@dataclass(frozen=True)
class Rule:
    """One named check.

    *check* receives the analyzer's context object and yields
    :class:`Diagnostic` records (built via the ``found`` helper the
    rule set passes in, so rules never repeat their own code/severity).
    """

    code: str
    severity: str
    title: str
    check: Callable[..., Iterable[Diagnostic]]

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                "unknown severity %r; choose one of %s"
                % (self.severity, ", ".join(SEVERITIES))
            )


class RuleSet:
    """An ordered registry of rules forming one analyzer."""

    def __init__(self, analyzer: str) -> None:
        self.analyzer = analyzer
        self._rules: List[Rule] = []

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def by_code(self, code: str) -> Rule:
        for rule in self._rules:
            if rule.code == code:
                return rule
        raise KeyError("no rule %s in analyzer %s" % (code, self.analyzer))

    def rule(
        self, code: str, severity: str, title: str
    ) -> Callable[[Callable], Callable]:
        """Decorator: register the decorated function as a check.

        The check is called as ``check(context, found)`` where ``found``
        builds a :class:`Diagnostic` carrying this rule's code and
        severity; the check yields (or returns an iterable of) whatever
        ``found`` produced.
        """
        if any(r.code == code for r in self._rules):
            raise ValueError("duplicate rule code %s" % code)

        def register(fn: Callable) -> Callable:
            self._rules.append(Rule(code, severity, title, fn))
            return fn

        return register

    def run(self, context: Any) -> List[Diagnostic]:
        """Every rule over one context; rules run in registration order."""
        diagnostics: List[Diagnostic] = []
        for rule in self._rules:

            def found(
                message: str,
                location: str = "-",
                line: int = 0,
                column: int = 0,
                _rule: Rule = rule,
            ) -> Diagnostic:
                return Diagnostic(
                    code=_rule.code,
                    severity=_rule.severity,
                    message=message,
                    location=location,
                    line=line,
                    column=column,
                )

            diagnostics.extend(rule.check(context, found) or ())
        return diagnostics

    def catalog(self) -> List[Dict[str, str]]:
        """JSON-ready rule listing (the ``docs/ANALYSIS.md`` source)."""
        return [
            {"code": r.code, "severity": r.severity, "title": r.title}
            for r in self._rules
        ]


#: The shared suppression-comment syntax: ``# repro: allow(DT002)`` with
#: codes comma- or space-separated.  The source-level analyzers (the
#: determinism checker and the closure analyzer) honor it through
#: :func:`suppressed`; the query linter accepts the same spelling as a
#: SPARQL comment anywhere in the query text (its findings carry no
#: line anchors); docsync accepts the markdown-native
#: ``<!-- repro: allow(DS004) -->`` on or above the flagged doc line.
ALLOW_RE = re.compile(r"(?:#|<!--)\s*repro:\s*allow\(([^)]*)\)")


def allowed_codes(text: str) -> set:
    """The set of codes an ``# repro: allow(...)`` comment in *text*
    names; empty when the line carries no suppression comment."""
    match = ALLOW_RE.search(text)
    if match is None:
        return set()
    return {
        token.strip()
        for token in match.group(1).replace(",", " ").split()
    }


def suppressed(diagnostic: "Diagnostic", lines: Sequence[str]) -> bool:
    """True when an ``# repro: allow(CODE)`` covers the flagged line
    (trailing on the line itself or a comment on the line above)."""
    candidates = []
    if 1 <= diagnostic.line <= len(lines):
        candidates.append(lines[diagnostic.line - 1])
    if 2 <= diagnostic.line:
        candidates.append(lines[diagnostic.line - 2])
    for text in candidates:
        if diagnostic.code in allowed_codes(text):
            return True
    return False


#: Bumped when the serialized report layout changes incompatibly.
REPORT_FORMAT_VERSION = 1


@dataclass
class AnalysisReport:
    """The artifact one analyzer run produces."""

    analyzer: str
    subject: str = "-"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> "AnalysisReport":
        self.diagnostics.extend(diagnostics)
        return self

    def sorted_diagnostics(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def count(self, severity: str) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def exit_code(self) -> int:
        """The CLI convention: 0 clean, 4 warnings only, 5 errors."""
        if self.count("error"):
            return EXIT_ERRORS
        if self.count("warning"):
            return EXIT_WARNINGS
        return EXIT_CLEAN

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict; diagnostics sorted for byte determinism."""
        return {
            "format": REPORT_FORMAT_VERSION,
            "analyzer": self.analyzer,
            "subject": self.subject,
            "summary": {
                "errors": self.count("error"),
                "warnings": self.count("warning"),
                "total": len(self.diagnostics),
            },
            "diagnostics": [
                d.to_payload() for d in self.sorted_diagnostics()
            ],
        }

    def to_json(self) -> str:
        return (
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )

    def render(self) -> str:
        """The human listing: one line per finding plus a summary line."""
        lines = [d.render() for d in self.sorted_diagnostics()]
        lines.append(
            "%s: %d error(s), %d warning(s)"
            % (self.analyzer, self.count("error"), self.count("warning"))
        )
        return "\n".join(lines)


def merge_reports(
    analyzer: str, reports: Iterable[AnalysisReport], subject: str = "-"
) -> AnalysisReport:
    """One combined report over several subjects (multi-file runs)."""
    merged = AnalysisReport(analyzer=analyzer, subject=subject)
    for report in reports:
        merged.extend(report.diagnostics)
    return merged


# ----------------------------------------------------------------------
# Source-level analyzers: one AST scan per file, one rule per code
# ----------------------------------------------------------------------

#: What one scan of a module yields: code -> [(line, column, message)].
Findings = Dict[str, List[Tuple[int, int, str]]]


@dataclass
class SourceContext:
    """One Python source file under a source-level analyzer."""

    path: str
    #: Why the file did not parse ("" when it did; no findings then).
    syntax_error: str = ""
    findings: Findings = field(default_factory=dict)


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand file/directory arguments to a sorted ``.py`` file list."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        else:
            raise FileNotFoundError("no such file or directory: %s" % path)
    return sorted(dict.fromkeys(out))


class SourceAnalyzer:
    """A :class:`RuleSet` over Python sources, fed by one walk per file.

    *scan* turns a parsed module into :data:`Findings` for every code at
    once; :meth:`rule` registers a code whose check reports its share.
    A file that does not parse has no findings and is skipped, unless
    the rule set has a rule of its own reading
    :attr:`SourceContext.syntax_error` (the determinism checker's
    ``DT000``; one gate reporting it is enough).
    """

    def __init__(
        self,
        rules: RuleSet,
        scan: Callable[[ast.Module], Findings],
        description: str,
    ) -> None:
        self.rules = rules
        self.scan = scan
        self.description = description

    def rule(self, code: str, severity: str, title: str) -> None:
        """Register *code* as "whatever the scan found under it"."""

        def check(context: SourceContext, found):
            for line, column, message in context.findings.get(code, ()):
                yield found(message, context.path, line, column)

        self.rules.rule(code, severity, title)(check)

    def check_source(self, path: str, source: str) -> AnalysisReport:
        """Analyze one in-memory source file (the testable core)."""
        context = SourceContext(path)
        try:
            context.findings = self.scan(ast.parse(source, filename=path))
        except SyntaxError as exc:
            context.syntax_error = str(exc)
        report = AnalysisReport(analyzer=self.rules.analyzer, subject=path)
        lines = source.splitlines()
        return report.extend(
            diagnostic
            for diagnostic in self.rules.run(context)
            if not suppressed(diagnostic, lines)
        )

    def check_paths(self, paths: Sequence[str]) -> AnalysisReport:
        """Analyze every ``.py`` file under *paths* into one merged report."""
        reports = []
        for path in collect_files(paths):
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(self.check_source(path, handle.read()))
        return merge_reports(
            self.rules.analyzer, reports, subject=",".join(paths)
        )

    def main(self, argv: Optional[List[str]] = None) -> int:
        """``python -m repro.analysis.<analyzer> PATH... [--json]``."""
        import argparse

        parser = argparse.ArgumentParser(
            prog="repro.analysis.%s" % self.rules.analyzer,
            description=self.description,
        )
        parser.add_argument(
            "paths", nargs="+", help="Python files or directories to check"
        )
        parser.add_argument(
            "--json",
            action="store_true",
            help="emit the deterministic JSON report instead of text",
        )
        args = parser.parse_args(argv)
        try:
            report = self.check_paths(args.paths)
        except FileNotFoundError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if args.json:
            sys.stdout.write(report.to_json())
        else:
            print(report.render())
        return report.exit_code()
