"""Static analysis for the reproduction: three analyzers, one framework.

The paper's assessment dimensions -- query shapes, join strategies,
partition locality -- are all statically decidable properties of a query
before it touches the cluster.  This package decides them:

* :mod:`repro.analysis.query` lints parsed SPARQL and the optimizer's
  plan *without executing*: cartesian products, never-bound projections,
  unsatisfiable filters, unknown predicates, cost-over-deadline,
  broadcast-threshold misuse.  Wired into ``python -m repro lint``,
  ``explain`` output, and :class:`repro.server.service.QueryService`
  admission.
* :mod:`repro.analysis.determinism` walks the Python AST of ``src/repro``
  itself and flags violations of the repo's byte-determinism contract
  (unsorted JSON, set-order iteration, unseeded randomness, wall clocks,
  mutable defaults).  Runs as a CI gate.
* :mod:`repro.analysis.docsync` checks README.md and ``docs/`` against
  the CLI's argparse tree and the filesystem: a generated CLI reference
  block, flag mentions, the exit-code table, relative links, and the
  docs index.  Also a CI gate; ``--fix`` regenerates the README block.

All are built on :mod:`repro.analysis.core`: a rule registry emitting
:class:`~repro.analysis.core.Diagnostic` records into an
:class:`~repro.analysis.core.AnalysisReport` whose JSON and text
renderings are byte-deterministic.  Rule catalog: ``docs/ANALYSIS.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.core": (
            "AnalysisReport",
            "Diagnostic",
            "EXIT_CLEAN",
            "EXIT_ERRORS",
            "EXIT_WARNINGS",
            "Rule",
            "RuleSet",
            "SEVERITIES",
            "merge_reports",
        ),
        "repro.analysis.query": ("lint_query", "lint_text"),
    },
)
