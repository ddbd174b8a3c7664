"""Defaults the CLI prints in ``--help`` and
:class:`~repro.runtime.RuntimeConfig` declares, kept in a module that
imports nothing.

Each constant belongs to a subsystem and is re-exported from its home
there (``repro.optimizer.planner``, ``repro.views.catalog``,
``repro.federation.subgraph``), where the code that obeys it lives.  It
is *defined* here so that filling in a flag's default -- every
invocation builds the whole parser -- never loads that subsystem.
"""

#: Default broadcast threshold in estimated build-side rows.  Sized so the
#: small vertical partitions of the test workloads broadcast while full
#: scans of anything dataset-sized do not.
DEFAULT_BROADCAST_THRESHOLD = 64

#: The planner's join-ordering modes (docs/OPTIMIZER.md).
ORDER_MODES = ("dp", "greedy", "parse")

#: Default selectivity threshold: materialize reductions that keep at
#: most half of p1's triples (S2RDF's evaluations use thresholds in this
#: range; the stats catalog stores only factors < 1.0 anyway).
DEFAULT_VIEW_THRESHOLD = 0.5

#: Default triples per CONSTRUCT page (the shaclAPI ROW_LIMIT analogue).
DEFAULT_PAGE_SIZE = 32
