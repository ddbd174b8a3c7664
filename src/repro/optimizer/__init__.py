"""Cost-based SPARQL optimization shared across every engine.

The package wires three pieces together behind one :class:`Optimizer`
facade:

* :mod:`repro.stats` supplies the :class:`~repro.stats.catalog.StatsCatalog`
  (per-predicate counts, characteristic sets, ExtVP pair selectivities);
* :mod:`repro.optimizer.cardinality` estimates pattern / star / subset
  cardinalities from it;
* :mod:`repro.optimizer.planner` orders the joins (Selinger DP, greedy, or
  parse order) and picks each join's physical strategy (broadcast vs
  shuffle vs partition-local);
* :mod:`repro.optimizer.executor` runs the annotated plan through any
  engine's own single-pattern evaluation.

Engines opt in via :meth:`repro.systems.base.SparkRdfEngine.set_optimizer`;
the unoptimized path stays the default (and the ablation baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro._lazy import lazy_exports
from repro.defaults import DEFAULT_BROADCAST_THRESHOLD, ORDER_MODES

if TYPE_CHECKING:
    from repro.optimizer.planner import BgpPlan
    from repro.rdf.graph import RDFGraph
    from repro.sparql.ast import TriplePattern
    from repro.stats.catalog import StatsCatalog

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.optimizer.cardinality": ("CardinalityEstimator",),
        "repro.optimizer.executor": (
            "collect_q_errors",
            "execute_plan",
            "q_error",
        ),
        "repro.optimizer.planner": (
            "BgpPlan",
            "JoinPlanner",
            "JoinStep",
            "ViewChoice",
        ),
    },
    eager=("DEFAULT_BROADCAST_THRESHOLD", "ORDER_MODES", "Optimizer"),
)


class Optimizer:
    """Catalog + estimator + planner + executor, ready to hand an engine."""

    def __init__(
        self,
        catalog: StatsCatalog,
        mode: str = "dp",
        broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
        enable_broadcast: bool = True,
        view_catalog=None,
    ) -> None:
        from repro.optimizer.cardinality import CardinalityEstimator
        from repro.optimizer.planner import JoinPlanner

        self.catalog = catalog
        self.estimator = CardinalityEstimator(catalog)
        self.view_catalog = view_catalog
        self.planner = JoinPlanner(
            self.estimator,
            mode=mode,
            broadcast_threshold=broadcast_threshold,
            enable_broadcast=enable_broadcast,
            view_catalog=view_catalog,
        )

    @classmethod
    def for_graph(
        cls,
        graph: RDFGraph,
        version: int = 0,
        views: bool = False,
        view_threshold: Optional[float] = None,
        catalog: Optional[StatsCatalog] = None,
        **kwargs,
    ) -> "Optimizer":
        """Wrap *graph*'s statistics in an optimizer.

        *catalog* is the graph's statistics at *version* when the caller
        already computed them (a service shares one pass per version
        among every consumer); without it the catalog is built here.

        With ``views=True`` a :class:`~repro.views.ViewCatalog` is built
        from the same statistics (at *view_threshold*, defaulting to
        :data:`~repro.views.DEFAULT_VIEW_THRESHOLD`) and attached, so
        plans substitute materialized ExtVP views for dominated scans.
        """
        if catalog is None:
            from repro.stats.catalog import StatsCatalog

            catalog = StatsCatalog.from_graph(graph, version=version)
        view_catalog = None
        if views:
            from repro.views import DEFAULT_VIEW_THRESHOLD, ViewCatalog

            view_catalog = ViewCatalog.build(
                graph,
                catalog,
                threshold=(
                    DEFAULT_VIEW_THRESHOLD
                    if view_threshold is None
                    else view_threshold
                ),
                version=version,
            )
        return cls(catalog, view_catalog=view_catalog, **kwargs)

    def set_view_catalog(self, view_catalog) -> None:
        """Attach (or detach, with None) a materialized-view catalog."""
        self.view_catalog = view_catalog
        self.planner.view_catalog = view_catalog

    @property
    def mode(self) -> str:
        return self.planner.mode

    @property
    def stats_version(self) -> int:
        """The graph version the statistics were computed at."""
        return self.catalog.version

    def plan_bgp(self, patterns: Sequence[TriplePattern]) -> BgpPlan:
        return self.planner.plan(patterns)

    def execute_bgp(self, engine, patterns: Sequence[TriplePattern]):
        """Plan and execute one BGP on *engine* (the base-class hook).

        With tracing on, planning is bracketed by an ``optimize`` span
        whose attrs carry the chosen order and per-step strategies.
        """
        from repro.optimizer.executor import execute_plan

        with engine.ctx.tracer.span("optimize", name=self.mode) as span:
            plan = self.plan_bgp(patterns)
            if span is not None:
                span.attrs.update(plan.describe())
        return execute_plan(engine, plan, view_catalog=self.view_catalog)

    def __repr__(self) -> str:
        return "Optimizer(mode=%s, stats_version=%d, threshold=%d)" % (
            self.mode,
            self.stats_version,
            self.planner.broadcast_threshold,
        )
