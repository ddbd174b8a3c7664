"""The adaptive routing policy: classify, estimate, calibrate, dispatch.

For each admitted query the policy

1. classifies the algebra's shape (:func:`repro.sparql.shapes.classify_shape`),
2. asks the shared :class:`~repro.optimizer.planner.JoinPlanner` /
   :class:`~repro.optimizer.cardinality.CardinalityEstimator` for an
   engine-independent base cost (the plan's ``C_out``: the sum of
   estimated intermediate cardinalities),
3. scales that base by each candidate engine's per-(engine, shape)
   calibration factor from the :class:`~repro.routing.feedback.FeedbackLog`,
4. dispatches to the cheapest bid, breaking ties on engine name.

Candidates are the configured engine pool filtered by SPARQL fragment:
an engine whose published feature set does not cover the query is
*excluded* (the ``profile.sparql_features`` check).  When no pool engine
covers the query, the deterministic fallback chain is walked instead
(``Naive`` covers every feature, so a winner always exists).

Every step is a pure function of (query text, catalog, feedback state),
so a request sequence replays to byte-identical routing decisions --
the property that keeps the parallel backend and the result caches
oracle-exact (docs/ROUTING.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.planner import DEFAULT_BROADCAST_THRESHOLD, JoinPlanner
from repro.routing.defaults import (
    DEFAULT_ENGINE_POOL,
    DEFAULT_FALLBACK_CHAIN,
    default_priors,
)
from repro.routing.feedback import FeedbackLog
from repro.sparql.ast import Query, where_patterns
from repro.sparql.fragments import features_of
from repro.sparql.shapes import QueryShape, classify_shape
from repro.stats.catalog import StatsCatalog


@dataclass(frozen=True)
class EngineBid:
    """One candidate engine's priced offer for a query."""

    engine: str
    cost: float  # base_cost * effective factor
    factor: float  # effective (exploration-discounted) factor
    calibrated: float  # undiscounted calibration factor
    observations: int


@dataclass
class RoutingDecision:
    """Everything one routing choice knew and chose."""

    shape: str
    base_cost: float
    winner: str
    bids: List[EngineBid] = field(default_factory=list)
    #: Pool engines whose fragment does not cover the query:
    #: (name, sorted missing features).
    excluded: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)
    #: True when no pool engine was eligible and the fallback chain chose.
    fallback: bool = False

    def describe(self) -> Dict[str, Any]:
        """Flat span attributes (the ``route`` span)."""
        return {
            "shape": self.shape,
            "engine": self.winner,
            "base_cost": round(self.base_cost, 6),
            "candidates": len(self.bids),
            "fallback": self.fallback,
        }

    def render(self) -> str:
        """The ``routing:`` text block (EXPLAIN preamble, CLI route)."""
        head = "routing: shape=%s base_cost=%s winner=%s%s" % (
            self.shape,
            round(self.base_cost, 6),
            self.winner,
            " (fallback chain)" if self.fallback else "",
        )
        lines = [head]
        for bid in self.bids:
            marker = "  <- winner" if bid.engine == self.winner else ""
            lines.append(
                "  %-16s cost=%-14s factor=%-10s calibrated=%-10s obs=%d%s"
                % (
                    bid.engine,
                    round(bid.cost, 6),
                    round(bid.factor, 6),
                    round(bid.calibrated, 6),
                    bid.observations,
                    marker,
                )
            )
        for engine, missing in self.excluded:
            lines.append(
                "  %-16s excluded (missing %s)"
                % (engine, ", ".join(missing))
            )
        return "\n".join(lines)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready form (CLI ``route --json``)."""
        return {
            "shape": self.shape,
            "base_cost": round(self.base_cost, 6),
            "winner": self.winner,
            "fallback": self.fallback,
            "bids": [
                {
                    "engine": bid.engine,
                    "cost": round(bid.cost, 6),
                    "factor": round(bid.factor, 6),
                    "calibrated": round(bid.calibrated, 6),
                    "observations": bid.observations,
                }
                for bid in self.bids
            ],
            "excluded": [
                {"engine": engine, "missing": list(missing)}
                for engine, missing in self.excluded
            ],
        }


def _canonical_engine_names(names: Sequence[str]) -> List[str]:
    """Resolve to profile names, preserving order, rejecting unknowns."""
    from repro.runtime import resolve_engine

    canonical: List[str] = []
    for name in names:
        profile_name = resolve_engine(name).profile.name
        if profile_name not in canonical:
            canonical.append(profile_name)
    return canonical


def _engine_features(name: str) -> frozenset:
    from repro.runtime import resolve_engine

    return resolve_engine(name).profile.sparql_features


class RoutingPolicy:
    """Adaptive per-shape dispatch over a configured engine pool."""

    def __init__(
        self,
        planner: JoinPlanner,
        engines: Optional[Sequence[str]] = None,
        feedback: Optional[FeedbackLog] = None,
        fallbacks: Sequence[str] = DEFAULT_FALLBACK_CHAIN,
    ) -> None:
        self.planner = planner
        self.engines = _canonical_engine_names(
            engines if engines else DEFAULT_ENGINE_POOL
        )
        self.fallbacks = _canonical_engine_names(fallbacks)
        self.feedback = (
            feedback
            if feedback is not None
            else FeedbackLog(priors=default_priors(self.engines))
        )
        #: Decision counters: (shape value, engine name) -> count.
        self.decisions: Dict[Tuple[str, str], int] = {}
        self.fallback_decisions = 0
        self._features = {
            name: _engine_features(name)
            for name in self.engines + self.fallbacks
        }

    @classmethod
    def for_graph(
        cls,
        graph,
        engines: Optional[Sequence[str]] = None,
        mode: str = "dp",
        broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
        catalog: Optional[StatsCatalog] = None,
        version: int = 0,
        feedback: Optional[FeedbackLog] = None,
    ) -> "RoutingPolicy":
        """Build a policy over *graph* (or a precomputed *catalog*)."""
        if catalog is None:
            catalog = StatsCatalog.from_graph(graph, version=version)
        planner = JoinPlanner(
            CardinalityEstimator(catalog),
            mode=mode,
            broadcast_threshold=broadcast_threshold,
        )
        return cls(planner, engines=engines, feedback=feedback)

    def refresh(self, catalog: StatsCatalog) -> None:
        """Re-anchor cost estimates on a new catalog (graph commit).

        Calibration survives: factors describe engine mechanisms, not
        one graph version, and the bounded history ages stale ratios
        out as post-commit observations arrive.
        """
        self.planner = JoinPlanner(
            CardinalityEstimator(catalog),
            mode=self.planner.mode,
            broadcast_threshold=self.planner.broadcast_threshold,
        )

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------

    def base_cost(self, query: Query) -> Tuple[QueryShape, float]:
        """(shape, engine-independent C_out estimate) for *query*."""
        patterns = where_patterns(query)
        shape = classify_shape(query)
        if not patterns:
            return shape, 1.0
        plan = self.planner.plan(patterns)
        return shape, max(
            1.0, sum(step.est_rows for step in plan.steps)
        )

    def decide(self, query: Union[str, Query]) -> RoutingDecision:
        """Price every candidate and pick the winner (no execution)."""
        if isinstance(query, str):
            from repro.sparql.parser import parse_sparql

            query = parse_sparql(query)
        shape, base = self.base_cost(query)
        features = features_of(query)
        eligible: List[str] = []
        excluded: List[Tuple[str, Tuple[str, ...]]] = []
        for name in self.engines:
            missing = features - self._features[name]
            if missing:
                excluded.append((name, tuple(sorted(missing))))
            else:
                eligible.append(name)
        fallback = not eligible
        if fallback:
            for name in self.fallbacks:
                if features <= self._features[name]:
                    eligible = [name]
                    break
            else:  # unreachable while Naive covers ALL_FEATURES
                eligible = ["Naive"]
        shape_value = shape.value
        bids = [
            EngineBid(
                engine=name,
                cost=base * self.feedback.effective_factor(name, shape_value),
                factor=self.feedback.effective_factor(name, shape_value),
                calibrated=self.feedback.factor(name, shape_value),
                observations=self.feedback.observations(name, shape_value),
            )
            for name in eligible
        ]
        winner = min(bids, key=lambda bid: (bid.cost, bid.engine)).engine
        decision = RoutingDecision(
            shape=shape_value,
            base_cost=base,
            winner=winner,
            bids=sorted(bids, key=lambda bid: (bid.cost, bid.engine)),
            excluded=excluded,
            fallback=fallback,
        )
        key = (shape_value, winner)
        self.decisions[key] = self.decisions.get(key, 0) + 1
        if fallback:
            self.fallback_decisions += 1
        return decision

    def record(self, decision: RoutingDecision, actual_units: float) -> float:
        """Feed one executed decision back; returns the new factor."""
        return self.feedback.record(
            decision.winner, decision.shape, decision.base_cost, actual_units
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready policy state (``stats()["routing"]``)."""
        per_shape: Dict[str, Dict[str, int]] = {}
        for (shape, engine), count in sorted(self.decisions.items()):
            per_shape.setdefault(shape, {})[engine] = count
        return {
            "engines": list(self.engines),
            "fallback_chain": list(self.fallbacks),
            "decisions": per_shape,
            "fallback_decisions": self.fallback_decisions,
            "calibration": self.feedback.snapshot(),
        }

    def __repr__(self) -> str:
        return "RoutingPolicy(engines=%r, decisions=%d)" % (
            self.engines,
            sum(self.decisions.values()),
        )
