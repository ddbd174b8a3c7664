"""Selinger-style left-deep join ordering with physical strategy selection.

The planner turns a BGP (a list of triple patterns) into a
:class:`BgpPlan`: an execution order plus, for every join step, the
physical strategy the executor should use.

Ordering modes (the ablation axis of ``benchmarks/bench_optimizer.py``):

``dp``
    Selinger dynamic programming over left-deep trees.  The cost of an
    order is the classic ``C_out``: the sum of the estimated cardinalities
    of every intermediate result.  Extensions that share a variable with
    the prefix are preferred; a cartesian extension is considered only
    when no connected one exists.  Ties break on the lexicographically
    smallest index sequence, so plans are deterministic.
``greedy``
    SPARQLGX's heuristic: start from the most selective pattern, then
    repeatedly append the connected pattern with the smallest estimate.
``parse``
    The patterns exactly as written -- the no-statistics baseline.

Physical strategies per join step:

``broadcast``
    Chosen **iff** the estimated build side (the fresh pattern's scan) is
    strictly under ``broadcast_threshold`` rows (and broadcasts are
    enabled).  The probe side is never shuffled.
``local``
    The accumulated side is already hash-partitioned on exactly this join
    key (a previous shuffle on the same key), so only the fresh side
    moves -- the co-partitioned join HAQWA's subject hashing banks on.
``shuffle``
    The partitioned hash join: both sides shuffle to a common partitioner.
``cartesian``
    No shared variable (only when the BGP is disconnected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.defaults import DEFAULT_BROADCAST_THRESHOLD, ORDER_MODES
from repro.optimizer.cardinality import CardinalityEstimator
from repro.sparql.ast import (
    TriplePattern,
    Variable,
    connected_order,
    semi_join_kinds,
    variables_of,
)

#: Past this many patterns, exact DP (2^n subsets) yields to greedy.
MAX_DP_PATTERNS = 12


@dataclass(frozen=True)
class ViewChoice:
    """A materialized ExtVP view substituted for one pattern's base scan.

    Chosen by :meth:`JoinPlanner._choose_view` when the view *strictly
    dominates* the base scan: its stored row count is below the scanned
    predicate's full partition size.  ``partner`` is the index of the
    BGP pattern whose predicate justifies the semi-join reduction.
    """

    key: Tuple[str, str, str]  # (kind, p1 n3, p2 n3)
    rows: int  # materialized rows (exact, not estimated)
    base_rows: int  # the base scan this replaces (p1's partition size)
    factor: float  # the view's selectivity factor at build time
    partner: int  # index of the pattern that makes the view applicable

    @property
    def name(self) -> str:
        from repro.views.catalog import view_name

        return view_name(self.key)


@dataclass(frozen=True)
class JoinStep:
    """One step of a left-deep BGP plan.

    The first step is always the ``scan`` of the first pattern; every
    later step joins the accumulated prefix with one fresh pattern.
    When *view* is set, the pattern's leaf scan reads the materialized
    ExtVP view instead of the engine's base representation.
    """

    index: int  # position in the original pattern list
    pattern: TriplePattern
    shared: Tuple[str, ...]  # join variables with the prefix (sorted)
    strategy: str  # scan | broadcast | local | shuffle | cartesian, or the
    # hybrid policy's hash | colocated | broadcast_accumulated
    est_build: float  # estimated rows of this pattern's scan
    est_rows: float  # estimated rows after this step
    view: Optional[ViewChoice] = None  # substituted materialized view


@dataclass
class BgpPlan:
    """An ordered, physically annotated plan for one BGP."""

    steps: List[JoinStep]
    mode: str
    broadcast_threshold: int

    @property
    def order(self) -> List[int]:
        return [step.index for step in self.steps]

    @property
    def est_rows(self) -> float:
        return self.steps[-1].est_rows if self.steps else 1.0

    def describe(self) -> Dict[str, object]:
        """Compact JSON-ready description (the ``optimize`` span attrs)."""
        described = {
            "mode": self.mode,
            "order": ",".join(str(i) for i in self.order),
            "strategies": ",".join(s.strategy for s in self.steps),
            "est_rows": round(self.est_rows, 2),
        }
        views = ";".join(
            "%d:%s" % (s.index, s.view.name)
            for s in self.steps
            if s.view is not None
        )
        if views:  # key absent when no view was substituted, so plans
            # without a catalog keep their exact pre-views trace bytes.
            described["views"] = views
        return described


class JoinPlanner:
    """Builds :class:`BgpPlan` objects from catalog-backed estimates."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        mode: str = "dp",
        broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD,
        enable_broadcast: bool = True,
        view_catalog=None,
    ) -> None:
        if mode not in ORDER_MODES:
            raise ValueError(
                "unknown order mode %r; choose one of %s"
                % (mode, ", ".join(ORDER_MODES))
            )
        if broadcast_threshold <= 0:
            raise ValueError("broadcast_threshold must be positive")
        self.estimator = estimator
        self.mode = mode
        self.broadcast_threshold = broadcast_threshold
        self.enable_broadcast = enable_broadcast
        self.view_catalog = view_catalog

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def plan(self, patterns: Sequence[TriplePattern]) -> BgpPlan:
        patterns = list(patterns)
        if not patterns:
            return BgpPlan([], self.mode, self.broadcast_threshold)
        if self.mode == "parse":
            order = list(range(len(patterns)))
        elif self.mode == "greedy" or len(patterns) > MAX_DP_PATTERNS:
            order = self._greedy_order(patterns)
        else:
            order = self._dp_order(patterns)
        return BgpPlan(
            self._annotate(patterns, order),
            self.mode,
            self.broadcast_threshold,
        )

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------

    def _greedy_order(self, patterns: List[TriplePattern]) -> List[int]:
        """Most selective first, then smallest connected next."""
        estimate = self.estimator.pattern_cardinality
        return connected_order(
            sorted(
                range(len(patterns)), key=lambda i: (estimate(patterns[i]), i)
            ),
            names=lambda i: variables_of(patterns[i]),
        )

    def _dp_order(self, patterns: List[TriplePattern]) -> List[int]:
        """Left-deep Selinger DP minimizing the sum of intermediate rows."""
        n = len(patterns)
        variables = [
            frozenset(v.name for v in p.variables()) for p in patterns
        ]

        cardinality: Dict[FrozenSet[int], float] = {}

        def subset_rows(subset: FrozenSet[int]) -> float:
            if subset not in cardinality:
                cardinality[subset] = self.estimator.subset_cardinality(
                    [patterns[i] for i in sorted(subset)]
                )
            return cardinality[subset]

        # best[subset] = (cost, order tuple); cost excludes the first scan
        # (every order pays it) and sums every intermediate cardinality.
        best: Dict[FrozenSet[int], Tuple[float, Tuple[int, ...]]] = {
            frozenset((i,)): (0.0, (i,)) for i in range(n)
        }
        for size in range(2, n + 1):
            level: Dict[FrozenSet[int], Tuple[float, Tuple[int, ...]]] = {}
            for subset, (cost, order) in best.items():
                if len(subset) != size - 1:
                    continue
                bound = frozenset().union(*(variables[i] for i in subset))
                connected = [
                    i
                    for i in range(n)
                    if i not in subset and bound & variables[i]
                ]
                extensions = connected or [
                    i for i in range(n) if i not in subset
                ]
                for i in extensions:
                    grown = subset | {i}
                    candidate = (
                        cost + subset_rows(grown),
                        order + (i,),
                    )
                    incumbent = level.get(grown)
                    if incumbent is None or candidate < incumbent:
                        level[grown] = candidate
            best = {
                subset: value
                for subset, value in best.items()
                if len(subset) != size - 1
            }
            best.update(level)
        return list(best[frozenset(range(n))][1])

    # ------------------------------------------------------------------
    # Physical annotation
    # ------------------------------------------------------------------

    def _annotate(
        self, patterns: List[TriplePattern], order: List[int]
    ) -> List[JoinStep]:
        estimator = self.estimator
        steps: List[JoinStep] = []
        prefix: List[TriplePattern] = []
        bound: set = set()
        current_key: Optional[Tuple[str, ...]] = None
        for position, index in enumerate(order):
            pattern = patterns[index]
            est_build = estimator.pattern_cardinality(pattern)
            view = self._choose_view(patterns, index)
            if view is not None:
                # The view's row count is exact, not estimated: the leaf
                # scan reads the materialized table instead of the base
                # partition, so the build side shrinks accordingly.
                est_build = min(est_build, float(view.rows))
            if position == 0:
                steps.append(
                    JoinStep(
                        index=index,
                        pattern=pattern,
                        shared=(),
                        strategy="scan",
                        est_build=est_build,
                        est_rows=est_build,
                        view=view,
                    )
                )
            else:
                shared = tuple(
                    sorted(bound & {v.name for v in pattern.variables()})
                )
                est_rows = estimator.subset_cardinality(prefix + [pattern])
                if not shared:
                    strategy = "cartesian"
                    current_key = None
                elif (
                    self.enable_broadcast
                    and est_build < self.broadcast_threshold
                ):
                    # Broadcast never touches the accumulated side, so its
                    # partitioning (current_key) survives untouched.
                    strategy = "broadcast"
                elif current_key == shared:
                    strategy = "local"
                else:
                    strategy = "shuffle"
                    current_key = shared
                steps.append(
                    JoinStep(
                        index=index,
                        pattern=pattern,
                        shared=shared,
                        strategy=strategy,
                        est_build=est_build,
                        est_rows=est_rows,
                        view=view,
                    )
                )
            prefix.append(pattern)
            bound |= {v.name for v in pattern.variables()}
        return steps

    # ------------------------------------------------------------------
    # Materialized-view substitution
    # ------------------------------------------------------------------

    def _choose_view(
        self, patterns: List[TriplePattern], index: int
    ) -> Optional[ViewChoice]:
        """The best materialized view replacing pattern *index*'s scan.

        A view ``extvp_kind(p1,p2)`` applies when the pattern's predicate
        is bound to ``p1`` and some *other* pattern of the same BGP binds
        ``p2`` with a shared variable sitting on the columns *kind* names.
        The view's rows are a superset of the joinable rows (they survive
        the semi-join against **all** of ``p2``'s triples, of which the
        partner's matches are a subset), so substituting it never changes
        results.  Substitution requires *strict dominance*: the view must
        hold fewer rows than ``p1``'s full partition.  Ties break on
        (rows, key, partner index) so plans stay deterministic.
        """
        catalog = self.view_catalog
        if catalog is None or len(catalog) == 0:
            return None
        pattern = patterns[index]
        if isinstance(pattern.predicate, Variable):
            return None
        p1 = pattern.predicate.n3()
        stats = self.estimator.catalog.predicate_stats(p1)
        base_rows = stats.count if stats is not None else 0
        best = None  # ((rows, view key, partner index), view)
        for partner, other in enumerate(patterns):
            if partner == index or isinstance(other.predicate, Variable):
                continue
            p2 = other.predicate.n3()
            if p2 == p1:
                continue
            for kind in semi_join_kinds(pattern, other):
                view = catalog.get((kind, p1, p2))
                if view is None or len(view) >= base_rows:
                    continue
                candidate = ((len(view), view.key, partner), view)
                if best is None or candidate[0] < best[0]:
                    best = candidate
        if best is None:
            return None
        (_, _, partner), view = best
        return ViewChoice(
            key=view.key,
            rows=len(view),
            base_rows=base_rows,
            factor=view.factor,
            partner=partner,
        )
