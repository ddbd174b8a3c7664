"""The survey-derived per-shape routing table: one source of truth.

Section III's "System Contribution" dimension and the cross-system
assessment (``benchmarks/bench_systems_comparison.py``) agree that no
single mechanism wins every query shape: subject hashing answers stars
locally, ExtVP semi-joins prune chains hardest, class indexes tame
object-object joins.  This module is the *name-based* form of that
conclusion: the adaptive :class:`repro.routing.RoutingPolicy` turns it
into calibration priors -- the survey preference is where the ensemble
*starts*; the feedback loop takes it from there.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.sparql.shapes import QueryShape

#: The survey preference per shape (engine profile names).
DEFAULT_SHAPE_PREFERENCES: Dict[QueryShape, str] = {
    QueryShape.STAR: "HAQWA",
    QueryShape.LINEAR: "S2RDF",
    QueryShape.SNOWFLAKE: "SPARQL-Hybrid",
    QueryShape.COMPLEX: "SparkRDF",
    QueryShape.SINGLE: "SPARQLGX",
    QueryShape.EMPTY: "Naive",
}

#: Feature-coverage fallbacks, widest SPARQL fragment last.  When a
#: query's features are outside every configured engine's fragment, the
#: router walks this chain in order (``Naive`` covers ALL_FEATURES, so
#: the walk always terminates).
DEFAULT_FALLBACK_CHAIN: Tuple[str, ...] = ("SPARQLGX", "Naive")

#: Prior calibration multipliers: the preferred engine starts cheapest,
#: everyone else neutral, and the last-resort full-scan baseline is
#: priced out of exploration (it still wins when it is the only engine
#: whose fragment covers the query).
PREFERRED_PRIOR = 0.5
NEUTRAL_PRIOR = 1.0
LAST_RESORT_PRIOR = 32.0

#: Engines whose prior is :data:`LAST_RESORT_PRIOR` on every shape they
#: are not preferred for.
LAST_RESORT_ENGINES: Tuple[str, ...] = ("Naive",)


def _default_pool() -> Tuple[str, ...]:
    """Preference-table engines (shape declaration order) + fallbacks."""
    pool = []
    for shape in QueryShape:
        name = DEFAULT_SHAPE_PREFERENCES[shape]
        if name not in pool:
            pool.append(name)
    for name in DEFAULT_FALLBACK_CHAIN:
        if name not in pool:
            pool.append(name)
    return tuple(pool)


#: The default adaptive-routing candidate set.
DEFAULT_ENGINE_POOL: Tuple[str, ...] = _default_pool()


def default_priors(
    engines: Optional[Iterable[str]] = None,
) -> Dict[Tuple[str, str], float]:
    """Prior factor per (engine name, shape value) for *engines*.

    The survey-preferred engine of each shape gets
    :data:`PREFERRED_PRIOR` so a fresh ensemble reproduces the static
    router's table before any feedback arrives.
    """
    pool = tuple(engines) if engines is not None else DEFAULT_ENGINE_POOL
    priors: Dict[Tuple[str, str], float] = {}
    for shape in QueryShape:
        preferred = DEFAULT_SHAPE_PREFERENCES[shape]
        for engine in pool:
            if engine == preferred:
                prior = PREFERRED_PRIOR
            elif engine in LAST_RESORT_ENGINES:
                prior = LAST_RESORT_PRIOR
            else:
                prior = NEUTRAL_PRIOR
            priors[(engine, shape.value)] = prior
    return priors
