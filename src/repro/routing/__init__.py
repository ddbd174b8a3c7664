"""Adaptive per-shape engine routing (see docs/ROUTING.md).

The survey's central finding is that no single Spark RDF mechanism wins
every query shape.  This package turns the query service into an
ensemble that exploits that: a :class:`RoutingPolicy` classifies each
query's shape, prices every candidate engine as ``base cost estimate x
per-(engine, shape) calibration factor``, and dispatches to the
cheapest; a :class:`FeedbackLog` corrects the factors from observed
cost units after every execution.  :mod:`repro.routing.defaults` holds
the survey preference table the policy's priors derive from.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.routing.defaults": (
            "DEFAULT_ENGINE_POOL",
            "DEFAULT_FALLBACK_CHAIN",
            "DEFAULT_SHAPE_PREFERENCES",
            "default_priors",
        ),
        "repro.routing.feedback": (
            "DEFAULT_HISTORY",
            "DEFAULT_MIN_OBSERVATIONS",
            "DEFAULT_PRIOR_WEIGHT",
            "EXPLORE_DISCOUNT",
            "FACTOR_MAX",
            "FACTOR_MIN",
            "FeedbackLog",
            "clamp_factor",
        ),
        "repro.routing.policy": (
            "EngineBid",
            "RoutingDecision",
            "RoutingPolicy",
        ),
    },
)
