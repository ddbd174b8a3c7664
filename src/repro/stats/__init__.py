"""Shared graph statistics for cost-based query optimization.

One :class:`~repro.stats.catalog.StatsCatalog` per loaded graph replaces
the private counters the surveyed systems each keep for themselves
(SPARQLGX's distinct subject/predicate/object counts, S2RDF's ExtVP
selectivity factors): every engine, the optimizer, and the query service
read the same numbers, computed in one pass and serialized as
deterministic sorted-key JSON.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.stats.catalog": (
            "CharacteristicSet",
            "PredicateStats",
            "StatsCatalog",
        ),
    },
)
