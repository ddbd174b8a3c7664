"""Cardinality estimation for triple patterns, stars and join subsets.

Three estimation layers, each falling back to the next:

1. **Triple patterns** -- the SPARQLGX recipe generalized: the bound
   predicate selects its vertical-partition size, a bound subject/object
   divides by that predicate's distinct subject/object count (the global
   counts when the predicate is unbound).
2. **Subject stars** -- when every pattern of a subset shares one subject
   variable and all predicates are bound, characteristic sets give a
   near-exact count (Neumann & Moerkotte): sum over the subject groups
   whose predicate set covers the query star.
3. **Arbitrary subsets** -- the System-R independence assumption: the
   product of per-pattern cardinalities divided, for each join variable,
   by all but the smallest distinct-value count among the patterns using
   it.  Before the division, each pattern's cardinality is reduced by the
   strongest applicable ExtVP pair-selectivity factor against the other
   patterns in the subset -- the same semi-join reduction S2RDF gets from
   its precomputed tables.

Every estimate is a ``float >= 0``; deterministic because the catalog is.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.sparql.ast import TriplePattern, Variable, semi_join_kinds
from repro.stats.catalog import StatsCatalog


def _n3(term: object) -> Optional[str]:
    """The N3 key of a bound position, or None for a variable."""
    if isinstance(term, Variable):
        return None
    return term.n3()  # type: ignore[attr-defined]


class CardinalityEstimator:
    """Estimates pattern / star / subset cardinalities from a catalog."""

    def __init__(self, catalog: StatsCatalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Single patterns
    # ------------------------------------------------------------------

    def pattern_cardinality(self, pattern: TriplePattern) -> float:
        """Expected matches of one triple pattern against the graph."""
        catalog = self.catalog
        predicate = _n3(pattern.predicate)
        if predicate is None:
            base = float(catalog.triples)
            subjects = catalog.distinct_subjects
            objects = catalog.distinct_objects
        else:
            stats = catalog.predicate_stats(predicate)
            if stats is None:
                return 0.0
            base = float(stats.count)
            subjects = stats.distinct_subjects
            objects = stats.distinct_objects
        if _n3(pattern.subject) is not None:
            base /= max(subjects, 1)
        if _n3(pattern.object) is not None:
            base /= max(objects, 1)
        return base

    def variable_distinct(
        self, pattern: TriplePattern, name: str
    ) -> float:
        """Estimated distinct values variable *name* takes in *pattern*."""
        catalog = self.catalog
        predicate = _n3(pattern.predicate)
        if predicate is None:
            stats = None
        else:
            stats = catalog.predicate_stats(predicate)
        distinct = 1.0
        if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
            distinct = max(
                distinct,
                float(
                    stats.distinct_subjects
                    if stats is not None
                    else catalog.distinct_subjects
                ),
            )
        if (
            isinstance(pattern.predicate, Variable)
            and pattern.predicate.name == name
        ):
            distinct = max(distinct, float(catalog.distinct_predicates))
        if isinstance(pattern.object, Variable) and pattern.object.name == name:
            distinct = max(
                distinct,
                float(
                    stats.distinct_objects
                    if stats is not None
                    else catalog.distinct_objects
                ),
            )
        return max(min(distinct, self.pattern_cardinality(pattern)), 1.0)

    # ------------------------------------------------------------------
    # Pattern-pair reduction (ExtVP)
    # ------------------------------------------------------------------

    def reduction_factor(
        self, pattern: TriplePattern, other: TriplePattern
    ) -> float:
        """Fraction of *pattern*'s rows surviving a semi-join with *other*.

        1.0 when no ExtVP factor applies (unbound predicates, predicate-
        position joins, or no shared variable on s/o columns).
        """
        p1 = _n3(pattern.predicate)
        p2 = _n3(other.predicate)
        if p1 is None or p2 is None or p1 == p2:
            return 1.0
        kinds = semi_join_kinds(pattern, other)
        return min(
            (self.catalog.selectivity(kind, p1, p2) for kind in kinds),
            default=1.0,
        )

    def reduced_cardinality(
        self, pattern: TriplePattern, others: Sequence[TriplePattern]
    ) -> float:
        """Pattern cardinality after the strongest semi-join reduction."""
        base = self.pattern_cardinality(pattern)
        factor = 1.0
        for other in others:
            factor = min(factor, self.reduction_factor(pattern, other))
        return base * factor

    # ------------------------------------------------------------------
    # Subsets (order-independent, used by the DP planner)
    # ------------------------------------------------------------------

    def subset_cardinality(
        self, patterns: Sequence[TriplePattern]
    ) -> float:
        """Expected rows of joining every pattern in the subset."""
        if not patterns:
            return 1.0
        if len(patterns) == 1:
            return self.pattern_cardinality(patterns[0])
        star = self._star_cardinality(patterns)
        if star is not None:
            return star
        return self._independence_cardinality(patterns)

    def _star_cardinality(
        self, patterns: Sequence[TriplePattern]
    ) -> Optional[float]:
        """Characteristic-set estimate when the subset is a subject star."""
        first = patterns[0].subject
        if not isinstance(first, Variable):
            return None
        if not all(p.subject == first for p in patterns):
            return None
        predicate_names: List[str] = []
        for pattern in patterns:
            p = _n3(pattern.predicate)
            if p is None:
                return None
            predicate_names.append(p)
        rows = self.catalog.star_cardinality(predicate_names)
        if rows is None:
            return None
        # Bound objects filter the star the way a bound object filters a
        # single pattern: one value out of the predicate's distinct objects.
        for pattern in patterns:
            if _n3(pattern.object) is not None:
                stats = self.catalog.predicate_stats(_n3(pattern.predicate))
                rows /= max(stats.distinct_objects if stats else 1, 1)
        return rows

    def _independence_cardinality(
        self, patterns: Sequence[TriplePattern]
    ) -> float:
        result = 1.0
        others: List[List[TriplePattern]] = [
            [q for q in patterns if q is not p] for p in patterns
        ]
        for pattern, rest in zip(patterns, others):
            result *= self.reduced_cardinality(pattern, rest)
        # For each join variable keep the smallest distinct count and
        # divide by the rest (System-R).
        by_variable: Dict[str, List[float]] = {}
        for pattern in patterns:
            for variable in sorted(
                set(pattern.variables()), key=lambda v: v.name
            ):
                by_variable.setdefault(variable.name, []).append(
                    self.variable_distinct(pattern, variable.name)
                )
        for distincts in by_variable.values():
            if len(distincts) < 2:
                continue
            distincts.sort()
            for d in distincts[1:]:
                result /= max(d, 1.0)
        return result
