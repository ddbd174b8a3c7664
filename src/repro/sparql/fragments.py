"""SPARQL fragment detection: BGP vs BGP+ (the Table II column).

"All systems start from evaluating simple blocks of triple patterns,
called Basic Graph Patterns (BGP), and continue building on top of this,
for more operations (BGP+)."  ``features_of`` lists the operations a query
uses; engines declare the features they support and the harness routes
queries accordingly.
"""

from __future__ import annotations

from enum import Enum
from typing import Set

from repro.sparql.ast import (
    FilterPattern,
    GroupGraphPattern,
    OptionalPattern,
    Query,
    SelectQuery,
    TriplePattern,
    UnionPattern,
)


class SparqlFragment(Enum):
    BGP = "BGP"
    BGP_PLUS = "BGP+"


#: Feature labels used in engine profiles and query analysis.
FEATURE_BGP = "BGP"
FEATURE_FILTER = "FILTER"
FEATURE_OPTIONAL = "OPTIONAL"
FEATURE_UNION = "UNION"
FEATURE_DISTINCT = "DISTINCT"
FEATURE_ORDER_BY = "ORDER BY"
FEATURE_LIMIT = "LIMIT"
FEATURE_OFFSET = "OFFSET"

ALL_FEATURES = frozenset(
    {
        FEATURE_BGP,
        FEATURE_FILTER,
        FEATURE_OPTIONAL,
        FEATURE_UNION,
        FEATURE_DISTINCT,
        FEATURE_ORDER_BY,
        FEATURE_LIMIT,
        FEATURE_OFFSET,
    }
)


def _group_features(group: GroupGraphPattern) -> Set[str]:
    features: Set[str] = set()
    for element in group.elements:
        if isinstance(element, TriplePattern):
            features.add(FEATURE_BGP)
        elif isinstance(element, FilterPattern):
            features.add(FEATURE_FILTER)
        elif isinstance(element, OptionalPattern):
            features.add(FEATURE_OPTIONAL)
            features |= _group_features(element.pattern)
        elif isinstance(element, UnionPattern):
            features.add(FEATURE_UNION)
            for branch in element.alternatives:
                features |= _group_features(branch)
        elif isinstance(element, GroupGraphPattern):
            features |= _group_features(element)
    return features


def features_of(query: Query) -> Set[str]:
    """The SPARQL features *query* uses."""
    where = getattr(query, "where", None)
    features = _group_features(where) if where is not None else set()
    if isinstance(query, SelectQuery):
        if query.distinct:
            features.add(FEATURE_DISTINCT)
        if query.order_by:
            features.add(FEATURE_ORDER_BY)
        if query.limit is not None:
            features.add(FEATURE_LIMIT)
        if query.offset:
            features.add(FEATURE_OFFSET)
    return features
