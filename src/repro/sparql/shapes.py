"""Query shape classification (Section II-B of the paper).

Star-shaped queries join triple patterns on a shared subject variable
(subject-subject joins); linear queries chain subject-object joins;
snowflakes combine several stars; anything else is complex.  Shapes drive
workload generation and benchmark reporting, since the paper's systems
differ exactly in which shapes they execute locally.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Sequence, Set, Tuple

from repro.sparql.ast import Query, TriplePattern, Variable, where_patterns


class QueryShape(Enum):
    EMPTY = "empty"
    SINGLE = "single"
    STAR = "star"
    LINEAR = "linear"
    SNOWFLAKE = "snowflake"
    COMPLEX = "complex"


class JoinKind(Enum):
    """Join classification by the positions the shared variable occupies."""

    SUBJECT_SUBJECT = "SS"
    SUBJECT_OBJECT = "SO"
    OBJECT_SUBJECT = "OS"
    OBJECT_OBJECT = "OO"
    OTHER = "other"  # a predicate position participates


def _positions_of(pattern: TriplePattern, variable: Variable) -> Set[str]:
    out = set()
    if pattern.subject == variable:
        out.add("s")
    if pattern.predicate == variable:
        out.add("p")
    if pattern.object == variable:
        out.add("o")
    return out


def join_edges(
    patterns: Sequence[TriplePattern],
) -> List[Tuple[int, int, Variable, JoinKind]]:
    """All pairwise joins: (pattern index, pattern index, variable, kind)."""
    edges = []
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            shared = set(patterns[i].variables()) & set(patterns[j].variables())
            for variable in sorted(shared, key=lambda v: v.name):
                pi = _positions_of(patterns[i], variable)
                pj = _positions_of(patterns[j], variable)
                if "p" in pi or "p" in pj:
                    kind = JoinKind.OTHER
                elif "s" in pi and "s" in pj:
                    kind = JoinKind.SUBJECT_SUBJECT
                elif "s" in pi and "o" in pj:
                    kind = JoinKind.SUBJECT_OBJECT
                elif "o" in pi and "s" in pj:
                    kind = JoinKind.OBJECT_SUBJECT
                else:
                    kind = JoinKind.OBJECT_OBJECT
                edges.append((i, j, variable, kind))
    return edges


def _is_star(patterns: Sequence[TriplePattern]) -> bool:
    """Every pattern shares one subject variable (subject-subject joins)."""
    first = patterns[0].subject
    if not isinstance(first, Variable):
        return False
    return all(p.subject == first for p in patterns)


def _is_linear(patterns: Sequence[TriplePattern]) -> bool:
    """Patterns form a chain of subject-object joins.

    Some ordering of the patterns must satisfy: object variable of step i
    equals subject variable of step i+1, and no other variables are shared.
    """
    n = len(patterns)
    if n < 2:
        return False
    edges = join_edges(patterns)
    if len(edges) != n - 1:
        return False
    degree: Dict[int, int] = {i: 0 for i in range(n)}
    for i, j, _var, kind in edges:
        if kind not in (JoinKind.SUBJECT_OBJECT, JoinKind.OBJECT_SUBJECT):
            return False
        degree[i] += 1
        degree[j] += 1
    endpoints = [i for i, d in degree.items() if d == 1]
    middles = [i for i, d in degree.items() if d == 2]
    return len(endpoints) == 2 and len(endpoints) + len(middles) == n


def _connected(patterns: Sequence[TriplePattern]) -> bool:
    n = len(patterns)
    if n <= 1:
        return True
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for i, j, _var, _kind in join_edges(patterns):
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return len(seen) == n


def _is_snowflake(patterns: Sequence[TriplePattern]) -> bool:
    """Several stars connected by subject-object links.

    Operationally: group patterns by subject; at least two groups have two
    or more patterns (the stars); the contracted star graph is connected;
    and every inter-group join is subject-object (no OO or predicate
    joins).
    """
    groups: Dict[object, List[int]] = {}
    for index, pattern in enumerate(patterns):
        groups.setdefault(pattern.subject, []).append(index)
    star_groups = [members for members in groups.values() if len(members) >= 2]
    if len(star_groups) < 2:
        return False
    group_of = {}
    for key, members in groups.items():
        for member in members:
            group_of[member] = key
    for i, j, _var, kind in join_edges(patterns):
        if group_of[i] == group_of[j]:
            if kind is not JoinKind.SUBJECT_SUBJECT:
                return False
        else:
            if kind not in (JoinKind.SUBJECT_OBJECT, JoinKind.OBJECT_SUBJECT):
                return False
    return _connected(patterns)


def classify_patterns(patterns: Sequence[TriplePattern]) -> QueryShape:
    """Shape of a list of triple patterns."""
    if not patterns:
        return QueryShape.EMPTY
    if len(patterns) == 1:
        return QueryShape.SINGLE
    if _is_star(patterns):
        return QueryShape.STAR
    if _is_linear(patterns):
        return QueryShape.LINEAR
    if _is_snowflake(patterns):
        return QueryShape.SNOWFLAKE
    return QueryShape.COMPLEX


def classify_shape(query: Query) -> QueryShape:
    """Shape of a query's full set of triple patterns."""
    return classify_patterns(where_patterns(query))
