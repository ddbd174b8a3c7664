"""Partition-local BGP matching over raw triple tuples.

Several engines (HAQWA, SparkRDF) evaluate sub-queries *inside* one
partition against whatever triples are locally present.  This helper runs
a basic graph pattern over a list of ``(s, p, o)`` tuples in any value
space (terms or dictionary-encoded integers), using a subject index for
the common subject-bound case.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Set, Tuple, Union

from repro.sparql.ast import TriplePattern, Variable
from repro.systems.base import compile_pattern

#: A pattern position: a Variable or a constant in the store's value space.
LocalPosition = Union[Variable, Any]
#: A local pattern: three positions.
LocalPattern = Tuple[LocalPosition, LocalPosition, LocalPosition]


def encode_pattern(
    pattern: TriplePattern, encode_constant
) -> LocalPattern:
    """Map a TriplePattern into the store's value space.

    *encode_constant* translates a bound RDF term; it may raise KeyError
    for terms absent from the store's dictionary (no triple can match).
    """
    out = []
    for position in pattern.positions():
        if isinstance(position, Variable):
            out.append(position)
        else:
            out.append(encode_constant(position))
    return tuple(out)


def compile_bgp_local(
    patterns: Sequence[LocalPattern],
) -> Callable[[Sequence[Tuple[Any, Any, Any]]], List[Dict[str, Any]]]:
    """*patterns* as the function from the triples of one partition to
    their bindings (nested-index join): the patterns are compiled and
    what each must agree on is worked out here, once for all partitions."""
    steps = []
    bound: Set[str] = set()
    for pattern in patterns:
        subject = pattern[0]
        names = {p.name for p in pattern if isinstance(p, Variable)}
        # Every binding so far binds exactly *bound*, so what a candidate
        # must agree with is known per pattern; a subject found through
        # the index already agrees.
        by_index = isinstance(subject, Variable) and subject.name in bound
        agree = sorted(names & bound)
        if by_index:
            agree.remove(subject.name)
        bound |= names
        steps.append((compile_pattern(pattern).scan, subject, by_index, agree))

    def run(triples: Sequence[Tuple[Any, Any, Any]]) -> List[Dict[str, Any]]:
        by_subject: Dict[Any, List[Tuple[Any, Any, Any]]] = {}
        for triple in triples:
            by_subject.setdefault(triple[0], []).append(triple)
        bindings: List[Dict[str, Any]] = [{}]
        for scan, subject, by_index, agree in steps:
            if not by_index:
                # Scanned once, not once per binding: the partition, or
                # the triples of the pattern's constant subject.
                matches = scan(
                    triples
                    if isinstance(subject, Variable)
                    else by_subject.get(subject, ())
                )
            next_bindings: List[Dict[str, Any]] = []
            for binding in bindings:
                if by_index:
                    matches = scan(by_subject.get(binding[subject.name], ()))
                for matched in matches:
                    for other in agree:
                        if binding[other] != matched[other]:
                            break
                    else:
                        next_bindings.append({**binding, **matched})
            bindings = next_bindings
            if not bindings:
                break
        return bindings

    return run


def match_bgp_local(
    patterns: Sequence[LocalPattern],
    triples: Sequence[Tuple[Any, Any, Any]],
) -> List[Dict[str, Any]]:
    """All bindings of *patterns* over *triples*."""
    return compile_bgp_local(patterns)(triples)
