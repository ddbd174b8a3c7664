"""Partition-local BGP matching over raw triple tuples.

Several engines (HAQWA, SparkRDF) evaluate sub-queries *inside* one
partition against whatever triples are locally present.  This helper runs
a basic graph pattern over a list of ``(s, p, o)`` tuples in any value
space (terms or dictionary-encoded integers), using a subject index for
the common subject-bound case.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

from repro.spark.kernels import generate
from repro.spark.metrics import Header
from repro.spark.rows import RowJoin
from repro.sparql.ast import TriplePattern, Variable
from repro.systems.base import compile_pattern

#: A pattern position: a Variable or a constant in the store's value space.
LocalPosition = Union[Variable, Any]
#: A local pattern: three positions.
LocalPattern = Tuple[LocalPosition, LocalPosition, LocalPosition]


def encode_pattern(pattern: TriplePattern, encode_constant) -> LocalPattern:
    """Map a TriplePattern into the store's value space.

    *encode_constant* translates a bound RDF term; it may raise KeyError
    for terms absent from the store's dictionary (no triple can match).
    """
    return tuple(
        p if isinstance(p, Variable) else encode_constant(p)
        for p in pattern.positions()
    )


def subject_index(triples: Sequence[Tuple[Any, Any, Any]]) -> Dict[Any, list]:
    """*triples* by subject, each subject's in their order."""
    by_subject: Dict[Any, list] = {}
    for triple in triples:
        by_subject.setdefault(triple[0], []).append(triple)
    return by_subject


def compile_bgp_local(patterns: Sequence[LocalPattern]) -> Callable:
    """*patterns* as ``run(triples, by_subject=None)``, the rows of one
    partition's triples over ``run.header`` (nested-index join; the
    subject index is built when not given): the patterns are compiled,
    and what each must agree on and adds is written into one kernel per
    pattern, once for all partitions."""
    steps = []
    header = Header()
    for pattern in patterns:
        subject = pattern[0]
        match = compile_pattern(pattern)
        # Every row so far is over *header*, so what a candidate must
        # agree on is known per pattern; one found through the subject
        # index already agrees on its subject.
        by_index = isinstance(subject, Variable) and subject.name in header
        agree = [name for name in match.header if name in header]
        if by_index:
            agree.remove(subject.name)
        join = RowJoin(header, match.header, agree)
        # The candidates: each row's subject's triples, or -- scanned
        # once, not once per row -- the partition's or the constant
        # subject's.
        matches = (
            "scan(index.get(l[%d], ()))" % header.index(subject.name)
            if by_index
            else "found"
        )
        text = "[%s for l in rows for r in %s%s]" % (
            join.merged, matches, " if " + join.equal if join.key else ""
        )
        extend = generate(
            "extend " + text,
            "extend = lambda rows, found, index: %s\n" % text,
            {"scan": match.scan},
        )["extend"]
        steps.append((match.scan, subject, by_index, extend))
        header = join.header

    def run(triples, by_subject=None) -> List[tuple]:
        if by_subject is None:
            by_subject = subject_index(triples)
        found: List[tuple] = []
        bindings: List[tuple] = [()]
        for scan, subject, by_index, extend in steps:
            if not by_index:
                found = scan(
                    triples
                    if isinstance(subject, Variable)
                    else by_subject.get(subject, ())
                )
            bindings = extend(bindings, found, by_subject)
            if not bindings:
                break
        return bindings

    run.header = header
    return run

