"""``compile_pattern`` against a matcher that re-reads the pattern per
triple, over every layout a triple pattern can have, in both value
spaces the engines scan (terms and dictionary-encoded ints); and
``match_bgp_local``, which joins through it, against the per-candidate
walk it replaced."""

import itertools
import pickle

import pytest

from repro.rdf.terms import BNode, Literal, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.systems.base import compile_pattern
from repro.systems.localmatch import match_bgp_local


def reference_match(triple, positions):
    """Bindings for one triple against three positions, or None."""
    binding = {}
    for value, position in zip(triple, positions):
        if isinstance(position, Variable):
            bound = binding.get(position.name)
            if bound is not None and bound != value:
                return None
            binding[position.name] = value
        elif position != value:
            return None
    return binding


def reference_extend(binding, pattern, triple):
    out = None
    for position, value in zip(pattern, triple):
        if isinstance(position, Variable):
            bound = (out or binding).get(position.name)
            if bound is None:
                if out is None:
                    out = dict(binding)
                out[position.name] = value
            elif bound != value:
                return None
        elif position != value:
            return None
    return out if out is not None else dict(binding)


def reference_bgp(patterns, triples):
    bindings = [{}]
    for pattern in patterns:
        bindings = [
            extended
            for binding in bindings
            for triple in triples
            if (extended := reference_extend(binding, pattern, triple))
            is not None
        ]
    return bindings


TERMS = (
    URI("http://x/a"),
    Literal("a", language="en"),
    BNode("a"),
)
INTS = (0, 1, 2)


def layouts(universe):
    """All 27 ways to fill three positions with a constant, ``?x`` or
    ``?y`` -- so ``?x p ?x``, ``?x ?x ?x`` and ``?x ?y ?x`` are in."""
    fillers = ("constant", Variable("x"), Variable("y"))
    for index, layout in enumerate(itertools.product(fillers, repeat=3)):
        yield tuple(
            universe[(index + place) % len(universe)]
            if filler == "constant"
            else filler
            for place, filler in enumerate(layout)
        )


@pytest.mark.parametrize("universe", [TERMS, INTS], ids=["terms", "ints"])
def test_every_layout_matches_like_the_reference(universe):
    # The scanned values equal the patterns' constants but are never the
    # same objects: a matcher may not rely on identity.
    scanned = pickle.loads(pickle.dumps(universe))
    triples = list(itertools.product(scanned, repeat=3))
    seen = 0
    for positions in layouts(universe):
        for match in (
            compile_pattern(positions),
            compile_pattern(TriplePattern(*positions)),
        ):
            for triple in triples:
                expected = reference_match(triple, positions)
                got = match(triple)
                assert got == expected, (positions, triple)
                if expected is not None:
                    assert list(got) == list(expected)  # same key order
        seen += 1
    assert seen == 27


@pytest.mark.parametrize("universe", [TERMS, INTS], ids=["terms", "ints"])
def test_local_bgp_joins_like_the_reference(universe):
    # Not the full cube: enough triples for hits, misses and fan-out.
    triples = [
        triple
        for index, triple in enumerate(itertools.product(universe, repeat=3))
        if index % 3 != 1
    ]
    first = list(layouts(universe))
    # The second pattern brings a third variable, so it shares zero, one
    # or two variables with the first.
    second = [
        tuple(
            Variable("z") if p == Variable("y") and place == 2 else p
            for place, p in enumerate(positions)
        )
        for positions in first
    ]
    for left, right in itertools.product(first, second):
        expected = reference_bgp([left, right], triples)
        got = match_bgp_local([left, right], triples)
        assert got == expected, (left, right)
        assert [list(b) for b in got] == [list(b) for b in expected]


def test_no_patterns_is_one_empty_binding():
    assert match_bgp_local([], [(1, 2, 3)]) == [{}]
