"""``compile_pattern`` against a matcher that re-reads the pattern per
triple, over every layout a triple pattern can have, in both value
spaces the engines scan (terms and dictionary-encoded ints) and in the
three shapes a scanned record has (a triple, SPARQLGX's ``(s, o)`` pair
in a store of one predicate, Spar(k)ql's ``Edge``); and
``match_bgp_local``, which joins through it, against the per-candidate
walk it replaced."""

import itertools
import pickle

import pytest

from repro.rdf.terms import BNode, Literal, URI
from repro.spark.graphx import Edge
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


def record_layouts(universe):
    """(name, layout, records, the triple each record stands for)."""
    triples = list(itertools.product(universe, repeat=3))
    yield "triple", ("t[0]", "t[1]", "t[2]"), triples, triples
    for predicate in universe:
        # One SPARQLGX store: its predicate equals some patterns'
        # constant and differs from the others'.
        held = [t for t in triples if t[1] == predicate]
        pairs = [(s, o) for s, _p, o in held]
        yield "pair", ("t[0]", predicate, "t[1]"), pairs, held
    edges = [Edge(s, o, p) for s, p, o in triples]
    yield "edge", ("t.src", "t.attr", "t.dst"), edges, triples


@pytest.mark.parametrize("hashed", [False, True], ids=["unhashed", "hashed"])
@pytest.mark.parametrize("universe", [TERMS, INTS], ids=["terms", "ints"])
def test_every_layout_scans_like_the_reference(universe, hashed):
    """``scan(part)`` is the reference matcher over the partition, in
    order and with the same key order, whatever shape a record has --
    over copies nobody hashed (a term's ``==`` decides) and over the
    same copies once hashed (its hash slot decides first)."""
    seen = set()
    for name, layout, records, stood_for in record_layouts(universe):
        records = pickle.loads(pickle.dumps(records))
        values = {
            id(value): value
            for record in records
            for value in (vars(record).values() if name == "edge" else record)
        }
        if universe is TERMS:
            assert all(value._hash is None for value in values.values())
        if hashed:
            for value in values.values():
                hash(value)
        for positions in layouts(universe):
            match = compile_pattern(positions, layout)
            expected = [
                binding
                for triple in stood_for
                if (binding := reference_match(triple, positions)) is not None
            ]
            got = match.scan(records)
            assert got == expected, (name, positions)
            assert [list(b) for b in got] == [list(b) for b in expected]
            # The probe entry point is the same kernel, one record a call.
            assert [
                b for r in records if (b := match(r)) is not None
            ] == expected
            seen.add((name, positions))
    assert len(seen) == 3 * 27


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
