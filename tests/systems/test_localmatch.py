"""Unit tests for partition-local BGP matching."""

import pytest

from repro.sparql.ast import TriplePattern, Variable
from repro.systems.localmatch import compile_bgp_local, encode_pattern

V = Variable


class TestMatchBgpLocal:
    TRIPLES = [
        (1, 10, 2),
        (2, 10, 3),
        (1, 11, 5),
        (3, 10, 1),
    ]

    def test_empty_patterns_yield_empty_binding(self):
        assert compile_bgp_local([]).header == ()
        assert compile_bgp_local([])(self.TRIPLES) == [()]

    def test_single_pattern_all_variables(self):
        run = compile_bgp_local([(V("s"), V("p"), V("o"))])
        assert run.header == ("s", "p", "o")
        assert len(run(self.TRIPLES)) == 4

    def test_constant_predicate(self):
        run = compile_bgp_local([(V("s"), 11, V("o"))])
        assert run.header == ("s", "o")
        assert run(self.TRIPLES) == [(1, 5)]

    def test_constant_subject_uses_index(self):
        run = compile_bgp_local([(1, 10, V("o"))])
        assert run.header == ("o",)
        assert run(self.TRIPLES) == [(2,)]

    def test_chain_join(self):
        run = compile_bgp_local([(V("a"), 10, V("b")), (V("b"), 10, V("c"))])
        assert run.header == ("a", "b", "c")
        assert set(run(self.TRIPLES)) == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}

    def test_repeated_variable_within_pattern(self):
        triples = [(1, 10, 1), (1, 10, 2)]
        run = compile_bgp_local([(V("x"), 10, V("x"))])
        assert run.header == ("x",)
        assert run(triples) == [(1,)]

    def test_no_match_short_circuits(self):
        run = compile_bgp_local([(V("s"), 99, V("o")), (V("s"), 10, V("o2"))])
        assert run(self.TRIPLES) == []

    def test_bound_variable_propagates(self):
        run = compile_bgp_local([(1, 10, V("x")), (V("x"), 10, V("y"))])
        assert run.header == ("x", "y")
        assert run(self.TRIPLES) == [(2, 3)]

    def test_empty_store(self):
        assert compile_bgp_local([(V("s"), V("p"), V("o"))])([]) == []


class TestEncodePattern:
    def test_maps_constants_keeps_variables(self):
        from repro.rdf.terms import URI

        pattern = TriplePattern(V("s"), URI("http://x/p"), URI("http://x/o"))
        table = {URI("http://x/p"): 7, URI("http://x/o"): 8}
        encoded = encode_pattern(pattern, table.__getitem__)
        assert encoded == (V("s"), 7, 8)

    def test_unknown_constant_raises_keyerror(self):
        from repro.rdf.terms import URI

        pattern = TriplePattern(V("s"), URI("http://x/p"), V("o"))
        with pytest.raises(KeyError):
            encode_pattern(pattern, {}.__getitem__)
