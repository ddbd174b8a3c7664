"""Tests for dictionary encoding and namespace management."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.encoding import (
    Dictionary,
    encoded_volume,
    encoded_volume_ratio,
    raw_volume,
)
from repro.rdf.namespaces import Namespace, NamespaceManager
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple


def uri(name):
    return URI("http://example.org/long/path/segment/" + name)


class TestDictionary:
    def test_dense_first_seen_ids(self):
        d = Dictionary()
        assert d.encode_term(uri("a")) == 0
        assert d.encode_term(uri("b")) == 1
        assert d.encode_term(uri("a")) == 0
        assert len(d) == 2

    def test_decode_inverse(self):
        d = Dictionary()
        term = Literal("hello", language="en")
        assert d.decode_id(d.encode_term(term)) == term

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            Dictionary().lookup_term(uri("missing"))

    def test_contains(self):
        d = Dictionary()
        d.encode_term(uri("a"))
        assert uri("a") in d and uri("b") not in d

    def test_get_is_none_for_an_unseen_term(self):
        d = Dictionary()
        d.encode_term(uri("a"))
        assert d.get(uri("a")) == 0 and d.get(uri("b")) is None

    def test_encode_graph_hands_out_ids_in_sorted_triple_order(self):
        triples = [
            Triple(uri("s2"), uri("p"), uri("o")),
            Triple(uri("s1"), uri("p"), Literal(5)),
        ]
        d = Dictionary()
        # Whatever order the triples arrive in: s1 p 5 sorts first.
        assert d.encode_graph(triples) == [(0, 1, 2), (3, 1, 4)]
        assert d.decode_id(0) == uri("s1") and d.decode_id(3) == uri("s2")

    def test_decode_binding(self):
        d = Dictionary()
        ids = {"x": d.encode_term(uri("a")), "y": d.encode_term(Literal(5))}
        assert d.decode_binding(ids) == {"x": uri("a"), "y": Literal(5)}

    def test_triple_roundtrip(self):
        d = Dictionary()
        triple = Triple(uri("s"), uri("p"), Literal(5))
        assert d.decode(d.encode(triple)) == triple

    def test_encode_all_decode_all(self):
        d = Dictionary()
        triples = [
            Triple(uri("s"), uri("p"), uri("o%d" % i)) for i in range(5)
        ]
        assert d.decode_all(d.encode_all(triples)) == triples


@given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_encoding_roundtrip_property(indices):
    d = Dictionary()
    triples = [
        Triple(uri("s%d" % i), uri("p%d" % (i % 3)), uri("o%d" % i))
        for i in indices
    ]
    assert d.decode_all(d.encode_all(triples)) == triples


class TestVolume:
    def test_repetitive_data_shrinks(self):
        triples = [
            Triple(uri("subject"), uri("predicate"), uri("object%d" % (i % 5)))
            for i in range(100)
        ]
        assert encoded_volume_ratio(triples) > 2.0

    def test_unique_data_shrinks_little(self):
        triples = [
            Triple(uri("s%d" % i), uri("p%d" % i), uri("o%d" % i))
            for i in range(20)
        ]
        ratio = encoded_volume_ratio(triples)
        assert 0.5 < ratio < 2.0

    def test_raw_volume_positive(self):
        assert raw_volume([Triple(uri("s"), uri("p"), Literal("x"))]) > 0

    def test_empty_ratio_is_one(self):
        assert encoded_volume_ratio([]) == 1.0


class TestNamespace:
    def test_attribute_minting(self):
        ns = Namespace("http://x/")
        assert ns.knows == URI("http://x/knows")
        assert ns["knows"] == ns.knows

    def test_private_attribute_not_minted(self):
        ns = Namespace("http://x/")
        with pytest.raises(AttributeError):
            ns._secret


class TestNamespaceManager:
    def test_expand(self):
        manager = NamespaceManager()
        manager.bind("ex", "http://x/")
        assert manager.expand("ex:alice") == URI("http://x/alice")

    def test_expand_unknown_prefix_raises(self):
        with pytest.raises(KeyError):
            NamespaceManager().expand("nope:x")

    def test_expand_requires_colon(self):
        with pytest.raises(ValueError):
            NamespaceManager().expand("plain")
