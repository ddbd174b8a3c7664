"""Tests for RDF terms: URIs, literals, blank nodes, ordering."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.vocab import XSD


class TestURI:
    def test_n3(self):
        assert URI("http://example.org/a").n3() == "<http://example.org/a>"

    def test_equality_and_hash(self):
        assert URI("http://x/a") == URI("http://x/a")
        assert URI("http://x/a") != URI("http://x/b")
        assert len({URI("http://x/a"), URI("http://x/a")}) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            URI("")

    def test_immutable(self):
        uri = URI("http://x/a")
        with pytest.raises(AttributeError):
            uri.value = "other"

    def test_local_name(self):
        assert URI("http://x/path#frag").local_name() == "frag"
        assert URI("http://x/path/leaf").local_name() == "leaf"
        assert URI("plain").local_name() == "plain"


class TestBNode:
    def test_explicit_label(self):
        assert BNode("b1").n3() == "_:b1"

    def test_fresh_labels_unique(self):
        assert BNode() != BNode()

    def test_equality_by_label(self):
        assert BNode("x") == BNode("x")


class TestLiteral:
    def test_plain_string(self):
        literal = Literal("hello")
        assert literal.n3() == '"hello"'
        assert literal.datatype is None

    def test_escaping(self):
        literal = Literal('say "hi"\nnow')
        assert literal.n3() == '"say \\"hi\\"\\nnow"'

    def test_integer_autotyped(self):
        literal = Literal(42)
        assert literal.lexical == "42"
        assert literal.datatype == XSD.integer
        assert literal.to_python() == 42

    def test_float_autotyped(self):
        assert Literal(2.5).to_python() == 2.5

    def test_bool_autotyped(self):
        literal = Literal(True)
        assert literal.lexical == "true"
        assert literal.to_python() is True

    def test_language_tag(self):
        literal = Literal("bonjour", language="fr")
        assert literal.n3() == '"bonjour"@fr'

    def test_datatype_and_language_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD.string, language="en")

    def test_typed_n3(self):
        assert Literal(7).n3().endswith("XMLSchema#integer>")

    def test_equality_considers_datatype(self):
        assert Literal("5") != Literal(5)
        assert Literal(5) == Literal(5)


class TestOrdering:
    def test_kind_order_bnode_uri_literal(self):
        bnode, uri, literal = BNode("a"), URI("http://x/a"), Literal("a")
        assert sorted([literal, uri, bnode]) == [bnode, uri, literal]

    def test_numeric_literals_sort_numerically(self):
        assert Literal(2) < Literal(10)

    def test_strings_sort_lexically(self):
        assert Literal("apple") < Literal("banana")

    def test_numbers_sort_before_strings(self):
        assert Literal(999) < Literal("a")

    def test_uris_sort_by_value(self):
        assert URI("http://a") < URI("http://b")

    def test_comparison_with_non_term(self):
        assert URI("http://a").__lt__(42) is NotImplemented

    def test_nan_sorts_after_every_number_in_any_input_order(self):
        # float("nan") compares with nothing: a key holding it would
        # leave a sort in its input order.
        doubles = [
            Literal(text, datatype=XSD.double)
            for text in ("2", "NaN", "1", "INF", "-INF")
        ]
        want = ["-INF", "1", "2", "INF", "NaN"]
        for order in (doubles, doubles[::-1], doubles[2:] + doubles[:2]):
            assert [t.lexical for t in sorted(order)] == want
        nan = Literal("NaN", datatype=XSD.double)
        assert nan.sort_key() == Literal("NaN", datatype=XSD.float).sort_key()
        assert nan.sort_key() < Literal("a").sort_key()

    @given(
        st.lists(
            st.one_of(
                st.builds(
                    Literal,
                    st.sampled_from(["abc", "1x", "", "NaN", "9" * 400]),
                    datatype=st.sampled_from(
                        [XSD.int, XSD.integer, XSD.double]
                    ),
                ),
                st.builds(Literal, st.integers(-(2**60), 2**60)),
                st.builds(Literal, st.floats()),
                st.builds(Literal, st.sampled_from(["abc", "1", ""])),
            ),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_any_two_keys_compare_and_a_sort_is_order_free(self, terms, rng):
        """Ill-typed, 400-digit, NaN and beyond-2^53 numerics: no key
        raises or fails to compare, so sorting by (key, N3 text) -- the
        SPARQLGX store's order -- does not depend on the input order."""
        keys = [term.sort_key() for term in terms]
        for a in keys:
            for b in keys:
                assert (a < b) + (a == b) + (a > b) == 1
        shuffled = list(terms)
        rng.shuffle(shuffled)
        by_key = lambda term: (term.sort_key(), term.n3())
        assert sorted(shuffled, key=by_key) == sorted(terms, key=by_key)

    def test_integers_past_2_to_the_53_keep_their_order(self):
        big = 2**53
        assert Literal(big) < Literal(big + 1)
        assert Literal(1).sort_key() == Literal(1.0).sort_key()


# Text that exercises str hashing beyond ASCII, and the empty literal.
texts = st.text(max_size=12)
names = st.text(alphabet="abcXYZ019_", min_size=1, max_size=12)
literals = st.one_of(
    st.builds(Literal, texts),
    st.builds(Literal, texts, language=st.sampled_from(["en", "fr-CA"])),
    st.builds(Literal, texts, datatype=st.builds(URI, names)),
    st.builds(Literal, st.one_of(st.integers(), st.booleans())),
)


class TestCachedHash:
    """A term hashes once; the value is the tagged-tuple formula terms
    always had, so no set or dict anywhere iterates differently."""

    @given(name=names)
    def test_uri_and_bnode_keep_the_tuple_formula(self, name):
        assert hash(URI(name)) == hash(("URI", name))
        assert hash(BNode(name)) == hash(("BNode", name))

    @given(literal=literals)
    def test_literal_keeps_the_tuple_formula(self, literal):
        assert hash(literal) == hash(
            ("Literal", literal.lexical, literal.datatype, literal.language)
        )

    @given(term=st.one_of(st.builds(URI, names), st.builds(BNode, names), literals))
    def test_hash_is_stable_and_survives_the_pipe(self, term):
        first = hash(term)  # a hashed term, so a cache exists to leak
        assert hash(term) == first
        copy = pickle.loads(pickle.dumps(term, pickle.HIGHEST_PROTOCOL))
        assert copy._hash is None
        assert copy == term and hash(copy) == first

    def test_pickle_does_not_carry_the_cache(self):
        term = URI("http://x/a")
        cold = pickle.dumps(term)
        hash(term)
        assert pickle.dumps(term) == cold

    def test_cache_slot_is_not_writable(self):
        with pytest.raises(AttributeError):
            URI("http://x/a")._hash = 7


def fresh_n3(term):
    """The N3 text of *term*, rendered here, as ``n3()`` did before a term
    kept its text: the oracle of :class:`TestRememberedN3`."""
    if isinstance(term, URI):
        return "<%s>" % term.value
    if isinstance(term, BNode):
        return "_:%s" % term.label
    escaped = (
        term.lexical.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    if term.language:
        return '"%s"@%s' % (escaped, term.language)
    if term.datatype:
        return '"%s"^^%s' % (escaped, fresh_n3(term.datatype))
    return '"%s"' % escaped


#: Quotes, backslashes, control characters, U+2028 and non-ASCII text.
awkward = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from('\\"\n\r\t\x00\x7f\u2028é日\U0001d11e'),
    ),
    max_size=16,
)
any_term = st.one_of(
    st.builds(URI, awkward.filter(bool)),
    st.builds(BNode, names),
    st.builds(Literal, awkward),
    st.builds(Literal, awkward, language=st.sampled_from(["en", "fr-CA"])),
    st.builds(Literal, awkward, datatype=st.builds(URI, awkward.filter(bool))),
    st.builds(Literal, st.one_of(st.integers(), st.booleans(), st.floats())),
)


class TestRememberedN3:
    """A term renders its N3 text once and keeps it (``_n3``), like its
    hash: the kept text is the text a fresh rendering gives, and the
    worker pipe does not carry it."""

    @given(term=any_term)
    def test_kept_text_is_the_fresh_rendering(self, term):
        assert term._n3 is None
        text = term.n3()
        assert text == fresh_n3(term) == term._n3
        assert term.n3() is text

    @given(term=any_term)
    def test_equal_after_a_pickle_round_trip(self, term):
        bare = pickle.dumps(term)
        text = term.n3()
        assert pickle.dumps(term) == bare
        copy = pickle.loads(pickle.dumps(term, pickle.HIGHEST_PROTOCOL))
        assert copy._n3 is None
        assert copy.n3() == text == fresh_n3(copy)

    def test_memo_slot_is_not_writable(self):
        with pytest.raises(AttributeError):
            URI("http://x/a")._n3 = "<http://x/b>"
