"""Hypothesis strategy shared by the write-path tests: random add/remove
scripts over a vocabulary small enough that edits collide, so removals
hit present triples and a predicate's or a subject's last triple does go
(and a script may bring a brand-new predicate in at any point)."""

from hypothesis import strategies as st

from repro.rdf.terms import URI
from repro.rdf.triple import Triple

EX = "http://example.org/"


def uri(name):
    return URI(EX + name)


edit_triples = st.builds(
    lambda s, p, o: Triple(uri("s%d" % s), uri("p%d" % p), uri("o%d" % o)),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 3),
)

#: (is_add, triple) steps, applied in order by :func:`apply_edits`.
edit_scripts = st.lists(st.tuples(st.booleans(), edit_triples), max_size=40)

#: As :data:`edit_triples`, but an object may be one of the subjects, so
#: subject-object joins (ExtVP's ``os`` and ``so`` pairs) occur too.
linked_triples = st.builds(
    lambda s, p, o: Triple(
        uri("s%d" % s), uri("p%d" % p), uri(("o%d", "s%d")[o % 2] % (o // 2))
    ),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 7),
)
linked_scripts = st.lists(st.tuples(st.booleans(), linked_triples), max_size=40)


def apply_edits(graph, script):
    for is_add, triple in script:
        (graph.add if is_add else graph.remove)(triple)
