"""Materialized-view catalog: selection, threshold semantics, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import URI
from repro.rdf.triple import Triple
from repro.stats.catalog import PAIR_KINDS, StatsCatalog
from repro.views import (
    DEFAULT_VIEW_THRESHOLD,
    ViewCatalog,
    materialize_view,
    view_name,
)

from tests.views.oracle import oracle_payload, oracle_view

EX = "http://x/"


def t(s, p, o):
    return Triple(URI(EX + s), URI(EX + p), URI(EX + o))


@pytest.fixture
def small_graph():
    # p1's partition has 4 triples; 2 share a subject with p2 => the ss
    # pair (p1, p2) has selectivity factor exactly 0.5.
    return RDFGraph(
        [
            t("a", "p1", "x"),
            t("b", "p1", "y"),
            t("c", "p1", "z"),
            t("d", "p1", "w"),
            t("a", "p2", "k"),
            t("b", "p2", "k"),
        ]
    )


class TestSelection:
    def test_selected_keys_match_stats_threshold(self, lubm_graph):
        stats = StatsCatalog.from_graph(lubm_graph)
        catalog = ViewCatalog.build(lubm_graph, stats, threshold=0.5)
        expected = sorted(
            key
            for key, factor in stats.pair_selectivity.items()
            if factor <= 0.5
        )
        assert sorted(catalog.views) == expected
        assert len(catalog) == len(expected) > 0

    def test_threshold_boundary_is_inclusive(self, small_graph):
        stats = StatsCatalog.from_graph(small_graph)
        key = ("ss", "<%sp1>" % EX, "<%sp2>" % EX)
        assert stats.pair_selectivity[key] == 0.5
        at_boundary = ViewCatalog.build(small_graph, stats, threshold=0.5)
        assert at_boundary.get(key) is not None, (
            "factor == threshold must materialize (inclusive boundary)"
        )
        below = ViewCatalog.build(small_graph, stats, threshold=0.499999)
        assert below.get(key) is None

    def test_view_contents_match_oracle(self, lubm_graph):
        catalog = ViewCatalog.build(lubm_graph, threshold=0.5)
        for view in catalog.sorted_views()[:25]:
            oracle = oracle_view(lubm_graph, view.key, view.factor)
            assert view.rows() == oracle.rows()

    def test_full_payload_matches_oracle(self, lubm_graph):
        stats = StatsCatalog.from_graph(lubm_graph)
        catalog = ViewCatalog.build(lubm_graph, stats, threshold=0.5)
        assert catalog.to_payload() == oracle_payload(lubm_graph, stats, 0.5)

    def test_factors_never_exceed_threshold(self, lubm_graph):
        catalog = ViewCatalog.build(lubm_graph, threshold=0.25)
        assert len(catalog) > 0
        for view in catalog.sorted_views():
            assert view.factor <= 0.25

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            ViewCatalog(threshold=1.5)
        with pytest.raises(ValueError):
            ViewCatalog(threshold=-0.1)

    def test_build_charges_cost_units(self, small_graph):
        catalog = ViewCatalog.build(small_graph, threshold=1.0)
        # Every selected view bills |A| + |B| triples.
        assert catalog.build_cost_units > 0


class TestDeterminism:
    def test_json_byte_identical_across_builds(self, lubm_graph):
        first = ViewCatalog.build(lubm_graph, threshold=0.5).to_json()
        second = ViewCatalog.build(lubm_graph, threshold=0.5).to_json()
        assert first == second

    def test_rows_sorted_by_n3(self, lubm_graph):
        catalog = ViewCatalog.build(lubm_graph, threshold=0.5)
        view = catalog.sorted_views()[0]
        rows = view.rows()
        keys = [(s.n3(), o.n3()) for s, o in rows]
        assert keys == sorted(keys)

    def test_summary_and_name(self, small_graph):
        catalog = ViewCatalog.build(small_graph, threshold=0.5)
        summary = catalog.summary()
        assert summary["views"] == len(catalog)
        assert summary["threshold"] == 0.5
        key = ("ss", "<%sp1>" % EX, "<%sp2>" % EX)
        assert view_name(key) == "extvp_ss(<%sp1>,<%sp2>)" % (EX, EX)
        assert catalog.get(key).name == view_name(key)

    def test_default_threshold_exported(self):
        assert 0.0 < DEFAULT_VIEW_THRESHOLD <= 1.0


# Small vocabularies, so views come out full, partial and empty; "p9"
# names a predicate no triple carries.
_NODES = ["a", "b", "c", "d"]
_PREDICATES = ["p1", "p2", "p3"]
_edges = st.lists(
    st.tuples(
        st.sampled_from(_NODES),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_NODES + ["x"]),
    ),
    max_size=18,
)
_keys = st.lists(
    st.tuples(
        st.sampled_from(PAIR_KINDS),
        st.sampled_from(_PREDICATES + ["p9"]),
        st.sampled_from(_PREDICATES + ["p9"]),
    ).map(lambda key: (key[0], "<%s%s>" % (EX, key[1]), "<%s%s>" % (EX, key[2]))),
    max_size=6,
)


@given(_edges, _keys, st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=80, deadline=None)
def test_build_matches_the_triple_by_triple_oracle(edges, keys, threshold):
    """Every kind, ``p1 == p2``, an absent ``p1`` or ``p2``, and empty
    reductions: the catalog the statistics select, plus the drawn keys
    (at factor 0, so every threshold selects them), builds to the
    oracle's payload, and so does each key built alone."""
    graph = RDFGraph([t(s, p, o) for s, p, o in edges])
    stats = StatsCatalog.from_graph(graph)
    for key in keys:
        stats.pair_selectivity[key] = 0.0
    catalog = ViewCatalog.build(graph, stats, threshold=threshold)
    assert catalog.to_payload() == oracle_payload(graph, stats, threshold)
    for key in keys:
        alone = materialize_view(graph, key, 0.0, version=3)
        assert alone.to_payload() == oracle_view(graph, key, 0.0, 3).to_payload()
