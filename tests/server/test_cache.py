"""Plan/result cache tiers and query-text normalization."""

import pytest

from repro.server.cache import PlanCache, ResultCache, normalize_query
from repro.spark.metrics import MetricsCollector
from repro.sparql.parser import parse_sparql


class TestNormalizeQuery:
    def test_collapses_whitespace(self):
        assert (
            normalize_query("SELECT  ?s\n\tWHERE   { ?s ?p ?o }")
            == "SELECT ?s WHERE { ?s ?p ?o }"
        )

    def test_strips_comments(self):
        text = "SELECT ?s # pick everything\nWHERE { ?s ?p ?o } # done"
        assert normalize_query(text) == "SELECT ?s WHERE { ?s ?p ?o }"

    def test_hash_inside_iri_is_not_a_comment(self):
        text = "SELECT ?s WHERE { ?s <http://x/ns#type> ?o }"
        assert normalize_query(text) == text

    def test_hash_inside_string_literal_survives(self):
        text = 'SELECT ?s WHERE { ?s ?p "a # b" }'
        assert normalize_query(text) == text

    def test_whitespace_inside_string_literal_survives(self):
        """Regression: literal content must stay byte-for-byte intact."""
        text = 'SELECT ?s WHERE { ?s ?p "a  b\tc" }'
        assert normalize_query(text) == text

    def test_collapse_is_quote_aware(self):
        text = 'SELECT  ?s\nWHERE { ?s ?p "a  b"  .\n ?s ?q \'x  y\' }'
        assert (
            normalize_query(text)
            == "SELECT ?s WHERE { ?s ?p \"a  b\" . ?s ?q 'x  y' }"
        )

    def test_a_less_than_comparison_opens_no_iri(self):
        """Regression: ``<`` in a FILTER was read as an IRI up to the
        comment's ``>``, so the comment ate the closing brace."""
        text = "SELECT ?a WHERE { ?a <http://x/p> ?b FILTER (?b < 5) # b > 1\n }"
        normalized = normalize_query(text)
        assert normalized == (
            "SELECT ?a WHERE { ?a <http://x/p> ?b FILTER (?b < 5) }"
        )
        assert parse_sparql(normalized) == parse_sparql(text)

    def test_equivalent_texts_share_a_key(self):
        a = "SELECT ?s WHERE { ?s ?p ?o }"
        b = "SELECT ?s  WHERE {\n  ?s ?p ?o\n}  # trailing comment"
        assert normalize_query(a) == normalize_query(b)


class TestPlanCache:
    def test_hit_returns_same_object(self):
        cache = PlanCache(4)
        text = normalize_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert cache.lookup(text) is None
        plan = parse_sparql(text)
        cache.put(text, plan)
        assert cache.lookup(text) is plan

    def test_lru_eviction(self):
        cache = PlanCache(2)
        texts = [
            "SELECT ?s WHERE { ?s <http://x/p%d> ?o }" % i for i in range(3)
        ]
        for text in texts:
            text = normalize_query(text)
            cache.put(text, parse_sparql(text))
        assert len(cache) == 2
        # Oldest entry evicted: re-fetch is a miss.
        assert cache.lookup(normalize_query(texts[0])) is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(0)


class TestResultCache:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(4)
        metrics = MetricsCollector()
        key = ("q", 0, "SPARQLGX")
        assert cache.get(key, metrics) is None
        cache.put(key, '{"rows":[]}', metrics)
        assert cache.get(key, metrics) == '{"rows":[]}'
        assert metrics.get("result_cache_misses") == 1
        assert metrics.get("result_cache_hits") == 1

    def test_lru_eviction_counts(self):
        cache = ResultCache(2)
        metrics = MetricsCollector()
        for i in range(3):
            cache.put(("q%d" % i, 0, "E"), "r%d" % i, metrics)
        assert len(cache) == 2
        assert metrics.get("result_cache_evictions") == 1
        assert cache.get(("q0", 0, "E")) is None
        assert cache.get(("q2", 0, "E")) == "r2"

    def test_version_bump_invalidates_old_entries_only(self):
        cache = ResultCache(8)
        metrics = MetricsCollector()
        cache.put(("q", 0, "E"), "old")
        cache.put(("p", 0, "E"), "old2")
        cache.put(("q", 1, "E"), "new")
        dropped = cache.invalidate_below(1, metrics)
        assert dropped == 2
        assert metrics.get("result_cache_invalidations") == 2
        assert cache.get(("q", 0, "E")) is None
        assert cache.get(("q", 1, "E")) == "new"

    def test_stale_version_never_hits_even_before_purge(self):
        cache = ResultCache(8)
        cache.put(("q", 0, "E"), "old")
        # Key carries the version: a bumped reader simply misses.
        assert cache.get(("q", 1, "E")) is None
