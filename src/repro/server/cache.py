"""The service's two cache tiers: parsed plans and serialized results.

Both tiers key on *normalized* query text (:func:`normalize_query`), so
cosmetic differences -- whitespace, comments, trailing dots -- share one
entry, the way S2RDF's precomputed ExtVP tables let repeated query
shapes reuse work regardless of how the text was formatted.

* :class:`PlanCache` maps normalized text to the parsed
  :class:`~repro.sparql.ast.Query`.  Parsed queries are immutable in
  practice (the engines never mutate them), so sharing is safe; a hit
  skips tokenizing + parsing entirely.
* :class:`ResultCache` is a bounded LRU mapping
  ``(normalized text, graph version, engine name)`` to the *canonical
  serialized bytes* of the answer.  Storing bytes rather than live
  objects is what makes the byte-identity guarantee trivial: a hit
  returns exactly what the cold execution serialized.  The graph version
  in the key means a version bump can never serve stale answers even
  before :meth:`ResultCache.invalidate_below` actively drops the dead
  entries.

Determinism: both caches are plain ``OrderedDict`` structures driven
only by request order -- no clocks, no hashes beyond Python string
hashing (used only for lookup, never for iteration order).
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.sparql.ast import Query
from repro.sparql.tokenizer import IRI

_IRI_RE = re.compile(IRI)


def normalize_query(text: str) -> str:
    """Canonical form of a SPARQL query's text, for cache keying.

    Strips comments (``#`` to end of line, except inside IRIs, read where
    the tokenizer reads one, and string literals) and collapses every
    other whitespace run to a single space; whitespace inside a literal
    is content and survives byte-for-byte.  This is
    *textual* normalization only -- two semantically equal but
    differently written queries stay distinct keys, which is the
    conservative (never-wrong) choice.
    """
    out = []
    quote: Optional[str] = None
    pending_space = False
    i, n = 0, len(text)

    def emit(ch: str) -> None:
        nonlocal pending_space
        if pending_space:
            if out:
                out.append(" ")
            pending_space = False
        out.append(ch)

    while i < n:
        ch = text[i]
        if quote is not None:
            out.append(ch)
            if ch == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if ch == quote:
                quote = None
            i += 1
            continue
        iri = _IRI_RE.match(text, i) if ch == "<" else None
        if iri is not None:
            emit(iri.group())
            i = iri.end()
            continue
        if ch in ("'", '"'):
            quote = ch
            emit(ch)
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        elif ch.isspace():
            pending_space = True
        else:
            emit(ch)
        i += 1
    return "".join(out)


class PlanCache:
    """Bounded LRU of parsed queries keyed on normalized text.

    The service asks :meth:`lookup`, and hands a miss it has parsed to
    :meth:`put` once the request is admitted; it counts hits and misses
    itself, so the cache is reusable without a service.

    When the service runs with a cost-based optimizer, the statistics
    version joins the key: a plan cached under stale statistics must not
    be reused after a commit refreshes the catalog, since the (future)
    cached physical plan would embed a stale join order.  Today only the
    parsed AST is cached, but keying on ``stats_version`` now keeps the
    invariant simple and already-tested.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._plans: "OrderedDict[Tuple[int, str], Query]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def lookup(
        self, normalized: str, stats_version: int = 0
    ) -> Optional[Query]:
        """The cached plan, or None -- never parses, never inserts.

        The service's admission path uses this split so a query that
        lint rejects leaves the cache exactly as it found it (entries
        *and* LRU order matter: a lookup refreshes recency only on a
        hit, which a rejected request cannot produce for a plan that
        was never admitted).
        """
        key = (stats_version, normalized)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
        return plan

    def put(
        self, normalized: str, plan: Query, stats_version: int = 0
    ) -> None:
        """Insert one parsed plan, evicting LRU past capacity."""
        self._plans[(stats_version, normalized)] = plan
        self._plans.move_to_end((stats_version, normalized))
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)


#: A result-cache key: (normalized query text, graph version, engine name).
ResultKey = Tuple[str, int, str]


class ResultCache:
    """Bounded LRU of canonical result bytes, version-aware.

    Entries are the exact serialized bytes a cold execution produced
    (see :mod:`repro.server.protocol`); the graph version in the key
    guarantees freshness, and :meth:`invalidate_below` reclaims entries
    stranded by a version bump.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError("result cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[ResultKey, str]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ResultKey, metrics=None) -> Optional[str]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        if metrics is not None:
            hit = entry is not None
            metrics.incr("result_cache_hits" if hit else "result_cache_misses")
        return entry

    def put(self, key: ResultKey, payload: str, metrics=None) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            if metrics is not None:
                metrics.incr("result_cache_evictions")

    def invalidate_below(self, version: int, metrics=None) -> int:
        """Drop every entry for a graph version older than *version*.

        Returns the number of entries dropped (also reported to the
        collector as ``result_cache_invalidations``).
        """
        dead = [key for key in self._entries if key[1] < version]
        for key in dead:
            del self._entries[key]
        if metrics is not None and dead:
            metrics.incr("result_cache_invalidations", len(dead))
        return len(dead)
