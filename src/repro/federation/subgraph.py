"""The local subgraph cache: paged CONSTRUCT harvesting + staleness.

The harvesting loop is the shaclAPI pattern (SNIPPETS.md snippet 2):
append ``LIMIT page_size OFFSET n`` to a CONSTRUCT query and keep
requesting pages until the result is drained.  Two properties make the
loop *exact* here rather than best-effort:

* the protocol's graph wire form is totally ordered and sliced after
  sorting (stable paging, ``repro.server.protocol``), so pages at a
  fixed remote version are disjoint and exhaustive;
* every page response carries the remote graph ``version``; a version
  change between pages aborts and restarts the harvest, so a harvest
  never stitches two graph versions together.

Harvested triples land in a local
:class:`~repro.evolution.versioned.VersionedGraph` -- each harvest or
refresh is a local commit, so the cache has its own inspectable history.
The cache is tagged with the remote version it reflects:
:meth:`Subgraph.is_stale` compares against the live remote version, a
remote commit therefore *invalidates* the cache, and
:meth:`Subgraph.refresh` re-runs every recorded harvest and commits the
delta locally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.defaults import DEFAULT_PAGE_SIZE
from repro.evolution.versioned import Delta, VersionedGraph
from repro.federation.endpoint import WireEndpoint
from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import parse_ntriples
from repro.server.protocol import canonical_result
from repro.spark.metrics import MetricsCollector
from repro.spark.tracing import Tracer
from repro.sparql.ast import ConstructQuery
from repro.sparql.parser import parse_sparql


class HarvestError(RuntimeError):
    """A harvest could not complete (rejected page, version churn...)."""


class StaleSubgraphError(HarvestError):
    """The remote committed since the last harvest; refresh() first."""


@dataclass(frozen=True)
class HarvestRecord:
    """Accounting for one completed harvest."""

    id: str
    text: str
    pages: int
    triples: int  # triples received over the wire
    new_triples: int  # triples not already in the local cache
    remote_version: int
    units: int  # remote service units billed across the pages

    def to_payload(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "pages": self.pages,
            "triples": self.triples,
            "new_triples": self.new_triples,
            "remote_version": self.remote_version,
            "units": self.units,
        }


class Subgraph:
    """A version-tagged local cache fed by paged CONSTRUCT harvests."""

    def __init__(
        self,
        endpoint: WireEndpoint,
        page_size: int = DEFAULT_PAGE_SIZE,
        tenant: str = "federation",
        deadline: Optional[int] = None,
        tracer=None,
        max_restarts: int = 2,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.endpoint = endpoint
        self.page_size = page_size
        self.tenant = tenant
        self.deadline = deadline
        self.tracer = tracer or Tracer(MetricsCollector())
        self.max_restarts = max_restarts
        #: Local history: version 0 empty, one commit per harvest/refresh.
        self.versions = VersionedGraph()
        #: The remote graph version the cache reflects (None before any
        #: harvest).
        self.remote_version: Optional[int] = None
        #: (id, text) of every completed harvest, for refresh().
        self.harvests: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Reading the cache
    # ------------------------------------------------------------------

    def head(self) -> RDFGraph:
        """The current local graph (shared; copy before mutating)."""
        return self.versions.head()

    def __len__(self) -> int:
        return len(self.versions.head())

    def query(self, text: str) -> Dict[str, Any]:
        """Evaluate locally; returns the canonical wire payload."""
        from repro.sparql.algebra import evaluate

        plan = parse_sparql(text)
        return canonical_result(evaluate(plan, self.head()), plan)

    def is_stale(self) -> bool:
        """Has the remote committed past the harvested version?

        One stats round trip; False before the first harvest (an empty
        cache cannot be stale, only unpopulated).
        """
        if self.remote_version is None:
            return False
        return self.endpoint.version != self.remote_version

    # ------------------------------------------------------------------
    # Harvesting
    # ------------------------------------------------------------------

    def harvest(self, text: str, id: str = "") -> HarvestRecord:
        """Page one CONSTRUCT query into the local cache.

        Raises :class:`StaleSubgraphError` when the remote has moved past
        the version earlier harvests were taken at -- mixing versions in
        one cache is exactly the inconsistency this class exists to
        prevent; call :meth:`refresh` first.
        """
        base = self._check_construct(text)
        name = id or "harvest%d" % len(self.harvests)
        with self.tracer.span("harvest", name=name) as span:
            record = self._harvest(base, name)
            if span is not None:
                span.attrs["pages"] = record.pages
                span.attrs["triples"] = record.triples
                span.attrs["remote_version"] = record.remote_version
        return record

    def _harvest(self, text: str, name: str) -> HarvestRecord:
        lines, version, pages, units = self._fetch(text, name)
        if self.remote_version is not None and version != self.remote_version:
            raise StaleSubgraphError(
                "remote is at version %d but the cache was harvested at "
                "%d; refresh() before harvesting more" % (
                    version, self.remote_version,
                )
            )
        harvested = parse_ntriples("\n".join(lines))
        additions = [
            t for t in harvested.to_list() if t not in self.versions.head()
        ]
        self.versions.commit(additions=additions)
        self.remote_version = version
        self.harvests.append((name, text))
        return HarvestRecord(
            id=name,
            text=text,
            pages=pages,
            triples=len(lines),
            new_triples=len(additions),
            remote_version=version,
            units=units,
        )

    def _fetch(
        self, text: str, name: str
    ) -> Tuple[List[str], int, int, int]:
        """The paging loop; restarts when the remote version moves."""
        last_error = "remote version changed %d time(s) mid-harvest" % (
            self.max_restarts + 1
        )
        for _restart in range(self.max_restarts + 1):
            lines: List[str] = []
            version: Optional[int] = None
            pages = 0
            units = 0
            offset = 0
            consistent = True
            while True:
                paged = "%s LIMIT %d OFFSET %d" % (
                    text, self.page_size, offset,
                )
                response = self.endpoint.query(
                    paged,
                    id="%s/page%d" % (name, pages),
                    tenant=self.tenant,
                    deadline=self.deadline,
                )
                if response.get("status") != "ok":
                    raise HarvestError(
                        "page %d of %s failed: %s%s"
                        % (
                            pages,
                            name,
                            response.get("status"),
                            (
                                ": " + response["error"]
                                if response.get("error")
                                else ""
                            ),
                        )
                    )
                pages += 1
                units += int(response.get("units", 0))
                if version is None:
                    version = int(response["version"])
                elif int(response["version"]) != version:
                    # The remote committed mid-harvest; these pages mix
                    # two graph versions -- throw them away and restart.
                    consistent = False
                    break
                payload = response["result"]
                if isinstance(payload, str):
                    payload = json.loads(payload)
                if payload.get("type") != "graph":
                    raise HarvestError(
                        "%s returned %r, not a graph"
                        % (name, payload.get("type"))
                    )
                lines.extend(payload["triples"])
                total = payload["page"]["total"]
                offset += self.page_size
                if offset >= total:
                    break
            if consistent:
                assert version is not None
                return lines, version, pages, units
        raise HarvestError("%s: %s" % (name, last_error))

    @staticmethod
    def _check_construct(text: str) -> str:
        plan = parse_sparql(text)
        if not isinstance(plan, ConstructQuery):
            raise ValueError("harvest queries must be CONSTRUCT queries")
        if plan.limit is not None or plan.offset:
            raise ValueError(
                "harvest queries must not carry LIMIT/OFFSET -- the "
                "harvester owns the paging"
            )
        return text.strip()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def refresh(self) -> Dict[str, Any]:
        """Re-run every recorded harvest if the remote moved.

        The new harvest set is committed as one local delta (additions
        *and* removals -- triples the remote dropped leave the cache), so
        the local history records exactly how the remote's evolution
        reached this cache.
        """
        if not self.is_stale():
            return {
                "refreshed": False,
                "remote_version": self.remote_version,
                "added": 0,
                "removed": 0,
                "pages": 0,
                "units": 0,
            }
        for _restart in range(self.max_restarts + 1):
            fresh = RDFGraph()
            versions: List[int] = []
            pages = 0
            units = 0
            for name, text in self.harvests:
                lines, version, fetched_pages, fetched_units = self._fetch(
                    text, name
                )
                versions.append(version)
                pages += fetched_pages
                units += fetched_units
                fresh.add_all(parse_ntriples("\n".join(lines)).to_list())
            if len(set(versions)) <= 1:
                delta = Delta.between(self.versions.head(), fresh)
                self.versions.commit(
                    additions=list(delta.added),
                    deletions=list(delta.removed),
                )
                self.remote_version = (
                    versions[0] if versions else self.endpoint.version
                )
                return {
                    "refreshed": True,
                    "remote_version": self.remote_version,
                    "added": len(delta.added),
                    "removed": len(delta.removed),
                    "pages": pages,
                    "units": units,
                }
        raise HarvestError(
            "refresh kept racing remote commits (%d attempt(s))"
            % (self.max_restarts + 1)
        )


def harvest_for_shapes(
    endpoint: WireEndpoint,
    shapes,
    page_size: int = DEFAULT_PAGE_SIZE,
    tenant: str = "federation",
    deadline: Optional[int] = None,
    tracer=None,
) -> Tuple[Subgraph, List[HarvestRecord]]:
    """Harvest exactly the triples validating *shapes* will touch."""
    from repro.shacl.compile import harvest_queries

    subgraph = Subgraph(
        endpoint,
        page_size=page_size,
        tenant=tenant,
        deadline=deadline,
        tracer=tracer,
    )
    records = [
        subgraph.harvest(compiled.text, id=compiled.id)
        for compiled in harvest_queries(shapes)
    ]
    return subgraph, records


def validate_remote_first(
    endpoint: WireEndpoint,
    shapes,
    page_size: int = DEFAULT_PAGE_SIZE,
    tenant: str = "federation",
    deadline: Optional[int] = None,
    tracer=None,
):
    """Harvest-then-validate: the report plus the populated subgraph.

    The report body is byte-identical to validating directly against the
    remote service -- the harvest queries cover every triple the
    compiled validation queries touch.
    """
    from repro.shacl.validator import LocalGraphExecutor, ShaclValidator

    subgraph, records = harvest_for_shapes(
        endpoint,
        shapes,
        page_size=page_size,
        tenant=tenant,
        deadline=deadline,
        tracer=tracer,
    )
    validator = ShaclValidator(
        LocalGraphExecutor(subgraph.head()), tracer=tracer
    )
    report = validator.validate(shapes)
    report.accounting["harvest"] = {
        "pages": sum(r.pages for r in records),
        "triples": len(subgraph),
        "remote_units": sum(r.units for r in records),
        "remote_version": subgraph.remote_version,
    }
    return report, subgraph
