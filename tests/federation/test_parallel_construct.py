"""CONSTRUCT pages are byte-identical under every executor backend.

The harvester never sees which backend served a page, so pages fetched
from an in-process endpoint must match byte-for-byte whether the remote
service executes partition tasks serially or across 1, 2, or 4 worker
processes -- otherwise a harvest could stitch together backend-flavored
pages and the differential validation property would be vacuous.
"""

import pytest

from repro.federation import Subgraph
from repro.server.protocol import canonical_json
from repro.server.service import QueryRequest, QueryService
from repro.spark.parallel import parallel_available

from tests.federation import pair_endpoint

pytestmark = pytest.mark.skipif(
    not parallel_available(),
    reason="parallel backend needs the fork start method",
)

LUBM = "http://repro.example.org/lubm#"
HARVEST = (
    "CONSTRUCT { ?s <%(l)sadvisor> ?o } WHERE { ?s <%(l)sadvisor> ?o }"
    % {"l": LUBM}
)
WORKERS = (1, 2, 4)


def _page_bytes(service) -> list:
    pages = []
    for offset in (0, 4, 8):
        outcome = service.submit(
            QueryRequest(
                text="%s LIMIT 4 OFFSET %d" % (HARVEST, offset),
                tenant="t",
                id="page@%d" % offset,
            )
        )
        assert outcome.status == "ok"
        pages.append(outcome.payload)
    return pages


class TestBackendIdentity:
    def test_pages_identical_across_worker_counts(self, lubm_graph):
        baseline = _page_bytes(QueryService(lubm_graph.copy()))
        for workers in WORKERS:
            pages = _page_bytes(
                QueryService(
                    lubm_graph.copy(), backend="parallel", workers=workers
                )
            )
            assert pages == baseline, "workers=%d diverged" % workers

    def test_harvest_identical_across_backends(self, lubm_graph):
        def harvested(**service_kwargs):
            endpoint = pair_endpoint(lubm_graph.copy(), **service_kwargs)
            subgraph = Subgraph(endpoint, page_size=5)
            subgraph.harvest(HARVEST)
            return canonical_json(subgraph.query(HARVEST))

        baseline = harvested()
        assert (
            harvested(backend="parallel", workers=2) == baseline
        )
