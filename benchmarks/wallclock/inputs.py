"""Seeded inputs: data, query texts, request streams, change sets.

``--seed`` drives everything the program sees that *may* vary without
changing what a run costs: the data generator's values, the order of
requests inside an epoch, and which triples each commit touches.  The
same seed gives byte-identical inputs; another seed gives other bytes.

What the seed does **not** drive is the cost profile.  The driver
compares runs across seeds, so the query texts and how often each is
asked are pinned: ``build_shape_workload`` draws them once, with
``POOL_SEED``, from a small reference graph -- its draw over a seeded
graph picks stars that cost 4 ms on one seed and 180 ms on the next.
"""

import json
import random

from repro.data.lubm import LubmGenerator
from repro.rdf.triple import Triple
from repro.server.loadgen import build_shape_workload

#: Pins the query draw (see the module docstring).
POOL_SEED = 42
#: LUBM scale of the reference graph the query texts are drawn from.
POOL_SCALE = 2
#: The four BGP shapes of the survey's query taxonomy.
SHAPES = ("star", "linear", "snowflake", "complex")

#: How often each pool rank is asked in one ``serve_mixed`` epoch:
#: roughly 1/rank, 40 requests over 14 distinct queries, so exactly 26
#: of 40 (65 %) are result-cache hits and the median request is a hit.
EPOCH_COUNTS = (9, 5, 4, 3, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1)
#: Triples deleted, and triples added, by each commit.
CHANGE_SIZE = 20


def generate_graph(scale, seed):
    """A LUBM graph of *scale* universities with *seed*'s values."""
    return LubmGenerator(num_universities=scale, seed=seed).generate()


def _pool(per_shape):
    reference = generate_graph(POOL_SCALE, POOL_SEED)
    return build_shape_workload(reference, per_shape=per_shape, seed=POOL_SEED)


def shape_queries():
    """``{shape: SPARQL text}``, one query per shape in :data:`SHAPES`."""
    by_name = dict(_pool(1))
    return {shape: by_name[shape + "0"] for shape in SHAPES}


def serve_pool():
    """The ``serve_mixed`` pool, hottest first: ``[(name, text), ...]``.

    Distinct texts of the ``per_shape=6`` draw, taken shape by shape in
    turn (single, star, linear, snowflake, complex, single, ...) so the
    hot ranks mix shapes; one entry per :data:`EPOCH_COUNTS` rank.
    """
    by_shape = {}
    seen = set()
    for name, text in _pool(6):
        if text not in seen:
            seen.add(text)
            by_shape.setdefault(name.rstrip("0123456789"), []).append((name, text))
    pool = []
    while len(pool) < len(EPOCH_COUNTS):
        for entries in by_shape.values():
            if entries and len(pool) < len(EPOCH_COUNTS):
                pool.append(entries.pop(0))
    return pool


def epoch_requests(seed, epoch, pool):
    """One epoch's request lines: ``[(pool index, JSON line), ...]``.

    The multiset is fixed by :data:`EPOCH_COUNTS`; the seed shuffles it.
    """
    indexes = [i for i, count in enumerate(EPOCH_COUNTS) for _ in range(count)]
    random.Random("%d:requests:%d" % (seed, epoch)).shuffle(indexes)
    return [
        (
            index,
            json.dumps(
                {
                    "op": "query",
                    "id": "e%d-r%d" % (epoch, position),
                    "query": pool[index][1],
                }
            ),
        )
        for position, index in enumerate(indexes)
    ]


class ChangeSets:
    """Seeded change sets over one base graph, addressed by epoch."""

    def __init__(self, graph, seed):
        self._deck = sorted(graph)
        random.Random("%d:changes" % seed).shuffle(self._deck)

    def change(self, epoch):
        """``(additions, deletions)`` of *epoch*, as lists of triples.

        Deletions walk the shuffled deck from the front; each addition
        grafts a deleted triple's predicate and object onto a subject
        taken from the back, so commits touch the predicates queries
        read.
        """
        deck = self._deck
        size = len(deck)
        deletions = [
            deck[(epoch * CHANGE_SIZE + i) % size] for i in range(CHANGE_SIZE)
        ]
        additions = [
            Triple(
                deck[-1 - (epoch * CHANGE_SIZE + i) % size].subject,
                doomed.predicate,
                doomed.object,
            )
            for i, doomed in enumerate(deletions)
        ]
        return additions, deletions

    def commit_line(self, epoch):
        """The wire ``commit`` request of *epoch*."""
        additions, deletions = self.change(epoch)
        return json.dumps(
            {
                "op": "commit",
                "id": "e%d-commit" % epoch,
                "additions": [t.n3() for t in additions],
                "deletions": [t.n3() for t in deletions],
            }
        )
