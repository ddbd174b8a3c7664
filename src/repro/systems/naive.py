"""The naive baseline: unpartitioned full scans and shuffle joins.

Not a surveyed system -- the strawman every surveyed system improves on.
Triples live in one RDD with default (round-robin) placement; every triple
pattern scans the whole dataset; every join shuffles.  The paper's cost
arguments are all relative to this behaviour.
"""

from __future__ import annotations

from typing import List

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.rdf.graph import RDFGraph
from repro.spark.rdd import RDD
from repro.sparql.ast import TriplePattern, connected_order
from repro.sparql.fragments import ALL_FEATURES
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    fold_joins,
    scan_triples,
)


class NaiveEngine(SparkRdfEngine):
    """Full-scan reference engine (also the correctness oracle's twin)."""

    profile = EngineProfile(
        name="Naive",
        citation="baseline",
        data_model=DataModel.TRIPLE,
        abstractions=(SparkAbstraction.RDD,),
        query_processing=QueryProcessing.RDD_API,
        optimization=Optimization.NO,
        partitioning=PartitioningStrategy.DEFAULT,
        sparql_features=frozenset(ALL_FEATURES),
        contribution=Contribution.ALL_QUERY_TYPES,
        description="Unpartitioned full-scan baseline (not in the survey).",
    )

    def _build(self, graph: RDFGraph) -> None:
        # Deliberately uncached: the baseline has no storage scheme, so
        # every triple pattern re-reads the whole source -- the behaviour
        # Section IV-A3 ascribes to plain RDD evaluation ("RDDs always
        # read the entire data set for each triple pattern").
        self.triples = self.ctx.parallelize(graph.canonical_order())

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        return fold_joins(
            connected_order(patterns),
            lambda pattern: scan_triples(self.triples, pattern),
        )
