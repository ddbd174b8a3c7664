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
from repro.sparql.ast import TriplePattern
from repro.sparql.fragments import ALL_FEATURES
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    compile_pattern,
    fold_join_order,
    join_binding_rdds,
    pattern_variables,
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
        self.triples = self.ctx.parallelize(
            [t.as_tuple() for t in sorted(graph)]
        )

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        ordered = fold_join_order(patterns)
        result: RDD = None
        bound_vars: set = set()
        for pattern in ordered:
            matches = self.triples.mapPartitions(
                lambda part, match=compile_pattern(pattern): [
                    b for t in part if (b := match(t)) is not None
                ]
            )
            if result is None:
                result = matches
                bound_vars = set(pattern_variables([pattern]))
            else:
                shared = sorted(
                    bound_vars & set(pattern_variables([pattern]))
                )
                result = join_binding_rdds(result, matches, shared)
                bound_vars |= set(pattern_variables([pattern]))
        return result
