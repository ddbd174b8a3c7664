"""S2X [23]: graph-parallel SPARQL over GraphX plus data-parallel operators.

Mechanics reproduced from Section IV-B1 of the paper:

* RDF is modeled as a **property graph**: vertex properties hold the
  subject/object URI and a structure of candidate query variables; the
  edge property holds the predicate URI.
* *Matching* -- every triple pattern of the BGP is first matched
  independently against all edges (producing per-edge match candidates);
  every vertex then records the query variables it is a candidate for.
* *Validation* -- candidates are validated iteratively: a vertex stays a
  candidate for a variable only while, for every pattern containing that
  variable, some edge match survives in which the vertex plays that role
  and the adjacent vertex is still a candidate for its own variable.
  Invalidated candidates are discarded and the change propagates to the
  neighbours in the next superstep, "until they do not change anymore".
* *Assembly* -- the surviving per-pattern matches are joined with
  data-parallel Spark operators into final results; the remaining SPARQL
  operators (OPTIONAL, FILTER, ORDER BY, LIMIT...) also run on the Spark
  API (the shared driver in :mod:`repro.systems.base`).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.spark.graphx import Edge, Graph
from repro.spark.rdd import RDD
from repro.sparql.ast import TriplePattern, connected_order, variables_of
from repro.sparql.fragments import (
    FEATURE_BGP,
    FEATURE_FILTER,
    FEATURE_LIMIT,
    FEATURE_OFFSET,
    FEATURE_OPTIONAL,
    FEATURE_ORDER_BY,
)
from repro.systems.base import (
    EDGE,
    EngineProfile,
    SparkRdfEngine,
    compile_pattern,
    fold_joins,
)


class S2XEngine(SparkRdfEngine):
    """Graph-parallel BGP matching with iterative candidate validation."""

    profile = EngineProfile(
        name="S2X",
        citation="[23]",
        data_model=DataModel.GRAPH,
        abstractions=(SparkAbstraction.GRAPHX,),
        query_processing=QueryProcessing.GRAPH_ITERATIONS,
        optimization=Optimization.NO,
        partitioning=PartitioningStrategy.DEFAULT,
        sparql_features=frozenset(
            {
                FEATURE_BGP,
                FEATURE_OPTIONAL,
                FEATURE_FILTER,
                FEATURE_ORDER_BY,
                FEATURE_LIMIT,
                FEATURE_OFFSET,
            }
        ),
        contribution=Contribution.GRAPH_MATCHING,
        description=(
            "Property graph on GraphX; per-edge match candidates validated "
            "by neighbour message exchange to fixpoint."
        ),
    )

    #: Number of validation supersteps taken by the last BGP evaluation.
    last_validation_rounds: int = 0

    def __init__(self, ctx=None, validate: bool = True) -> None:
        super().__init__(ctx)
        #: Ablation switch: skip the iterative candidate validation and
        #: assemble raw edge matches directly.
        self.validate = validate

    def _build(self, graph: RDFGraph) -> None:
        vertex_rdd = self.ctx.parallelize(
            [(v, None) for v in graph.vertices()]
        )
        edge_rdd = self.ctx.parallelize(
            [Edge(s, o, p) for s, p, o in graph.canonical_order()]
        )
        self.graph = Graph(vertex_rdd, edge_rdd)

    # ------------------------------------------------------------------

    def _edge_matches(self, pattern: TriplePattern) -> RDD:
        """Per-edge candidate bindings for one triple pattern (graph side)."""
        return self.graph.triplets().mapPartitions(
            compile_pattern(pattern, EDGE).scan
        )

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        ordered = connected_order(patterns)
        matches: List[RDD] = [self._edge_matches(p).cache() for p in ordered]

        # Iterative validation: per-variable candidate sets shrink until
        # adjacent match sets agree (the paper's local/remote match
        # exchange, expressed as a broadcast semi-join fixpoint).
        var_patterns: Dict[str, List[int]] = {}
        for index, pattern in enumerate(ordered):
            for variable in pattern.variables():
                var_patterns.setdefault(variable.name, []).append(index)

        rounds = 0
        changed = self.validate
        while changed:
            rounds += 1
            changed = False
            candidates: Dict[str, Set[Term]] = {}
            for name, indices in var_patterns.items():
                sets = []
                for index in indices:
                    sets.append(
                        set(
                            matches[index]
                            .map(lambda b, n=name: b[n])
                            .distinct()
                            .collect()
                        )
                    )
                valid = set.intersection(*sets) if sets else set()
                candidates[name] = valid
            bcast = self.ctx.broadcast(candidates)
            for index in range(len(matches)):
                before = matches[index].count()
                filtered = matches[index].filter(
                    lambda b: all(
                        value in bcast.value[name]
                        for name, value in b.items()
                    )
                ).cache()
                after = filtered.count()
                if after != before:
                    changed = True
                matches[index] = filtered
            if rounds > len(ordered) + 2:
                break
        self.last_validation_rounds = rounds

        # Assembly with data-parallel joins.
        return fold_joins(
            range(len(ordered)),
            matches.__getitem__,
            names=lambda index: variables_of(ordered[index]),
        )
