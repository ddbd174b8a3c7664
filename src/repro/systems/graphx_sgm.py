"""Kassaie's SPARQL-over-GraphX subgraph matcher [16].

Mechanics reproduced from Section IV-B1 of the paper:

* Vertices carry (1) a label -- the subject/object value, (2) a **Match
  Track table (MT)** of variables and constants accumulated so far, and
  (3) a flag marking vertices at the end of a path of matched BGP triples.
  Edges carry the predicate as their label.
* The algorithm **iterates through the BGP triples**; each iteration runs
  GraphX's ``aggregateMessages``: ``sendMsg`` matches the current BGP
  triple against every graph edge and, on a hit, sends (partial) match
  rows toward the destination vertex; ``mergeMsg`` aggregates rows at
  their target; ``joinVertices`` folds the new rows into each vertex's MT
  table.
* After all BGP triples are processed, the **final MT tables of the end
  vertices are joined** to produce the query answer.

The BGP is first decomposed into subject-object chains ("paths"); each
chain is evaluated by the vertex program above, and the chains' MT tables
are joined with Spark operators at the end.
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
from repro.spark.graphx import Edge, EdgeContext, Graph
from repro.spark.rdd import RDD
from repro.sparql.ast import TriplePattern, Variable, connected_order
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import (
    EDGE,
    EngineProfile,
    SparkRdfEngine,
    compile_pattern,
    fold_joins,
)


def decompose_into_paths(
    patterns: List[TriplePattern],
) -> List[List[TriplePattern]]:
    """Greedy decomposition into subject-object chains.

    Each returned list is a sequence where the object variable of one
    pattern is the subject variable of the next.  Patterns that extend no
    chain become singleton paths (joined at the end on shared variables).
    """
    remaining = list(patterns)
    paths: List[List[TriplePattern]] = []
    while remaining:
        # Prefer a start whose subject is not produced by another pattern.
        objects = {
            p.object for p in remaining if isinstance(p.object, Variable)
        }
        start_index = next(
            (
                i
                for i, p in enumerate(remaining)
                if not (isinstance(p.subject, Variable) and p.subject in objects)
            ),
            0,
        )
        current = remaining.pop(start_index)
        path = [current]
        while True:
            tail = path[-1].object
            if not isinstance(tail, Variable):
                break
            next_index = next(
                (
                    i
                    for i, p in enumerate(remaining)
                    if p.subject == tail
                ),
                None,
            )
            if next_index is None:
                break
            path.append(remaining.pop(next_index))
        paths.append(path)
    return paths


class GraphXSubgraphEngine(SparkRdfEngine):
    """Subgraph matching via AggregateMessages and Match Track tables."""

    profile = EngineProfile(
        name="SPARQL-GraphX",
        citation="[16]",
        data_model=DataModel.GRAPH,
        abstractions=(SparkAbstraction.GRAPHX,),
        query_processing=QueryProcessing.GRAPH_ITERATIONS,
        optimization=Optimization.YES,
        partitioning=PartitioningStrategy.DEFAULT,
        sparql_features=frozenset({FEATURE_BGP}),
        contribution=Contribution.GRAPH_MATCHING,
        description=(
            "Per-BGP-triple aggregateMessages iterations building Match "
            "Track tables, joined at path ends."
        ),
    )

    def _build(self, graph: RDFGraph) -> None:
        # Vertex attribute: the MT table (a list of partial match rows).
        vertex_rdd = self.ctx.parallelize([(v, []) for v in graph.vertices()])
        edge_rdd = self.ctx.parallelize(
            [Edge(s, o, p) for s, p, o in graph.canonical_order()]
        )
        self.graph = Graph(vertex_rdd, edge_rdd)

    # ------------------------------------------------------------------

    def _evaluate_path(self, path: List[TriplePattern]) -> RDD:
        """One chain evaluated with per-pattern aggregateMessages rounds."""
        current = self.graph
        for step, pattern in enumerate(path):
            is_first = step == 0

            def send(
                ctx: EdgeContext,
                match=compile_pattern(pattern, EDGE),
                is_first=is_first,
            ):
                partials = (
                    [{}] if is_first else (ctx.src_attr or [])
                )
                if not partials:
                    return
                binding = match(ctx)
                if binding is None:
                    return
                for partial in partials:
                    if all(
                        partial.get(name, value) == value
                        for name, value in binding.items()
                    ):
                        ctx.send_to_dst([{**partial, **binding}])

            messages = current.aggregateMessages(send, lambda a, b: a + b)
            # joinVertices folds the fresh rows into each vertex's MT table;
            # vertices without messages reset (their track ended).
            current = current.mapVertices(lambda vid, attr: []).joinVertices(
                messages, lambda vid, attr, rows: rows
            )
        # End vertices' MT tables hold the chain's partial results.
        return current.vertices.flatMap(lambda va: va[1] or [])

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        paths = decompose_into_paths(list(patterns))
        # Join chains in a connectivity-friendly order, longest first.
        paths.sort(key=len, reverse=True)
        return fold_joins(connected_order(paths), self._evaluate_path)
