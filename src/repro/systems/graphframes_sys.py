"""Bahrami, Gulati & Abulaish [4]: SPARQL over the GraphFrames API.

Mechanics reproduced from Section IV-B2 of the paper:

* The input dataset splits into a **nodelist** and an **edgelist** used to
  build an unweighted labeled graph (a GraphFrame of vertex and edge
  DataFrames).
* SPARQL queries become **query graphs** that are optimized before
  matching: sub-queries are sorted in **non-descending predicate
  frequency** order (rarest predicates first), then **local search space
  pruning** discards every triple whose predicate no BGP pattern mentions,
  yielding a much smaller temporary graph.
* The optimized query runs as **subgraph matching** -- here through the
  GraphFrames motif language -- over the pruned graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from repro.spark.column import col, lit
from repro.spark.dataframe import DataFrame
from repro.spark.graphframes import GraphFrame
from repro.spark.metrics import Header
from repro.spark.rdd import RDD
from repro.spark.rows import layout, rows
from repro.spark.sql.session import SparkSession
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import EngineProfile, SparkRdfEngine


class GraphFramesEngine(SparkRdfEngine):
    """Motif-based subgraph matching with frequency ordering and pruning."""

    profile = EngineProfile(
        name="GraphFrames-RDF",
        citation="[4]",
        data_model=DataModel.GRAPH,
        abstractions=(SparkAbstraction.GRAPHFRAMES,),
        query_processing=QueryProcessing.SUBGRAPH_MATCHING,
        optimization=Optimization.YES,
        partitioning=PartitioningStrategy.DEFAULT,
        sparql_features=frozenset({FEATURE_BGP}),
        contribution=Contribution.GRAPH_MATCHING,
        description=(
            "Nodelist/edgelist GraphFrame; predicate-frequency ordering and "
            "local search-space pruning before motif matching."
        ),
    )

    #: Set by the last query: edges surviving local search-space pruning.
    last_pruned_edge_count: Optional[int] = None

    def _build(self, graph: RDFGraph) -> None:
        self.session = SparkSession(self.ctx)
        vertices = self.session.createDataFrame(
            [(node,) for node in graph.vertices()], ["id"]
        )
        edges = self.session.createDataFrame(
            [(s, o, p) for s, p, o in graph.canonical_order()],
            ["src", "dst", "label"],
        )
        self.gframe = GraphFrame(vertices.cache(), edges.cache())
        self.predicate_frequency: Dict[Term, int] = graph.predicate_counts()
        self.total_edges = len(graph)

    # ------------------------------------------------------------------

    def _order_patterns(
        self, patterns: List[TriplePattern]
    ) -> List[TriplePattern]:
        """Non-descending predicate frequency (rarest first)."""

        def frequency(pattern: TriplePattern) -> int:
            if isinstance(pattern.predicate, Variable):
                return self.total_edges
            return self.predicate_frequency.get(pattern.predicate, 0)

        return sorted(patterns, key=frequency)

    def _pruned_graph(self, patterns: List[TriplePattern]) -> GraphFrame:
        """Local search-space pruning: drop edges of unmentioned predicates."""
        constants = [
            p.predicate
            for p in patterns
            if not isinstance(p.predicate, Variable)
        ]
        if len(constants) < len(patterns):
            # A variable predicate may match anything: no pruning possible.
            self.last_pruned_edge_count = self.total_edges
            return self.gframe
        labels = sorted(set(constants), key=lambda term: term.sort_key())
        pruned = self.gframe.filterEdges(col("label").isin(labels))
        self.last_pruned_edge_count = pruned.edges.count()
        return pruned

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        ordered = self._order_patterns(list(patterns))
        target = self._pruned_graph(ordered)

        # Map SPARQL variables/constants to motif vertex names.
        names: Dict[str, str] = {}
        constant_conditions: List[Tuple[str, Term]] = []
        equality_conditions: List[Tuple[str, str]] = []

        def vertex_name(position, fresh_hint: str) -> str:
            if isinstance(position, Variable):
                if position.name not in names:
                    names[position.name] = "v%d" % len(names)
                return names[position.name]
            fresh = "c%s" % fresh_hint
            constant_conditions.append((fresh, position))
            return fresh

        motif_terms: List[str] = []
        label_vars: Dict[str, str] = {}  # predicate variable -> first edge
        label_conditions: List[Tuple[str, Term]] = []
        for index, pattern in enumerate(ordered):
            src = vertex_name(pattern.subject, "s%d" % index)
            dst = vertex_name(pattern.object, "o%d" % index)
            if src == dst:
                # Self-loop on one variable: motif needs distinct names.
                alias = "%s_loop%d" % (src, index)
                equality_conditions.append((src, alias))
                dst = alias
            edge = "e%d" % index
            motif_terms.append("(%s)-[%s]->(%s)" % (src, edge, dst))
            if isinstance(pattern.predicate, Variable):
                name = pattern.predicate.name
                if name in label_vars:
                    equality_conditions.append(
                        ("%s.label" % label_vars[name], "%s.label" % edge)
                    )
                else:
                    label_vars[name] = edge
            else:
                label_conditions.append((edge, pattern.predicate))

        result = target.find("; ".join(motif_terms))
        for edge, predicate in label_conditions:
            result = result.where(col("%s.label" % edge) == lit(predicate))
        for name, term in constant_conditions:
            result = result.where(col("%s.id" % name) == lit(term))
        for left, right in equality_conditions:
            left_col = left if "." in left else "%s.id" % left
            right_col = right if "." in right else "%s.id" % right
            result = result.where(col(left_col) == col(right_col))

        columns = list(result.columns)
        var_columns: Dict[str, str] = {}
        for var_name, motif_name in names.items():
            var_columns[var_name] = "%s.id" % motif_name
        for var_name, edge in label_vars.items():
            var_columns[var_name] = "%s.label" % edge
        to_row = layout(columns, list(var_columns.values()))
        return rows(result.rdd.mapPartitions(to_row), Header(var_columns))
