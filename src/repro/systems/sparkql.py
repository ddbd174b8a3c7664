"""Spar(k)ql [12]: SPARQL evaluation with vertex programs on GraphX.

Mechanics reproduced from Section IV-B1 of the paper:

* *Node model* -- object properties become graph **edges**; data
  properties (literal-valued) are stored **inside the nodes** as node
  properties.  ``rdf:type``, although an object property, is stored in
  the node properties too, "due to its popularity in SPARQL queries".
* *Sub-results in nodes* -- query answering keeps per-node tables keyed by
  query variables whose values are possible sub-results; nodes combine
  incoming messages with their stored information.
* *Query plan* -- a breadth-first search over the query's object
  properties builds a tree; execution traverses the plan bottom-up,
  iterating over the edges of each node to find matches.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Dict, List, Set, Tuple

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.vocab import RDF
from repro.spark.graphx import Edge, Graph
from repro.spark.rdd import RDD
from repro.sparql.ast import TriplePattern, Variable, variables_of
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import (
    EDGE,
    EngineProfile,
    SparkRdfEngine,
    compile_pattern,
    fold_joins,
    scan_triples,
)


class SparkqlEngine(SparkRdfEngine):
    """Node-property graph with a BFS query plan over object properties."""

    profile = EngineProfile(
        name="Spar(k)ql",
        citation="[12]",
        data_model=DataModel.GRAPH,
        abstractions=(SparkAbstraction.GRAPHX,),
        query_processing=QueryProcessing.GRAPH_ITERATIONS,
        optimization=Optimization.YES,
        partitioning=PartitioningStrategy.DEFAULT,
        sparql_features=frozenset({FEATURE_BGP}),
        contribution=Contribution.GRAPH_MATCHING,
        description=(
            "Data properties and rdf:type stored in nodes; BFS plan over "
            "object properties evaluated bottom-up with sub-result tables."
        ),
    )

    def _build(self, graph: RDFGraph) -> None:
        # Split object properties (edges) from data properties (node attrs).
        node_attrs: Dict[Term, Dict] = {}

        def attrs_of(term: Term) -> Dict:
            return node_attrs.setdefault(term, {"props": {}, "types": set()})

        edge_tuples: List[Tuple[Term, Term, Term]] = []
        self.data_properties: Set[Term] = set()
        for s, p, o in graph.canonical_order():
            attrs_of(s)
            if p == RDF.type:
                attrs_of(s)["types"].add(o)
            elif isinstance(o, Literal):
                attrs_of(s)["props"].setdefault(p, []).append(o)
                self.data_properties.add(p)
            else:
                attrs_of(o)
                edge_tuples.append((s, o, p))

        vertex_rdd = self.ctx.parallelize(sorted(node_attrs.items(), key=lambda kv: kv[0].sort_key()))
        edge_rdd = self.ctx.parallelize(
            [Edge(s, d, p) for s, d, p in edge_tuples]
        )
        self.graph = Graph(vertex_rdd, edge_rdd)
        self.object_properties: Set[Term] = {p for _s, _d, p in edge_tuples}
        # Full triple view, for variable-predicate fallbacks.
        self._all_triples = self.ctx.parallelize(
            graph.canonical_order()
        ).cache()

    # ------------------------------------------------------------------
    # Pattern classification
    # ------------------------------------------------------------------

    def _classify(
        self, patterns: List[TriplePattern]
    ) -> Tuple[Dict[str, List[TriplePattern]], List[TriplePattern], List[TriplePattern]]:
        """(node-local patterns per subject var, edge patterns, fallbacks).

        Node-local: rdf:type with a constant class, and data properties.
        Edge: constant object-property predicates.  Fallback: variable
        predicates or anything not expressible in the node model.
        """
        local: Dict[str, List[TriplePattern]] = {}
        edges: List[TriplePattern] = []
        fallback: List[TriplePattern] = []
        for pattern in patterns:
            predicate = pattern.predicate
            if isinstance(predicate, Variable) or not isinstance(
                pattern.subject, Variable
            ):
                fallback.append(pattern)
            elif (
                predicate in self.object_properties
                and predicate in self.data_properties
            ):
                # Mixed predicate: lives both as edges and node properties;
                # the node model cannot answer it alone.
                fallback.append(pattern)
            elif predicate == RDF.type and not isinstance(
                pattern.object, Variable
            ):
                local.setdefault(pattern.subject.name, []).append(pattern)
            elif (
                predicate != RDF.type
                and predicate not in self.object_properties
            ):
                # A data property (or a predicate absent from the data).
                local.setdefault(pattern.subject.name, []).append(pattern)
            elif predicate == RDF.type:
                fallback.append(pattern)  # ?s rdf:type ?t
            else:
                edges.append(pattern)
        return local, edges, fallback

    # ------------------------------------------------------------------
    # Node tables (the per-node sub-result tables)
    # ------------------------------------------------------------------

    def _node_table(
        self, var: str, constraints: List[TriplePattern]
    ) -> RDD:
        """Candidate rows for one entity variable from node properties."""

        def rows(part) -> List[dict]:
            out = []
            for vertex, attrs in part:
                bindings = [{var: vertex}]
                for pattern in constraints:
                    next_bindings: List[dict] = []
                    if pattern.predicate == RDF.type:
                        if pattern.object in attrs["types"]:
                            next_bindings = bindings
                    else:
                        values = attrs["props"].get(pattern.predicate, [])
                        for binding in bindings:
                            for value in values:
                                if isinstance(pattern.object, Variable):
                                    name = pattern.object.name
                                    if (
                                        name in binding
                                        and binding[name] != value
                                    ):
                                        continue
                                    extended = dict(binding)
                                    extended[name] = value
                                    next_bindings.append(extended)
                                elif pattern.object == value:
                                    next_bindings.append(binding)
                    bindings = next_bindings
                    if not bindings:
                        break
                out.extend(bindings)
            return out

        return self.graph.vertices.mapPartitions(rows)

    def _edge_bindings(self, pattern: TriplePattern) -> RDD:
        """Bindings contributed by one object-property pattern."""
        return self.graph.edges.mapPartitions(
            compile_pattern(pattern, EDGE).scan
        )

    # ------------------------------------------------------------------
    # BFS plan
    # ------------------------------------------------------------------

    @staticmethod
    def _bfs_order(
        edges: List[TriplePattern],
    ) -> List[TriplePattern]:
        """Order edge patterns by BFS over the variable connection graph."""
        if not edges:
            return []
        adjacency: Dict[str, List[int]] = {}
        for index, pattern in enumerate(edges):
            for position in (pattern.subject, pattern.object):
                if isinstance(position, Variable):
                    adjacency.setdefault(position.name, []).append(index)
        # Root: the variable touching the most edge patterns.
        root = max(adjacency, key=lambda name: (len(adjacency[name]), name))
        visited_edges: Set[int] = set()
        order: List[TriplePattern] = []
        queue = deque([root])
        seen_vars = {root}
        while queue:
            var = queue.popleft()
            for index in adjacency.get(var, []):
                if index in visited_edges:
                    continue
                visited_edges.add(index)
                order.append(edges[index])
                for position in (edges[index].subject, edges[index].object):
                    if (
                        isinstance(position, Variable)
                        and position.name not in seen_vars
                    ):
                        seen_vars.add(position.name)
                        queue.append(position.name)
        # Disconnected leftovers keep their input order.
        for index, pattern in enumerate(edges):
            if index not in visited_edges:
                order.append(pattern)
        return order

    # ------------------------------------------------------------------

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        local, edges, fallback = self._classify(list(patterns))

        def node_table(var: str):
            constraints = local.pop(var)
            names = {var} | {
                p.object.name
                for p in constraints
                if isinstance(p.object, Variable)
            }
            return names, partial(self._node_table, var, constraints)

        def steps():
            """(variable names, bindings to be) per join, in plan order."""
            for edge in self._bfs_order(edges):
                yield variables_of(edge), partial(self._edge_bindings, edge)
                # The node tables of the edge's ends, once each.
                for end in (edge.subject, edge.object):
                    if isinstance(end, Variable) and end.name in local:
                        yield node_table(end.name)
            # Entity variables with only node-local constraints.
            for var in sorted(local):
                yield node_table(var)
            # The full triple view, for what the node model cannot answer.
            for pattern in fallback:
                yield variables_of(pattern), partial(
                    scan_triples, self._all_triples, pattern
                )

        result = fold_joins(
            steps(), lambda step: step[1](), names=lambda step: step[0]
        )
        if result is None:
            return self.ctx.parallelize([{}], 1)
        return result
