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
from repro.partitioning.store import PartitionIndexes
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import BNode, Literal, Term, URI
from repro.rdf.vocab import RDF
from repro.spark.graphx import Edge, Graph
from repro.spark.metrics import Header
from repro.spark.rdd import RDD
from repro.spark.rows import rows
from repro.sparql.ast import TriplePattern, Variable, variables_of
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import (
    EDGE,
    EngineProfile,
    SparkRdfEngine,
    fold_joins,
    scan_triples,
)


def vertex_index(part: List[Tuple[Term, Dict]]) -> Tuple[Dict, Dict]:
    """A partition of vertices as ``(by_predicate, by_class)``: each data
    property, and each ``rdf:type`` class, to the positions in *part* of
    the vertices that carry it, in order."""
    by_predicate: Dict[Term, List[int]] = {}
    by_class: Dict[Term, List[int]] = {}
    for position, (_vertex, attrs) in enumerate(part):
        for predicate in attrs["props"]:
            by_predicate.setdefault(predicate, []).append(position)
        for cls in attrs["types"]:
            by_class.setdefault(cls, []).append(position)
    return by_predicate, by_class


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
        self._vertex_indexes = PartitionIndexes(vertex_index)
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
        """Candidate rows for one entity variable from node properties,
        over *var* and then each constraint's new object variable."""
        header, steps = [var], []
        for pattern in constraints:
            obj, predicate = pattern.object, pattern.predicate
            if predicate == RDF.type:
                test = "class"
            elif not isinstance(obj, Variable):
                test = "value"
            elif obj.name in header:
                test = "equal"  # the object is a variable bound before
            else:
                test = "new"
                header.append(obj.name)
            at = header.index(obj.name) if test == "equal" else None
            steps.append((test, predicate, at, obj))

        def rows_of(index: int, part) -> List[tuple]:
            by_predicate, by_class = indexes.of(index, part)
            # Every constraint needs its predicate (or class) on the
            # vertex: walk the fewest vertices one of them leaves.
            candidates = min(
                (
                    by_class.get(obj, ())
                    if test == "class"
                    else by_predicate.get(predicate, ())
                    for test, predicate, _at, obj in steps
                ),
                key=len,
            )
            # (position, row) for every candidate, one constraint at a
            # time: a row's expansions stay where the row was, so rows
            # come in vertex order, and per vertex in constraint order.
            found = [(p, (part[p][0],)) for p in candidates]
            for test, predicate, at, obj in steps:
                if test == "class":
                    found = [
                        (p, row)
                        for p, row in found
                        if obj in part[p][1]["types"]
                    ]
                    continue
                each = [
                    (p, row, value)
                    for p, row in found
                    for value in part[p][1]["props"].get(predicate, ())
                ]
                if test == "new":
                    found = [(p, row + (value,)) for p, row, value in each]
                elif test == "equal":
                    found = [(p, row) for p, row, v in each if row[at] == v]
                else:
                    found = [(p, row) for p, row, v in each if obj == v]
            return [row for _p, row in found]

        indexes = self._vertex_indexes
        return rows(
            self.graph.vertices.mapPartitionsWithIndex(rows_of),
            Header(header),
        )

    def _edge_bindings(self, pattern: TriplePattern) -> RDD:
        """Rows contributed by one object-property pattern."""
        return scan_triples(self.graph.edges, pattern, layout=EDGE)

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
            return self._empty_row()
        return result
