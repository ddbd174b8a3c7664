"""SparkRDF [5]: elastic semantic-subgraph processing with MESG indexes.

Mechanics reproduced from Section IV-B3 of the paper:

* **MESG** (Multi-layer Elastic Sub-Graph) storage with three index
  levels: (1) a *class index* for ``rdf:type`` triples (files named by the
  class) and a *relation index* for the rest (files named by the
  predicate); (2) **CR** (class-relation) and **RC** (relation-class)
  indexes dividing each predicate file by the class of its subjects /
  objects; (3) **CRC** (class-relation-class) combining every part of the
  triple.
* **RDSG** (Resilient Discreted Semantic SubGraph): the distributed
  in-memory abstraction with generate / filter / prepartition / join
  operations, built on the Spark API.
* *Query processing*: the query decomposes into an ordered sequence of
  variables; per variable, its triple patterns are matched and joined on
  the shared variable.
* *Optimizations*: each variable's class (from ``rdf:type`` patterns) is
  passed to the triple patterns containing the variable, letting the
  engine read the narrow CR/RC/CRC files instead of whole relations and
  **remove the rdf:type patterns**; on-demand **dynamic pre-partitioning**
  places records sharing a join-variable value in the same partition, so
  the distributed joins shuffle (almost) nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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
from repro.rdf.vocab import RDF
from repro.spark.metrics import Header
from repro.spark.partitioner import stable_hash
from repro.spark.rdd import RDD
from repro.spark.rows import join_rows, rows
from repro.sparql.ast import TriplePattern, Variable, variables_of
from repro.sparql.fragments import FEATURE_BGP
from repro.systems.base import (
    EngineProfile,
    SparkRdfEngine,
    compile_pattern,
    fold_joins,
)


def _by_name(index: Dict[Term, list]) -> List[Tuple[Term, list]]:
    """An index level's files, in the sort-key order of their names."""
    return sorted(index.items(), key=lambda kv: kv[0].sort_key())


class SparkRdfMesgEngine(SparkRdfEngine):
    """MESG-indexed store with class pruning and dynamic pre-partitioning."""

    profile = EngineProfile(
        name="SparkRDF",
        citation="[5]",
        data_model=DataModel.GRAPH,
        abstractions=(SparkAbstraction.RDD,),
        query_processing=QueryProcessing.CUSTOM,
        optimization=Optimization.YES,
        partitioning=PartitioningStrategy.HASH_SUBJECT,
        sparql_features=frozenset({FEATURE_BGP}),
        contribution=Contribution.STORAGE_INDEXING,
        description=(
            "Three-level MESG index (class/relation, CR/RC, CRC) with "
            "rdf:type elimination and pre-partitioned RDSG joins."
        ),
    )

    #: Records read from each index level by the last query.
    last_index_reads: Dict[str, int]

    def _build(self, graph: RDFGraph) -> None:
        self.last_index_reads = {}
        #: subject -> classes (a subject may have several types)
        self.classes_of: Dict[Term, Set[Term]] = {}
        #: class -> member subjects (level 1 class index)
        self.class_index: Dict[Term, List[Term]] = {}
        #: predicate -> [(s, o)] (level 1 relation index)
        self.relation_index: Dict[Term, List[Tuple[Term, Term]]] = {}
        #: (subject class, predicate) -> [(s, o)] (level 2 CR)
        self.cr_index: Dict[Tuple[Term, Term], List[Tuple[Term, Term]]] = {}
        #: (predicate, object class) -> [(s, o)] (level 2 RC)
        self.rc_index: Dict[Tuple[Term, Term], List[Tuple[Term, Term]]] = {}
        #: (subject class, predicate, object class) -> [(s, o)] (level 3 CRC)
        self.crc_index: Dict[
            Tuple[Term, Term, Term], List[Tuple[Term, Term]]
        ] = {}

        for triple in graph.triples((None, RDF.type, None)):
            self.classes_of.setdefault(triple.subject, set()).add(triple.object)
            self.class_index.setdefault(triple.object, []).append(
                triple.subject
            )

        for subject, predicate, obj in graph.canonical_order():
            if predicate == RDF.type:
                continue
            pair = (subject, obj)
            self.relation_index.setdefault(predicate, []).append(pair)
            subject_classes = self.classes_of.get(subject, set())
            object_classes = self.classes_of.get(obj, set())
            for s_class in subject_classes:
                self.cr_index.setdefault((s_class, predicate), []).append(pair)
                for o_class in object_classes:
                    self.crc_index.setdefault(
                        (s_class, predicate, o_class), []
                    ).append(pair)
            for o_class in object_classes:
                self.rc_index.setdefault((predicate, o_class), []).append(pair)
        self._num_partitions = self.ctx.default_parallelism

    # ------------------------------------------------------------------
    # Class-message extraction (the rdf:type elimination optimization)
    # ------------------------------------------------------------------

    @staticmethod
    def _class_constraints(
        patterns: Sequence[TriplePattern],
    ) -> Tuple[Dict[str, Set[Term]], List[TriplePattern]]:
        """(variable -> required classes, patterns with rdf:type removed).

        A type pattern is removed only when its class is constant and the
        variable occurs in some other pattern (otherwise it must be
        evaluated from the class index itself).
        """
        constraints: Dict[str, Set[Term]] = {}
        removable: List[TriplePattern] = []
        for pattern in patterns:
            if (
                pattern.predicate == RDF.type
                and isinstance(pattern.subject, Variable)
                and not isinstance(pattern.object, Variable)
            ):
                used_elsewhere = any(
                    other is not pattern
                    and pattern.subject in other.variables()
                    for other in patterns
                )
                if used_elsewhere:
                    constraints.setdefault(pattern.subject.name, set()).add(
                        pattern.object
                    )
                    removable.append(pattern)
        kept = [p for p in patterns if p not in removable]
        return constraints, kept

    # ------------------------------------------------------------------
    # Index file selection (MESG levels)
    # ------------------------------------------------------------------

    def _select_file(
        self,
        pattern: TriplePattern,
        constraints: Dict[str, Set[Term]],
    ) -> Tuple[str, List[Tuple[Term, Term]]]:
        """The narrowest index file answering *pattern*.

        Returns (level label, list of (s, o) pairs).  Classes known for the
        subject/object variables select CRC > CR > RC > relation files.
        """
        predicate = pattern.predicate
        subject_classes, object_classes = (
            sorted(constraints.get(p.name, ()), key=lambda t: t.sort_key())
            if isinstance(p, Variable)
            else []
            for p in (pattern.subject, pattern.object)
        )
        # The smallest candidate file, the first of equal sizes.
        if subject_classes and object_classes:
            return "CRC", min(
                (
                    self.crc_index.get((s_class, predicate, o_class), [])
                    for s_class in subject_classes
                    for o_class in object_classes
                ),
                key=len,
            )
        if subject_classes:
            return "CR", min(
                (self.cr_index.get((c, predicate), []) for c in subject_classes),
                key=len,
            )
        if object_classes:
            return "RC", min(
                (self.rc_index.get((predicate, c), []) for c in object_classes),
                key=len,
            )
        return "REL", self.relation_index.get(predicate, [])

    # ------------------------------------------------------------------
    # RDSG: generate + prepartition
    # ------------------------------------------------------------------

    def _generate_rdsg(
        self,
        pattern: TriplePattern,
        constraints: Dict[str, Set[Term]],
        prepartition_on: Optional[str],
    ) -> RDD:
        """Rows of one pattern as a pre-partitioned RDD (an RDSG)."""
        found = self._match_pattern(pattern, constraints)
        header = compile_pattern(pattern).header
        return rows(self._prepartition(found, prepartition_on, header), header)

    def _match_pattern(
        self,
        pattern: TriplePattern,
        constraints: Dict[str, Set[Term]],
    ) -> List[tuple]:
        """*pattern*'s rows read from its index files, each scanned
        with its fixed positions in the layout: a relation file holds the
        ``(s, o)`` pairs of one predicate, a class file the members of one
        class."""
        predicate = pattern.predicate
        relations: List[Tuple[str, Term, List[Tuple[Term, Term]]]] = []
        classes: List[Tuple[Term, List[Term]]] = []
        if isinstance(predicate, Variable):
            # Variable predicate: the whole MESG level 1 must be read.
            relations = [
                ("REL", p, pairs) for p, pairs in _by_name(self.relation_index)
            ]
            classes = _by_name(self.class_index)
        elif predicate != RDF.type:
            level, pairs = self._select_file(pattern, constraints)
            relations = [(level, predicate, pairs)]
        elif isinstance(pattern.object, Variable):
            classes = _by_name(self.class_index)
        else:
            members = self.class_index.get(pattern.object, [])
            classes = [(pattern.object, members)]
        out: List[tuple] = []
        for level, p, pairs in relations:
            self._count_read(level, len(pairs))
            out += compile_pattern(pattern, ("t[0]", p, "t[1]")).scan(pairs)
        for cls, members in classes:
            self._count_read("CLASS", len(members))
            out += compile_pattern(pattern, ("t", RDF.type, cls)).scan(members)
        if predicate == RDF.type:
            return out
        # The remaining class constraints (multi-class subjects).
        header = compile_pattern(pattern).header
        checks = [
            (header.index(name), wanted)
            for name, wanted in constraints.items()
            if name in header
        ]
        return [
            row
            for row in out
            if all(
                wanted <= self.classes_of.get(row[at], set())
                for at, wanted in checks
            )
        ]

    def _count_read(self, level: str, records: int) -> None:
        self.last_index_reads[level] = (
            self.last_index_reads.get(level, 0) + records
        )
        self.ctx.metrics.incr("records_scanned", records)

    def _prepartition(
        self, found: List[tuple], variable: Optional[str], header: Header
    ) -> RDD:
        """Dynamic pre-partitioning: co-locate equal join-variable values."""
        if variable is None:
            return self.ctx.parallelize(found)
        partitions: List[List[tuple]] = [
            [] for _ in range(self._num_partitions)
        ]
        at = header.index(variable)
        for row in found:
            index = stable_hash((row[at],)) % self._num_partitions
            partitions[index].append(row)
        return self.ctx.fromPartitions(partitions)

    # ------------------------------------------------------------------
    # Query processing: ordered variable sequence
    # ------------------------------------------------------------------

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        self.last_index_reads = {}
        constraints, kept = self._class_constraints(list(patterns))
        if not kept:
            # The query was only type patterns; evaluate them directly.
            kept = list(patterns)
            constraints = {}

        # The optimal plan: variables ordered by how many patterns they
        # touch (most joined first), then patterns joined variable by
        # variable.
        var_count: Dict[str, int] = {}
        for pattern in kept:
            for variable in pattern.variables():
                var_count[variable.name] = var_count.get(variable.name, 0) + 1
        variable_order = sorted(
            var_count, key=lambda name: (-var_count[name], name)
        )

        # (pattern, the variable it is pre-partitioned on), in join order.
        units: List[Tuple[TriplePattern, str]] = []
        placed: Set[int] = set()
        for variable in variable_order:
            for index, pattern in enumerate(kept):
                if index not in placed and variable in variables_of(pattern):
                    placed.add(index)
                    units.append((pattern, variable))
        # Distributed joins of the RDSGs on their shared variables.
        result = fold_joins(
            units,
            lambda unit: self._generate_rdsg(unit[0], constraints, unit[1]),
            names=lambda unit: variables_of(unit[0]),
            join=join_rows,
        )
        # Patterns with no variables at all (fully ground).
        for pattern in kept:
            if not pattern.variables() and not self._match_pattern(
                pattern, constraints
            ):
                return self._no_rows(patterns)
        if result is None:
            return self._empty_row()
        return result
