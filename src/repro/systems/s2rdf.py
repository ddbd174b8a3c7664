"""S2RDF [24]: extended vertical partitioning (ExtVP) over Spark SQL.

Mechanics reproduced from Section IV-A2 of the paper:

* *ExtVP* -- besides one vertical-partition (VP) table per predicate,
  the loader pre-computes **semi-join reductions** between VP tables for
  the three correlations SPARQL joins exhibit: subject-subject (SS),
  object-subject (OS) and subject-object (SO).  At query time a triple
  pattern reads the smallest reduction applicable to its joins instead of
  the full VP table, which is where the paper's "10,000 comparisons vs 10"
  example comes from.  The loader builds a reduction by filtering the
  cached VP table (the scheme's home is :mod:`repro.stats.catalog`,
  docs/VIEWS.md); only queries go through Spark SQL.
* *Selectivity factor* -- each ExtVP table's size relative to its VP table
  is its SF; tables with SF above the threshold are not kept (they would
  save little and cost storage).
* *Query compilation* -- SPARQL is parsed to an algebra tree (Jena ARQ in
  the original; :mod:`repro.sparql` here) and traversed to emit a Spark
  SQL query; sub-queries are ordered by bound-variable count, then table
  size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dimensions import (
    Contribution,
    DataModel,
    Optimization,
    PartitioningStrategy,
    QueryProcessing,
    SparkAbstraction,
)
from repro.rdf.graph import RDFGraph
from repro.spark.context import SparkContext
from repro.spark.dataframe import DataFrame
from repro.spark.rdd import RDD
from repro.spark.sql.session import SparkSession
from repro.sparql.ast import (
    TriplePattern,
    Variable,
    connected_order,
    variables_of,
)
from repro.sparql.fragments import (
    FEATURE_BGP,
    FEATURE_DISTINCT,
    FEATURE_FILTER,
    FEATURE_LIMIT,
    FEATURE_OFFSET,
    FEATURE_ORDER_BY,
    FEATURE_UNION,
)
from repro.stats.catalog import PAIR_KINDS, pair_columns
from repro.systems.base import EngineProfile, SparkRdfEngine
from repro.systems.bgpsql import bgp_to_sql, run_bgp_sql


def _member(position: int, ids: set):
    """Row predicate: the value at *position* is one of *ids*."""
    return lambda row: row[position] in ids


class S2RdfEngine(SparkRdfEngine):
    """ExtVP storage with SPARQL-to-Spark-SQL compilation."""

    profile = EngineProfile(
        name="S2RDF",
        citation="[24]",
        data_model=DataModel.TRIPLE,
        abstractions=(SparkAbstraction.SPARK_SQL,),
        query_processing=QueryProcessing.SPARK_SQL,
        optimization=Optimization.YES,
        partitioning=PartitioningStrategy.EXTENDED_VERTICAL,
        sparql_features=frozenset(
            {
                FEATURE_BGP,
                FEATURE_FILTER,
                FEATURE_UNION,
                FEATURE_OFFSET,
                FEATURE_LIMIT,
                FEATURE_ORDER_BY,
                FEATURE_DISTINCT,
            }
        ),
        contribution=Contribution.ALL_QUERY_TYPES,
        description=(
            "Semi-join-reduced vertical partitions (ExtVP) queried through "
            "generated Spark SQL."
        ),
    )

    def __init__(
        self,
        ctx: Optional[SparkContext] = None,
        sf_threshold: float = 0.95,
        build_extvp: bool = True,
    ) -> None:
        super().__init__(ctx)
        if not 0.0 < sf_threshold <= 1.0:
            raise ValueError("sf_threshold must be in (0, 1]")
        self.sf_threshold = sf_threshold
        self.build_extvp = build_extvp

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _build(self, graph: RDFGraph) -> None:
        self.session = SparkSession(self.ctx)
        self.dictionary, encoded = graph.encoding()
        self.table_sizes: Dict[str, int] = {}
        #: predicate id -> VP table name
        self._vp_names: Dict[int, str] = {}
        #: (kind, p1 id, p2 id) -> ExtVP table name (only kept tables)
        self._extvp_names: Dict[Tuple[str, int, int], str] = {}
        #: (kind, p1, p2) -> selectivity factor, for all computed pairs
        self.selectivity_factors: Dict[Tuple[str, int, int], float] = {}

        all_df = self.session.createDataFrame(encoded, ["s", "p", "o"])
        self.session.createOrReplaceTempView("alltriples", all_df.cache())
        self.table_sizes["alltriples"] = len(encoded)

        by_predicate: Dict[int, List[Tuple[int, int]]] = {}
        for s, p, o in encoded:
            by_predicate.setdefault(p, []).append((s, o))
        for predicate_id, pairs in sorted(by_predicate.items()):
            name = "vp_%d" % predicate_id
            df = self.session.createDataFrame(pairs, ["s", "o"])
            self.session.createOrReplaceTempView(name, df.cache())
            self._vp_names[predicate_id] = name
            self.table_sizes[name] = len(pairs)

        if self.build_extvp:
            self._build_extvp(by_predicate)

    def _build_extvp(
        self, by_predicate: Dict[int, List[Tuple[int, int]]]
    ) -> None:
        """Pre-compute the SS/OS/SO semi-join reductions: each one is a
        VP table filtered by the ids its partner's join column holds."""
        ids = {
            p: {"s": {s for s, _o in rows}, "o": {o for _s, o in rows}}
            for p, rows in by_predicate.items()
        }
        for p1, rows in sorted(by_predicate.items()):
            vp1 = self.session.table(self._vp_names[p1])
            vp1.count()  # Every VP table is materialized at load.
            for p2 in sorted(by_predicate):
                for kind in PAIR_KINDS:
                    column1, column2 = pair_columns(kind)
                    if p1 == p2 and column1 == column2:
                        continue  # SF is 1 by construction, never kept.
                    keep = _member(vp1.columns.index(column1), ids[p2][column2])
                    size = sum(map(keep, rows))
                    sf = size / len(rows)
                    self.selectivity_factors[(kind, p1, p2)] = sf
                    if 0 < size and sf < self.sf_threshold:
                        name = "extvp_%s_%d_%d" % (kind, p1, p2)
                        reduced = vp1.rdd.filter(keep).cache()
                        reduced.count()
                        self.session.createOrReplaceTempView(
                            name, DataFrame(self.session, reduced, vp1.columns)
                        )
                        self._extvp_names[(kind, p1, p2)] = name
                        self.table_sizes[name] = size

    def extvp_table_count(self) -> int:
        """How many ExtVP tables the SF threshold kept."""
        return len(self._extvp_names)

    def storage_rows(self, include_extvp: bool = True) -> int:
        """Total stored rows (VP tables, optionally plus ExtVP tables)."""
        total = sum(
            size
            for name, size in self.table_sizes.items()
            if name.startswith("vp_")
        )
        if include_extvp:
            total += sum(
                size
                for name, size in self.table_sizes.items()
                if name.startswith("extvp_")
            )
        return total

    # ------------------------------------------------------------------
    # Query compilation
    # ------------------------------------------------------------------

    def _choose_table(
        self,
        index: int,
        patterns: Sequence[TriplePattern],
    ) -> Optional[str]:
        """Smallest applicable table for pattern *index* (VP or ExtVP)."""
        pattern = patterns[index]
        if isinstance(pattern.predicate, Variable):
            return "alltriples"
        p1 = self.dictionary.get(pattern.predicate)
        if p1 is None or p1 not in self._vp_names:
            return None  # predicate never occurs: empty result
        best = self._vp_names[p1]
        best_size = self.table_sizes[best]
        for j, other in enumerate(patterns):
            if j == index or isinstance(other.predicate, Variable):
                continue
            p2 = self.dictionary.get(other.predicate)
            if p2 is None:
                continue
            for kind, mine, theirs in (
                ("ss", pattern.subject, other.subject),
                ("os", pattern.object, other.subject),
                ("so", pattern.subject, other.object),
            ):
                if (
                    isinstance(mine, Variable)
                    and isinstance(theirs, Variable)
                    and mine == theirs
                ):
                    name = self._extvp_names.get((kind, p1, p2))
                    if name is not None and self.table_sizes[name] < best_size:
                        best = name
                        best_size = self.table_sizes[name]
        return best

    def _order_patterns(
        self, patterns: List[TriplePattern]
    ) -> List[int]:
        """Pattern order: most bound variables first, then smallest table."""

        def sort_key(index: int):
            pattern = patterns[index]
            table = self._choose_table(index, patterns)
            size = self.table_sizes.get(table, 0) if table else 0
            return (-pattern.bound_count(), size)

        # Keep joins connected where possible.
        return connected_order(
            sorted(range(len(patterns)), key=sort_key),
            names=lambda index: variables_of(patterns[index]),
        )

    def compile_sql(
        self, patterns: List[TriplePattern]
    ) -> Optional[Tuple[str, List[str]]]:
        """The generated Spark SQL text plus the projected variable names.

        Returns None when some constant in the query cannot match any data
        (guaranteed-empty result).
        """
        order = self._order_patterns(list(patterns))
        tables = [self._choose_table(index, patterns) for index in order]
        if None in tables:
            return None
        return bgp_to_sql(
            [patterns[index] for index in order],
            tables,
            "alltriples",
            self.dictionary.get,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _evaluate_bgp(self, patterns: List[TriplePattern]) -> RDD:
        compiled = self.compile_sql(list(patterns))
        if compiled is None:
            return self.ctx.emptyRDD()
        self.last_sql, variables = compiled
        return run_bgp_sql(
            self.session, self.dictionary, self.last_sql, variables
        )
