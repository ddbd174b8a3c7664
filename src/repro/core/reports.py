"""Regenerating the paper's tables from engine profiles.

``PAPER_TABLE_I`` and ``PAPER_TABLE_II`` are golden transcriptions of the
published tables; :func:`table_i_cells` / :func:`table_ii_rows` compute the
same content from the registry's machine-readable profiles.  Tests and
``benchmarks/bench_table1.py`` / ``bench_table2.py`` assert they agree and
print the rendered tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.reporting import format_table
from repro.core.dimensions import DataModel, SparkAbstraction
from repro.core.registry import SystemRegistry

# ----------------------------------------------------------------------
# Golden copies transcribed from the paper
# ----------------------------------------------------------------------

#: Table I: (abstraction, data model) -> citations, exactly as published.
PAPER_TABLE_I: Dict[Tuple[SparkAbstraction, DataModel], Tuple[str, ...]] = {
    (SparkAbstraction.RDD, DataModel.TRIPLE): ("[7]", "[13]", "[21]"),
    (SparkAbstraction.RDD, DataModel.GRAPH): ("[5]",),
    (SparkAbstraction.DATAFRAMES, DataModel.TRIPLE): ("[21]",),
    (SparkAbstraction.SPARK_SQL, DataModel.TRIPLE): ("[24]",),
    (SparkAbstraction.GRAPHX, DataModel.GRAPH): ("[23]", "[16]", "[12]"),
    (SparkAbstraction.GRAPHFRAMES, DataModel.GRAPH): ("[4]",),
}

#: Table II rows in published order:
#: (system, query processing, optimization, partitioning, SPARQL fragment).
PAPER_TABLE_II: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("[7]", "RDD API", "No", "Hash / Query Aware", "BGP+"),
    ("[13]", "RDD API", "Yes", "Vertical", "BGP+"),
    ("[24]", "Spark SQL", "Yes", "Extended Vertical", "BGP+"),
    ("[21]", "Hybrid", "Yes", "Hash-sbj", "BGP"),
    ("[23]", "Graph Iterations", "No", "Default", "BGP+"),
    ("[16]", "Graph Iterations", "Yes", "Default", "BGP"),
    ("[12]", "Graph Iterations", "Yes", "Default", "BGP"),
    ("[4]", "Subgraph Matching", "Yes", "Default", "BGP"),
    ("[5]", "Custom", "Yes", "Hash-sbj", "BGP"),
)

#: Row order of Table II by citation (the paper's presentation order).
TABLE_II_ORDER = tuple(row[0] for row in PAPER_TABLE_II)


# ----------------------------------------------------------------------
# Computed from the registry
# ----------------------------------------------------------------------


def table_i_cells(
    registry: SystemRegistry,
) -> Dict[Tuple[SparkAbstraction, DataModel], Tuple[str, ...]]:
    """Table I content derived from engine profiles."""
    return {
        key: tuple(citations)
        for key, citations in registry.taxonomy_cells().items()
    }


def table_ii_rows(
    registry: SystemRegistry,
) -> List[Tuple[str, str, str, str, str]]:
    """Table II content derived from engine profiles, in paper order."""
    by_citation = {cls.profile.citation: cls.profile for cls in registry}
    rows = []
    for citation in TABLE_II_ORDER:
        profile = by_citation[citation]
        rows.append(
            (
                citation,
                profile.query_processing.value,
                profile.optimization.value,
                profile.partitioning.value,
                profile.sparql_fragment,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def render_table_i(registry: Optional[SystemRegistry] = None) -> str:
    """Table I as an ASCII grid (abstraction rows x data-model columns)."""
    from repro.core.registry import default_registry

    cells = table_i_cells(registry or default_registry())
    headers = ["Apache Spark Abstraction", "The Triple Model", "The Graph Model"]
    rows = []
    for abstraction in SparkAbstraction:
        row = [abstraction.value]
        for model in (DataModel.TRIPLE, DataModel.GRAPH):
            citations = cells.get((abstraction, model), ())
            row.append(", ".join(citations))
        rows.append(row)
    return format_table(headers, rows)


def render_table_ii(registry: Optional[SystemRegistry] = None) -> str:
    """Table II as an ASCII grid."""
    from repro.core.registry import default_registry

    rows = table_ii_rows(registry or default_registry())
    headers = ["System", "Query Processing", "Optimization", "Partitioning", "SPARQL"]
    return format_table(headers, rows)

