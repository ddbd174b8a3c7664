"""GraphFrame: a graph represented as two DataFrames plus motif finding."""

from __future__ import annotations

from typing import List, Optional

from repro.spark.column import Expression
from repro.spark.dataframe import DataFrame
from repro.spark.graphframes.motif import MotifPattern, parse_motif


class GraphFrame:
    """A graph whose vertices and edges are DataFrames.

    *vertices* must have an ``id`` column; *edges* must have ``src`` and
    ``dst`` columns.  Additional columns are vertex/edge properties -- RDF
    systems typically store the predicate in an edge column named
    ``relationship`` or ``label``.
    """

    def __init__(self, vertices: DataFrame, edges: DataFrame) -> None:
        if "id" not in vertices.columns:
            raise ValueError("vertices DataFrame needs an 'id' column")
        if "src" not in edges.columns or "dst" not in edges.columns:
            raise ValueError("edges DataFrame needs 'src' and 'dst' columns")
        self.vertices = vertices
        self.edges = edges
        self.session = vertices.session

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------

    def inDegrees(self) -> DataFrame:
        return (
            self.edges.groupBy("dst")
            .agg(("count", "*", "inDegree"))
            .withColumnRenamed("dst", "id")
        )

    def outDegrees(self) -> DataFrame:
        return (
            self.edges.groupBy("src")
            .agg(("count", "*", "outDegree"))
            .withColumnRenamed("src", "id")
        )

    def degrees(self) -> DataFrame:
        ends = self.edges.select("src").union(
            self.edges.select("dst")
        )
        renamed = DataFrame(self.session, ends.rdd, ["id"])
        return renamed.groupBy("id").agg(("count", "*", "degree"))

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def filterVertices(self, condition: Expression) -> "GraphFrame":
        """Keep matching vertices; drop edges with a removed endpoint."""
        vertices = self.vertices.where(condition)
        keep_ids = {row["id"] for row in vertices.select("id").collect()}
        bcast = self.session.ctx.broadcast(keep_ids)
        src_idx = self.edges.columns.index("src")
        dst_idx = self.edges.columns.index("dst")
        edges_rdd = self.edges.rdd.filter(
            lambda values: values[src_idx] in bcast.value
            and values[dst_idx] in bcast.value
        )
        return GraphFrame(
            vertices, DataFrame(self.session, edges_rdd, self.edges.columns)
        )

    def filterEdges(self, condition: Expression) -> "GraphFrame":
        """Keep matching edges (vertices are untouched, like GraphFrames)."""
        return GraphFrame(self.vertices, self.edges.where(condition))

    # ------------------------------------------------------------------
    # Motif finding
    # ------------------------------------------------------------------

    def find(self, motif: str) -> DataFrame:
        """Structural pattern matching.

        Each named vertex variable ``a`` contributes columns ``a.id`` plus
        one ``a.<attr>`` per vertex property; each named edge variable
        ``e`` contributes ``e.<attr>`` per edge property (``src``/``dst``
        excluded -- they are exposed through the endpoint variables).
        Anonymous elements constrain the match but produce no columns.
        """
        patterns = parse_motif(motif)
        anon_counter = [0]

        def fresh(prefix: str) -> str:
            anon_counter[0] += 1
            return "__%s%d" % (prefix, anon_counter[0])

        result: Optional[DataFrame] = None
        hidden: List[str] = []
        for pattern in patterns:
            term_df, term_hidden = self._pattern_frame(pattern, fresh)
            hidden.extend(term_hidden)
            if result is None:
                result = term_df
            else:
                shared = [c for c in term_df.columns if c in result.columns]
                if shared:
                    result = result.join(term_df, on=shared, how="inner")
                else:
                    result = result.crossJoin(term_df)

        assert result is not None
        result = self._attach_vertex_attrs(result, patterns)
        existing_hidden = [c for c in hidden if c in result.columns]
        if existing_hidden:
            result = result.drop(*existing_hidden)
        return result

    def _pattern_frame(self, pattern: MotifPattern, fresh) -> tuple:
        """One edge pattern as a DataFrame with variable-qualified columns."""
        src_var = pattern.src or fresh("src")
        dst_var = pattern.dst or fresh("dst")
        hidden = []
        if pattern.src is None:
            hidden.append("%s.id" % src_var)
        if pattern.dst is None:
            hidden.append("%s.id" % dst_var)

        df = self.edges
        if src_var == dst_var:
            # Self-loop: keep matching edges, expose the endpoint once.
            src_idx = df.columns.index("src")
            dst_idx = df.columns.index("dst")
            loops = df.rdd.filter(lambda v: v[src_idx] == v[dst_idx])
            df = DataFrame(self.session, loops, df.columns).drop("dst")
            renames = {"src": "%s.id" % src_var}
        else:
            renames = {"src": "%s.id" % src_var, "dst": "%s.id" % dst_var}
        extra = [c for c in df.columns if c not in ("src", "dst")]
        if pattern.edge is not None:
            for column in extra:
                renames[column] = "%s.%s" % (pattern.edge, column)
        for old, new in renames.items():
            df = df.withColumnRenamed(old, new)
        if pattern.edge is None and extra:
            df = df.drop(*extra)
        return df, hidden

    def _attach_vertex_attrs(
        self, result: DataFrame, patterns: List[MotifPattern]
    ) -> DataFrame:
        """Join per-variable vertex properties (and enforce membership)."""
        attrs = [c for c in self.vertices.columns if c != "id"]
        named = []
        for pattern in patterns:
            for var in (pattern.src, pattern.dst):
                if var is not None and var not in named:
                    named.append(var)
        for var in named:
            key = "%s.id" % var
            if key not in result.columns:
                continue
            vdf = self.vertices
            vdf = vdf.withColumnRenamed("id", key)
            for attr in attrs:
                vdf = vdf.withColumnRenamed(attr, "%s.%s" % (var, attr))
            result = result.join(vdf, on=key, how="inner")
        return result

    def __repr__(self) -> str:
        return "GraphFrame(v=%r, e=%r)" % (
            self.vertices.columns,
            self.edges.columns,
        )
