"""Materialized ExtVP views: S2RDF's semi-join reductions, kept warm.

The statistics catalog (:mod:`repro.stats`) already *measures* the ExtVP
pair selectivities S2RDF is built on (Section IV-A2); this module
*materializes* them.  A :class:`MaterializedView` for ``(kind, p1, p2)``
stores the (subject, object) pairs of predicate ``p1``'s vertical
partition that survive the semi-join with predicate ``p2`` on the columns
*kind* names (``ss``/``so``/``os``, the three table families S2RDF
precomputes).  A :class:`ViewCatalog` selects which pairs to materialize
by selectivity threshold -- S2RDF's ``sf_threshold``: only reductions
strong enough to pay back their storage are built -- and keeps every view
exact across :mod:`repro.evolution` commits by *delta application*
instead of rebuilding.

Threshold semantics (pinned by ``tests/views/test_maintenance.py``):
a pair is materialized **iff** its selectivity factor is ``<= threshold``.
The boundary is inclusive: a factor exactly equal to the threshold
materializes.  Factors are read from the statistics catalog, which only
stores factors strictly below 1.0, so ``threshold=1.0`` materializes
every reduction the statistics know about.

Maintenance algebra (see docs/VIEWS.md for the worked derivation): with
``A`` = triples carrying ``p1``, ``B`` = triples carrying ``p2``,
``col1``/``col2`` the join columns *kind* selects, the view is

    V = { t in A : col1(t) in col2(B) }

and a commit's delta updates it in four deterministic steps, every
membership probe answered by the *post-commit* graph's hash indexes:

1. rows of ``V`` whose triple was deleted are removed;
2. added triples with predicate ``p1`` join ``V`` iff their ``col1``
   value appears in ``col2(B_new)``;
3. deleted ``p2`` triples whose ``col2`` value vanished from ``B_new``
   evict every ``V`` row carrying that value;
4. added ``p2`` triples whose ``col2`` value is new to ``B`` pull in
   every ``A_new`` triple carrying that value.

The result is byte-identical to a from-scratch rebuild of the view's
contents (a property test proves it), at a cost proportional to the
delta instead of ``|A| + |B|``.

Determinism: rows sort by N3 text, payloads serialize with sorted keys,
and no unsorted set/dict iteration reaches any output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.defaults import DEFAULT_VIEW_THRESHOLD
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term
from repro.stats.catalog import StatsCatalog, pair_columns

#: Bumped when the serialized view-catalog layout changes incompatibly.
VIEW_FORMAT_VERSION = 1

#: A view identity: (pair kind, p1 n3, p2 n3) -- same shape as the
#: statistics catalog's pair-selectivity keys.
ViewKey = Tuple[str, str, str]


def view_name(key: ViewKey) -> str:
    """The human/EXPLAIN name of a view, e.g. ``extvp_os(p1,p2)``."""
    kind, p1, p2 = key
    return "extvp_%s(%s,%s)" % (kind, p1, p2)


def _row_sort_key(row: Tuple[Term, Term]) -> Tuple[str, str]:
    return (row[0].n3(), row[1].n3())


def _join_value(row: Tuple[Term, Term], column: str) -> Term:
    """The join-column value of one (subject, object) row."""
    return row[0] if column == "s" else row[1]


def _has_p_with_value(graph: RDFGraph, predicate: Term, column: str, value: Term) -> bool:
    """Whether *graph* holds any *predicate* triple with *value* in *column*."""
    if column == "s":
        probe = (value, predicate, None)
    else:
        probe = (None, predicate, value)
    return next(iter(graph.triples(probe)), None) is not None


def _rows_with_value(
    graph: RDFGraph, predicate: Term, column: str, value: Term
) -> List[Tuple[Term, Term]]:
    """(s, o) rows of *predicate*'s partition carrying *value* in *column*."""
    if column == "s":
        probe = (value, predicate, None)
    else:
        probe = (None, predicate, value)
    return [(t.subject, t.object) for t in graph.triples(probe)]


@dataclass
class MaintenanceReport:
    """Cost accounting of one :meth:`ViewCatalog.apply_delta` call.

    All quantities are deterministic simulated cost units (triples
    touched), comparable with the full-rebuild bill the benchmark
    ablation charges (``benchmarks/bench_views.py``).
    """

    views_affected: int = 0
    rows_added: int = 0
    rows_removed: int = 0
    #: Triples examined by the delta walk plus membership/row probes.
    cost_units: int = 0
    #: What rebuilding the affected views from scratch would have cost
    #: (|A| + |B| per affected view, at post-commit sizes).
    rebuild_cost_units: int = 0


class MaterializedView:
    """One ExtVP semi-join reduction table, exact at a graph version.

    Rows are (subject, object) pairs of ``p1`` triples surviving the
    semi-join; they are kept sorted by N3 text plus indexed by their
    join-column value so maintenance evictions are O(affected rows).
    """

    def __init__(
        self,
        key: ViewKey,
        rows: Iterable[Tuple[Term, Term]],
        factor: float,
        version: int = 0,
    ) -> None:
        self.key = key
        #: The join columns of p1 and of p2 (an unknown kind raises).
        self.column1, self.column2 = pair_columns(key[0])
        self.factor = factor
        self.version = version
        self._rows: Dict[Tuple[Term, Term], None] = {}
        #: join-column value -> rows carrying it (maintenance index).
        self._by_value: Dict[Term, Dict[Tuple[Term, Term], None]] = {}
        for row in rows:
            self._add_row(row)

    # -- identity ------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.key[0]

    @property
    def p1(self) -> str:
        return self.key[1]

    @property
    def p2(self) -> str:
        return self.key[2]

    @property
    def name(self) -> str:
        return view_name(self.key)

    # -- contents ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Tuple[Term, Term]) -> bool:
        return row in self._rows

    def rows(self) -> List[Tuple[Term, Term]]:
        """The surviving (subject, object) pairs, sorted by N3 text."""
        return sorted(self._rows, key=_row_sort_key)

    def _add_row(self, row: Tuple[Term, Term]) -> bool:
        if row in self._rows:
            return False
        self._rows[row] = None
        value = _join_value(row, self.column1)
        self._by_value.setdefault(value, {})[row] = None
        return True

    def _remove_row(self, row: Tuple[Term, Term]) -> bool:
        if row not in self._rows:
            return False
        del self._rows[row]
        value = _join_value(row, self.column1)
        bucket = self._by_value.get(value)
        if bucket is not None:
            bucket.pop(row, None)
            if not bucket:
                del self._by_value[value]
        return True

    def rows_with_value(self, value: Term) -> List[Tuple[Term, Term]]:
        """View rows whose join-column value is *value* (sorted)."""
        bucket = self._by_value.get(value, {})
        return sorted(bucket, key=_row_sort_key)

    # -- serialization -------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "p1": self.p1,
            "p2": self.p2,
            "factor": round(self.factor, 6),
            "version": self.version,
            "rows": [
                [row[0].n3(), row[1].n3()] for row in self.rows()
            ],
        }

    def __repr__(self) -> str:
        return "MaterializedView(%s, rows=%d, factor=%.4f)" % (
            self.name,
            len(self),
            self.factor,
        )


def materialize_view(
    graph: RDFGraph,
    key: ViewKey,
    factor: float,
    version: int = 0,
    predicate_terms: Optional[Dict[str, Term]] = None,
) -> MaterializedView:
    """Build one view's contents from scratch over *graph*.

    The from-scratch oracle the incremental-maintenance property test
    compares against; also the build path of :meth:`ViewCatalog.build`.
    """
    kind, p1_n3, p2_n3 = key
    terms = predicate_terms or _predicate_terms(graph)
    p1 = terms.get(p1_n3)
    p2 = terms.get(p2_n3)
    column1, column2 = pair_columns(kind)
    rows: List[Tuple[Term, Term]] = []
    if p1 is not None:
        survivors = set()
        if p2 is not None:
            for triple in graph.triples((None, p2, None)):
                survivors.add(
                    triple.subject if column2 == "s" else triple.object
                )
        for triple in graph.triples((None, p1, None)):
            value = triple.subject if column1 == "s" else triple.object
            if value in survivors:
                rows.append((triple.subject, triple.object))
    return MaterializedView(key, rows, factor, version=version)


def _predicate_terms(graph: RDFGraph) -> Dict[str, Term]:
    """N3 text -> predicate term, for resolving catalog keys on a graph."""
    return {term.n3(): term for term in graph.predicates()}


class ViewCatalog:
    """Every materialized ExtVP view of one graph, version-consistent.

    Built once from a :class:`~repro.stats.catalog.StatsCatalog` (which
    pairs to build is a *build-time* decision: the selection is fixed
    until the next full build, while each selected view's *contents*
    stay exact across commits via :meth:`apply_delta`).
    """

    def __init__(
        self,
        threshold: float = DEFAULT_VIEW_THRESHOLD,
        version: int = 0,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("view threshold must be in [0, 1]")
        self.threshold = threshold
        self.version = version
        self.views: Dict[ViewKey, MaterializedView] = {}
        #: Simulated cost units (triples scanned) of the last full build.
        self.build_cost_units = 0

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: RDFGraph,
        stats: Optional[StatsCatalog] = None,
        threshold: float = DEFAULT_VIEW_THRESHOLD,
        version: Optional[int] = None,
    ) -> "ViewCatalog":
        """Materialize every pair whose selectivity factor <= *threshold*.

        *stats* defaults to a fresh catalog over *graph*; *version*
        defaults to the statistics catalog's version.
        """
        if stats is None:
            stats = StatsCatalog.from_graph(graph)
        catalog = cls(
            threshold=threshold,
            version=stats.version if version is None else version,
        )
        terms = _predicate_terms(graph)
        selected = sorted(
            key
            for key, factor in stats.pair_selectivity.items()
            if factor <= threshold
        )
        for key in selected:
            view = materialize_view(
                graph,
                key,
                stats.pair_selectivity[key],
                version=catalog.version,
                predicate_terms=terms,
            )
            catalog.views[key] = view
            # The build bill: scan p1's partition plus p2's join column.
            catalog.build_cost_units += stats.predicate_count(
                key[1]
            ) + stats.predicate_count(key[2])
        return catalog

    # -- lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.views)

    def get(self, key: ViewKey) -> Optional[MaterializedView]:
        return self.views.get(key)

    def sorted_views(self) -> List[MaterializedView]:
        return [self.views[key] for key in sorted(self.views)]

    def total_rows(self) -> int:
        return sum(len(view) for view in self.sorted_views())

    # -- incremental maintenance ---------------------------------------

    def apply_delta(self, delta, graph: RDFGraph, version: int) -> MaintenanceReport:
        """Delta-apply one commit's change set to every affected view.

        *delta* is a :class:`~repro.evolution.versioned.Delta` (or any
        object with ``added``/``removed`` triple tuples), *graph* the
        **post-commit** head, *version* the new graph version.  Views
        whose predicates the delta does not touch are not visited.
        """
        report = MaintenanceReport()
        touched: Dict[str, bool] = {}
        for triple in list(delta.added) + list(delta.removed):
            touched[triple.predicate.n3()] = True
        affected = sorted(
            key
            for key in self.views
            if key[1] in touched or key[2] in touched
        )
        terms = _predicate_terms(graph)
        # Post-commit partition sizes, counted from the index once per
        # predicate; one the head no longer carries is absent (size 0).
        sizes = {n3: graph.predicate_count(term) for n3, term in terms.items()}
        for key in affected:
            view = self.views[key]
            report.views_affected += 1
            report.cost_units += self._maintain_view(
                view, delta, graph, terms, report
            )
            p1_count = sizes.get(key[1], 0)
            p2_count = sizes.get(key[2], 0)
            report.rebuild_cost_units += p1_count + p2_count
            view.version = version
            view.factor = (
                round(len(view) / p1_count, 6) if p1_count else 0.0
            )
        self.version = version
        return report

    def _maintain_view(
        self,
        view: MaterializedView,
        delta,
        graph: RDFGraph,
        terms: Dict[str, Term],
        report: MaintenanceReport,
    ) -> int:
        """The four-step delta walk for one view; returns its cost."""
        _kind, p1_n3, p2_n3 = view.key
        p1_term = terms.get(p1_n3)
        p2_term = terms.get(p2_n3)
        cost = 0
        # Step 1: deleted p1 triples leave the view.
        for triple in delta.removed:
            if triple.predicate.n3() != p1_n3:
                continue
            cost += 1
            if view._remove_row((triple.subject, triple.object)):
                report.rows_removed += 1
        # Step 2: added p1 triples join iff their value survives in B_new.
        for triple in delta.added:
            if triple.predicate.n3() != p1_n3:
                continue
            cost += 1
            value = triple.subject if view.column1 == "s" else triple.object
            if p2_term is not None and _has_p_with_value(
                graph, p2_term, view.column2, value
            ):
                if view._add_row((triple.subject, triple.object)):
                    report.rows_added += 1
        # Steps 3 and 4: p2-side membership changes.  Values are probed
        # against the post-commit graph, so a value both added and
        # removed within one commit resolves to its final membership.
        for value in _delta_values(delta.removed, p2_n3, view.column2):
            cost += 1
            if p2_term is not None and _has_p_with_value(
                graph, p2_term, view.column2, value
            ):
                continue  # other p2 triples still carry the value
            for row in view.rows_with_value(value):
                cost += 1
                if view._remove_row(row):
                    report.rows_removed += 1
        for value in _delta_values(delta.added, p2_n3, view.column2):
            cost += 1
            if p1_term is None:
                continue
            for row in _rows_with_value(graph, p1_term, view.column1, value):
                cost += 1
                if row not in view:
                    view._add_row(row)
                    report.rows_added += 1
        return cost

    # -- serialization -------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready dict; byte-deterministic via sorted collections."""
        return {
            "format": VIEW_FORMAT_VERSION,
            "version": self.version,
            "threshold": round(self.threshold, 6),
            "totals": {
                "views": len(self.views),
                "rows": self.total_rows(),
                "build_cost_units": self.build_cost_units,
            },
            "views": [view.to_payload() for view in self.sorted_views()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def summary(self) -> Dict[str, object]:
        """The headline numbers (the ``views stats`` CLI table)."""
        return {
            "version": self.version,
            "threshold": round(self.threshold, 6),
            "views": len(self.views),
            "rows": self.total_rows(),
            "build_cost_units": self.build_cost_units,
        }

    def __repr__(self) -> str:
        return "ViewCatalog(views=%d, threshold=%s, version=%d)" % (
            len(self.views),
            self.threshold,
            self.version,
        )


def _delta_values(triples, predicate_n3: str, column: str) -> List[Term]:
    """Distinct join-column values of delta triples carrying the predicate,
    sorted by N3 text for a deterministic probe order."""
    values: Dict[Term, None] = {}
    for triple in triples:
        if triple.predicate.n3() != predicate_n3:
            continue
        values[triple.subject if column == "s" else triple.object] = None
    return sorted(values, key=lambda term: term.n3())
