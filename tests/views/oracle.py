"""The from-scratch view oracle: one ExtVP view rebuilt triple by triple
through ``graph.triples()``, sharing nothing with the library's build
path (``repro.views.catalog``), which reads each predicate once from the
POS index.
"""

from typing import List, Tuple

from repro.rdf.terms import Term
from repro.stats.catalog import pair_columns
from repro.views.catalog import MaterializedView, ViewCatalog


def oracle_view(graph, key, factor, version=0):
    """The view *key* over *graph*: ``p1`` triples whose ``column1``
    value some ``p2`` triple carries in ``column2``."""
    kind, p1_n3, p2_n3 = key
    terms = {term.n3(): term for term in graph.predicates()}
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


def oracle_payload(graph, stats, threshold):
    """What ``ViewCatalog.build(graph, stats, threshold).to_payload()``
    must be: every pair at or under *threshold*, each built by
    :func:`oracle_view`, billed ``|p1| + |p2|``."""
    catalog = ViewCatalog(threshold=threshold, version=stats.version)
    for key, factor in sorted(stats.pair_selectivity.items()):
        if factor <= threshold:
            catalog.views[key] = oracle_view(graph, key, factor, catalog.version)
            catalog.build_cost_units += stats.predicate_count(
                key[1]
            ) + stats.predicate_count(key[2])
    return catalog.to_payload()
