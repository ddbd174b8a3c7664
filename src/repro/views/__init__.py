"""Materialized ExtVP views with incremental maintenance (docs/VIEWS.md).

The package turns the statistics catalog's measured pair selectivities
into S2RDF-style materialized semi-join reduction tables
(:class:`~repro.views.catalog.ViewCatalog`), keeps them exact across
:mod:`repro.evolution` commits by delta application instead of rebuilds,
and plugs into :mod:`repro.optimizer` so any engine's plans substitute a
view for a base scan whenever the view strictly dominates it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.views.catalog": (
            "DEFAULT_VIEW_THRESHOLD",
            "MaintenanceReport",
            "MaterializedView",
            "VIEW_FORMAT_VERSION",
            "ViewCatalog",
            "ViewKey",
            "materialize_view",
            "view_name",
        ),
    },
)
