"""The survey's own contribution, executable.

Section III's evaluation dimensions as enums, Figure 1's taxonomy as a
data structure, the system registry with every surveyed engine's profile,
report generators that regenerate Table I / Table II / Figure 1, and the
claim-checking assessment framework.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.dimensions": (
            "Contribution",
            "DataModel",
            "Optimization",
            "PartitioningStrategy",
            "QueryProcessing",
            "SparkAbstraction",
        ),
        "repro.core.taxonomy": ("TAXONOMY", "TaxonomyNode", "render_taxonomy"),
        "repro.core.registry": ("SystemRegistry", "default_registry"),
        "repro.core.reports": (
            "PAPER_TABLE_I",
            "PAPER_TABLE_II",
            "render_table_i",
            "render_table_ii",
        ),
        "repro.core.assessment": ("Claim", "ClaimResult", "Assessment"),
        "repro.core.claims": ("build_default_assessment",),
        "repro.core.survey": ("render_survey",),
    },
)
