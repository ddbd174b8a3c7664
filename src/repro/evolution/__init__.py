"""Evolving RDF data: the paper's second future-work direction.

Section V: "dynamicity is an important aspect of the RDF data, which are
constantly evolving ... This raises the need to keep track of the
different versions of the data, so as to be able to have access not only
to the latest version, but also to previous ones ... the next generation
parallel RDF query answering systems should be able to handle evolving
data in an uninterrupted manner."

* :mod:`repro.evolution.versioned` -- a version-tracked RDF store with
  the three archiving policies studied by the cited archiving literature
  (full materialization, delta chains, hybrid checkpoints) and
  cross-version queries/diffs.

A running engine takes a version's :class:`Delta` through
``SparkRdfEngine.apply_delta(delta, graph)``: a reload by default,
SPARQLGX rewrites only the predicate stores the delta touches.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.evolution.versioned": (
            "ArchivePolicy",
            "Delta",
            "VersionedGraph",
        ),
    },
)
