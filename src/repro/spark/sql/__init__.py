"""Spark SQL: a SQL engine over DataFrames with a Catalyst-style optimizer.

S2RDF (Section IV-A2 of the paper) compiles SPARQL into SQL executed by
Spark SQL; this subpackage provides the target of that compilation: a
lexer/parser producing a logical plan, rule-based optimization (constant
folding, predicate pushdown, projection pruning, size-based join ordering)
and execution against the session catalog's DataFrames.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.spark.sql.session": ("SparkSession",),
    },
)
