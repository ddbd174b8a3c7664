"""SPARQL: the standard query language for the semantic web (Section II-B).

A tokenizer and recursive-descent parser for the BGP+ fragment the surveyed
systems support (basic graph patterns, FILTER, OPTIONAL, UNION, DISTINCT,
ORDER BY, LIMIT/OFFSET, SELECT/ASK), translation to SPARQL algebra, a
reference evaluator over any triple source, query-shape classification
(star / linear / snowflake / complex), and solution-set containers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sparql.ast": (
            "AskQuery",
            "GroupGraphPattern",
            "SelectQuery",
            "TriplePattern",
            "Variable",
        ),
        "repro.sparql.parser": ("SparqlParseError", "parse_sparql"),
        "repro.sparql.algebra": ("evaluate", "translate"),
        "repro.sparql.results": ("Solution", "SolutionSet"),
        "repro.sparql.shapes": ("QueryShape", "classify_shape"),
        "repro.sparql.fragments": ("SparqlFragment",),
    },
)
