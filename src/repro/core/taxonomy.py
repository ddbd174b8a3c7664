"""Figure 1: the taxonomy of dimensions for organizing RDF query
processing methods, as an executable data structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class TaxonomyNode:
    """A node in the taxonomy tree of Figure 1."""

    label: str
    children: List["TaxonomyNode"] = field(default_factory=list)

    def leaves(self) -> List[str]:
        if not self.children:
            return [self.label]
        out: List[str] = []
        for child in self.children:
            out.extend(child.leaves())
        return out


#: Figure 1 verbatim: the two axes and their leaf options.
TAXONOMY = TaxonomyNode(
    "RDF query processing methods on Apache Spark",
    [
        TaxonomyNode(
            "Data Model",
            [
                TaxonomyNode("The Triple Model"),
                TaxonomyNode("The Graph Model"),
            ],
        ),
        TaxonomyNode(
            "Apache Spark Abstraction",
            [
                TaxonomyNode("RDD"),
                TaxonomyNode("DataFrames"),
                TaxonomyNode("Spark SQL"),
                TaxonomyNode("GraphX"),
                TaxonomyNode("GraphFrames"),
            ],
        ),
    ],
)


def render_taxonomy(node: TaxonomyNode = TAXONOMY, indent: int = 0) -> str:
    """ASCII rendering of the taxonomy tree (the Figure 1 reproduction)."""
    lines = ["%s%s" % ("  " * indent, node.label if indent == 0 else "- " + node.label)]
    for child in node.children:
        lines.append(render_taxonomy(child, indent + 1))
    return "\n".join(lines)
