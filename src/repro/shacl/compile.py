"""Shape -> SPARQL compilation: targets, values, class probes, harvests.

Every shape compiles to a small, fixed family of queries:

* **target** -- ``SELECT ?focus`` for the shape's focus nodes: instances
  of ``targetClass``, or subjects of ``targetSubjectsOf``.
* **values** (one per property shape) -- ``SELECT ?focus ?value`` joining
  the target pattern with the property path, so every (focus, value)
  pair arrives in one round trip per constrained property.
* **class probe** (one per *distinct* URI value under an ``sh:class``
  constraint) -- ``ASK { <value> rdf:type <class> }``; generated during
  validation because the value set is data-dependent.  These probes are
  what makes validation genuinely bursty.
* **harvest** (federation) -- ``CONSTRUCT`` queries that extract exactly
  the triples the compiled SELECT/ASK queries touch, so a harvested
  subgraph validates identically to the remote graph (the differential
  property ``tests/federation/test_subgraph.py`` pins).

Only pure-BGP SPARQL is emitted (no DISTINCT/FILTER): every engine in
the survey accepts the whole family, and deduplication happens in the
validator over canonical wire rows instead.  Compiled text is a pure
function of the shape set -- the fixture corpus pins it byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.rdf.terms import Term, URI
from repro.rdf.vocab import RDF
from repro.shacl.shapes import NodeShape, ShapeSet

#: The variable names every compiled query uses (report-stable).
FOCUS_VAR = "?focus"
VALUE_VAR = "?value"


@dataclass(frozen=True)
class CompiledQuery:
    """One SPARQL query compiled from a shape."""

    shape: str  # owning shape name
    id: str  # deterministic id ("shacl/<shape>/<role>")
    kind: str  # target | values | class | harvest
    text: str  # the SPARQL text submitted downstream


def _iri(value: str) -> str:
    return URI(value).n3()


def _target_pattern(shape: NodeShape, focus: str = FOCUS_VAR) -> str:
    """The BGP fragment selecting the shape's focus nodes."""
    if shape.target_class is not None:
        return "%s %s %s" % (focus, RDF.type.n3(), _iri(shape.target_class))
    return "%s %s ?__target" % (focus, _iri(shape.target_subjects_of))


def target_query(shape: NodeShape) -> CompiledQuery:
    return CompiledQuery(
        shape=shape.name,
        id="shacl/%s/target" % shape.name,
        kind="target",
        text="SELECT %s WHERE { %s }" % (FOCUS_VAR, _target_pattern(shape)),
    )


def values_query(shape: NodeShape, index: int) -> CompiledQuery:
    prop = shape.properties[index]
    return CompiledQuery(
        shape=shape.name,
        id="shacl/%s/p%d/values" % (shape.name, index),
        kind="values",
        text="SELECT %s %s WHERE { %s . %s %s %s }"
        % (
            FOCUS_VAR,
            VALUE_VAR,
            _target_pattern(shape),
            FOCUS_VAR,
            _iri(prop.path),
            VALUE_VAR,
        ),
    )


def class_probe(
    shape: NodeShape, index: int, value: Term, class_iri: str
) -> CompiledQuery:
    """One membership probe: is *value* an instance of *class_iri*?

    Only URI values are probed -- literals and blank nodes violate an
    ``sh:class`` constraint without a query (a literal is never a class
    instance; a blank-node label in query text would be a fresh
    variable, not a reference).
    """
    if not isinstance(value, URI):
        raise ValueError(
            "class probes are only compiled for URI values, got %r"
            % (value,)
        )
    return CompiledQuery(
        shape=shape.name,
        id="shacl/%s/p%d/class?value=%s" % (shape.name, index, value.n3()),
        kind="class",
        text="ASK { %s %s %s }"
        % (value.n3(), RDF.type.n3(), _iri(class_iri)),
    )


def compile_shape(shape: NodeShape) -> List[CompiledQuery]:
    """The static queries of one shape: target plus one values per property."""
    compiled = [target_query(shape)]
    for index in range(len(shape.properties)):
        compiled.append(values_query(shape, index))
    return compiled


def compile_shape_set(shapes: ShapeSet) -> List[CompiledQuery]:
    """Every static query of the set, in shape definition order."""
    compiled: List[CompiledQuery] = []
    for shape in shapes:
        compiled.extend(compile_shape(shape))
    return compiled


def harvest_queries(shapes: ShapeSet) -> List[CompiledQuery]:
    """CONSTRUCT queries covering every triple validation will touch.

    Per shape: the target triples themselves, each property's (focus,
    value) triples, and -- for ``sh:class`` constraints -- the
    ``rdf:type`` triples of the values, so local class probes answer
    exactly as the remote would.  The harvester adds LIMIT/OFFSET
    paging on top (stable under the protocol's total order).
    """
    compiled: List[CompiledQuery] = []
    for shape in shapes:
        if shape.target_class is not None:
            target_template = "%s %s %s" % (
                FOCUS_VAR,
                RDF.type.n3(),
                _iri(shape.target_class),
            )
        else:
            target_template = "%s %s ?__target" % (
                FOCUS_VAR,
                _iri(shape.target_subjects_of),
            )
        compiled.append(
            CompiledQuery(
                shape=shape.name,
                id="shacl/%s/harvest/target" % shape.name,
                kind="harvest",
                text="CONSTRUCT { %s } WHERE { %s }"
                % (target_template, target_template),
            )
        )
        for index, prop in enumerate(shape.properties):
            value_triple = "%s %s %s" % (
                FOCUS_VAR,
                _iri(prop.path),
                VALUE_VAR,
            )
            compiled.append(
                CompiledQuery(
                    shape=shape.name,
                    id="shacl/%s/harvest/p%d" % (shape.name, index),
                    kind="harvest",
                    text="CONSTRUCT { %s } WHERE { %s . %s }"
                    % (value_triple, _target_pattern(shape), value_triple),
                )
            )
            if prop.class_ is not None:
                membership = "%s %s %s" % (
                    VALUE_VAR,
                    RDF.type.n3(),
                    _iri(prop.class_),
                )
                compiled.append(
                    CompiledQuery(
                        shape=shape.name,
                        id="shacl/%s/harvest/p%d/class" % (shape.name, index),
                        kind="harvest",
                        text="CONSTRUCT { %s } WHERE { %s . %s . %s }"
                        % (
                            membership,
                            _target_pattern(shape),
                            value_triple,
                            membership,
                        ),
                    )
                )
    return compiled
