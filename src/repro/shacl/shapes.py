"""SHACL-lite shapes: a deterministic dict/JSON shape language.

The subset covers the constraint components the validation workload
needs (W3C SHACL names in ``camelCase`` on the wire):

* **Targets** -- ``targetClass`` (focus nodes are instances of a class)
  or ``targetSubjectsOf`` (focus nodes are subjects of a predicate);
  exactly one per shape.
* **Cardinality** -- ``minCount`` / ``maxCount`` over the *distinct*
  value set of a property path.
* **Value type** -- ``class`` (every value is an instance of a class),
  ``datatype`` (every value is a literal of a datatype; plain literals
  count as ``xsd:string``, per SHACL), ``nodeKind`` (``IRI`` /
  ``Literal`` / ``BlankNode``).
* **Value set** -- ``hasValue`` (the value set contains a given term),
  ``in`` (every value is drawn from a given list).

Terms inside ``hasValue`` / ``in`` are explicit JSON objects --
``{"iri": "..."}`` or ``{"literal": "...", "datatype": "...",
"language": "..."}`` -- never guessed from bare strings.  Unknown keys
anywhere are hard errors: a typoed constraint must fail loudly, not
validate vacuously.

The dict form is the *source of truth*: :meth:`ShapeSet.to_payload`
re-emits it deterministically (sorted keys under ``canonical_json``),
so a shape set round-trips byte-identically -- the property the fixture
corpus under ``examples/shapes/`` pins.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.rdf.terms import Literal, Term, URI
from repro.rdf.vocab import RDF

#: Allowed ``nodeKind`` constraint values.
NODE_KINDS = ("BlankNode", "IRI", "Literal")

#: Shape names feed compiled-query ids and report keys; keep them to a
#: safe token so every downstream rendering is unambiguous.
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]*$")


class ShaclError(ValueError):
    """A shape definition is malformed."""


def term_from_payload(payload: Any, where: str) -> Term:
    """Decode one explicit term object (``iri`` or ``literal`` form)."""
    if not isinstance(payload, dict):
        raise ShaclError(
            "%s: terms must be objects like {'iri': ...} or "
            "{'literal': ...}, got %r" % (where, payload)
        )
    unknown = sorted(set(payload) - {"iri", "literal", "datatype", "language"})
    if unknown:
        raise ShaclError(
            "%s: unknown term keys: %s" % (where, ", ".join(unknown))
        )
    if "iri" in payload:
        if len(payload) != 1:
            raise ShaclError(
                "%s: an iri term takes no other keys" % where
            )
        return URI(_require_str(payload["iri"], where + ".iri"))
    if "literal" not in payload:
        raise ShaclError(
            "%s: a term needs either 'iri' or 'literal'" % where
        )
    datatype = payload.get("datatype")
    language = payload.get("language")
    try:
        return Literal(
            _require_str(payload["literal"], where + ".literal"),
            datatype=(
                URI(_require_str(datatype, where + ".datatype"))
                if datatype is not None
                else None
            ),
            language=(
                _require_str(language, where + ".language")
                if language is not None
                else None
            ),
        )
    except ValueError as exc:
        raise ShaclError("%s: %s" % (where, exc)) from exc


def term_to_payload(term: Term) -> Dict[str, Any]:
    """The explicit JSON object for one term (inverse of the decoder)."""
    if isinstance(term, URI):
        return {"iri": term.value}
    if isinstance(term, Literal):
        payload: Dict[str, Any] = {"literal": term.lexical}
        if term.datatype is not None:
            payload["datatype"] = term.datatype.value
        if term.language is not None:
            payload["language"] = term.language
        return payload
    raise ShaclError("blank nodes cannot appear in shape definitions")


def _require_str(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ShaclError("%s must be a non-empty string" % where)
    return value


def _require_count(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ShaclError("%s must be a non-negative integer" % where)
    return value


@dataclass(frozen=True)
class PropertyShape:
    """One constrained property path of a node shape."""

    path: str  # predicate IRI (bare, not bracketed)
    min_count: int = 0
    max_count: Optional[int] = None
    class_: Optional[str] = None  # value-class IRI
    datatype: Optional[str] = None  # literal datatype IRI
    node_kind: Optional[str] = None  # one of NODE_KINDS
    has_value: Optional[Term] = None
    in_values: Tuple[Term, ...] = ()

    _KEYS = frozenset(
        {
            "path",
            "minCount",
            "maxCount",
            "class",
            "datatype",
            "nodeKind",
            "hasValue",
            "in",
        }
    )

    @classmethod
    def from_payload(cls, payload: Any, where: str) -> "PropertyShape":
        if not isinstance(payload, dict):
            raise ShaclError("%s must be an object" % where)
        unknown = sorted(set(payload) - cls._KEYS)
        if unknown:
            raise ShaclError(
                "%s: unknown constraint keys: %s"
                % (where, ", ".join(unknown))
            )
        if "path" not in payload:
            raise ShaclError("%s: 'path' is required" % where)
        min_count = (
            _require_count(payload["minCount"], where + ".minCount")
            if "minCount" in payload
            else 0
        )
        max_count = (
            _require_count(payload["maxCount"], where + ".maxCount")
            if "maxCount" in payload
            else None
        )
        if max_count is not None and max_count < min_count:
            raise ShaclError(
                "%s: maxCount (%d) below minCount (%d)"
                % (where, max_count, min_count)
            )
        node_kind = payload.get("nodeKind")
        if node_kind is not None and node_kind not in NODE_KINDS:
            raise ShaclError(
                "%s.nodeKind must be one of %s, got %r"
                % (where, "/".join(NODE_KINDS), node_kind)
            )
        in_values: Tuple[Term, ...] = ()
        if "in" in payload:
            if not isinstance(payload["in"], list) or not payload["in"]:
                raise ShaclError(
                    "%s.in must be a non-empty list of terms" % where
                )
            in_values = tuple(
                term_from_payload(item, "%s.in[%d]" % (where, index))
                for index, item in enumerate(payload["in"])
            )
        return cls(
            path=_require_str(payload["path"], where + ".path"),
            min_count=min_count,
            max_count=max_count,
            class_=(
                _require_str(payload["class"], where + ".class")
                if "class" in payload
                else None
            ),
            datatype=(
                _require_str(payload["datatype"], where + ".datatype")
                if "datatype" in payload
                else None
            ),
            node_kind=node_kind,
            has_value=(
                term_from_payload(payload["hasValue"], where + ".hasValue")
                if "hasValue" in payload
                else None
            ),
            in_values=in_values,
        )

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"path": self.path}
        if self.min_count:
            payload["minCount"] = self.min_count
        if self.max_count is not None:
            payload["maxCount"] = self.max_count
        if self.class_ is not None:
            payload["class"] = self.class_
        if self.datatype is not None:
            payload["datatype"] = self.datatype
        if self.node_kind is not None:
            payload["nodeKind"] = self.node_kind
        if self.has_value is not None:
            payload["hasValue"] = term_to_payload(self.has_value)
        if self.in_values:
            payload["in"] = [term_to_payload(t) for t in self.in_values]
        return payload


@dataclass(frozen=True)
class NodeShape:
    """A named shape: one target declaration plus property constraints."""

    name: str
    target_class: Optional[str] = None
    target_subjects_of: Optional[str] = None
    properties: Tuple[PropertyShape, ...] = ()

    _KEYS = frozenset(
        {"name", "targetClass", "targetSubjectsOf", "properties"}
    )

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ShaclError(
                "shape name %r must match %s"
                % (self.name, _NAME_RE.pattern)
            )
        declared = [
            t
            for t in (self.target_class, self.target_subjects_of)
            if t is not None
        ]
        if len(declared) != 1:
            raise ShaclError(
                "shape %r needs exactly one of targetClass / "
                "targetSubjectsOf" % self.name
            )

    @classmethod
    def from_payload(cls, payload: Any, where: str) -> "NodeShape":
        if not isinstance(payload, dict):
            raise ShaclError("%s must be an object" % where)
        unknown = sorted(set(payload) - cls._KEYS)
        if unknown:
            raise ShaclError(
                "%s: unknown shape keys: %s" % (where, ", ".join(unknown))
            )
        if "name" not in payload:
            raise ShaclError("%s: 'name' is required" % where)
        name = _require_str(payload["name"], where + ".name")
        raw_properties = payload.get("properties", [])
        if not isinstance(raw_properties, list):
            raise ShaclError("%s.properties must be a list" % where)
        properties = tuple(
            PropertyShape.from_payload(
                item, "%s.properties[%d]" % (where, index)
            )
            for index, item in enumerate(raw_properties)
        )
        return cls(
            name=name,
            target_class=(
                _require_str(payload["targetClass"], where + ".targetClass")
                if "targetClass" in payload
                else None
            ),
            target_subjects_of=(
                _require_str(
                    payload["targetSubjectsOf"], where + ".targetSubjectsOf"
                )
                if "targetSubjectsOf" in payload
                else None
            ),
            properties=properties,
        )

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name}
        if self.target_class is not None:
            payload["targetClass"] = self.target_class
        if self.target_subjects_of is not None:
            payload["targetSubjectsOf"] = self.target_subjects_of
        if self.properties:
            payload["properties"] = [
                prop.to_payload() for prop in self.properties
            ]
        return payload


@dataclass(frozen=True)
class ShapeSet:
    """An ordered collection of uniquely-named node shapes."""

    shapes: Tuple[NodeShape, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ShaclError("a shape set needs at least one shape")
        seen: List[str] = []
        for shape in self.shapes:
            if shape.name in seen:
                raise ShaclError("duplicate shape name %r" % shape.name)
            seen.append(shape.name)

    def __len__(self) -> int:
        return len(self.shapes)

    def __iter__(self):
        return iter(self.shapes)

    @classmethod
    def from_payload(cls, payload: Any) -> "ShapeSet":
        if not isinstance(payload, dict):
            raise ShaclError("a shape set must be a JSON object")
        unknown = sorted(set(payload) - {"shapes"})
        if unknown:
            raise ShaclError(
                "unknown shape-set keys: %s" % ", ".join(unknown)
            )
        raw = payload.get("shapes")
        if not isinstance(raw, list) or not raw:
            raise ShaclError("'shapes' must be a non-empty list")
        return cls(
            shapes=tuple(
                NodeShape.from_payload(item, "shapes[%d]" % index)
                for index, item in enumerate(raw)
            )
        )

    @classmethod
    def from_json(cls, text: str) -> "ShapeSet":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ShaclError("shape set is not valid JSON: %s" % exc) from exc
        return cls.from_payload(payload)

    def to_payload(self) -> Dict[str, Any]:
        return {"shapes": [shape.to_payload() for shape in self.shapes]}

    def to_json(self) -> str:
        """Pretty, byte-stable JSON (the ``examples/shapes/*.json`` form)."""
        return (
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )


def load_shapes_file(path: str) -> ShapeSet:
    """Read one shape-set JSON file (:class:`ShaclError` on bad content)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ShaclError("cannot read shapes file: %s" % exc) from exc
    return ShapeSet.from_json(text)


def default_shapes_for(
    graph, max_classes: int = 3, max_properties: int = 2
) -> ShapeSet:
    """Derive a plausible shape set from *graph* itself.

    For the ``max_classes`` most-populated classes (ties broken by IRI),
    emit a ``targetClass`` shape constraining the ``max_properties``
    most-used predicates of its instances to ``minCount 1``.  Every
    predicate referenced exists in the graph, so the compiled queries
    pass the admission linter (QL004) -- this is what the ``--workload
    shacl`` loadtest profile runs when no shapes file is given.
    """
    class_counts: Dict[str, int] = {}
    for triple in graph.triples((None, RDF.type, None)):
        if isinstance(triple.object, URI):
            value = triple.object.value
            class_counts[value] = class_counts.get(value, 0) + 1
    ranked = sorted(class_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    shapes: List[NodeShape] = []
    for index, (cls_iri, _count) in enumerate(ranked[:max_classes]):
        members = graph.instances_of(URI(cls_iri))
        predicate_counts: Dict[str, int] = {}
        for member in sorted(members, key=lambda t: t.sort_key()):
            for triple in graph.triples((member, None, None)):
                if triple.predicate == RDF.type:
                    continue
                value = triple.predicate.value
                predicate_counts[value] = predicate_counts.get(value, 0) + 1
        top = sorted(
            predicate_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:max_properties]
        shapes.append(
            NodeShape(
                name="Shape%d" % index,
                target_class=cls_iri,
                properties=tuple(
                    PropertyShape(path=path, min_count=1)
                    for path, _ in top
                ),
            )
        )
    if not shapes:
        raise ShaclError(
            "graph has no rdf:type triples to derive shapes from"
        )
    return ShapeSet(shapes=tuple(shapes))
