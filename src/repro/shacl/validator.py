"""The SHACL-lite validator: fan out compiled queries, fold conformance.

A :class:`ShaclValidator` owns no execution strategy of its own -- it
drives one of three executors, all of which speak the *canonical wire
form* (:func:`repro.server.protocol.canonical_result`), so the report
body is identical no matter where the queries ran:

* :class:`EngineExecutor` -- a bare warmed engine (any of the survey's
  systems); the byte-identity acceptance check runs one of these per
  engine.
* :class:`ServiceExecutor` -- a :class:`~repro.server.service.QueryService`;
  every compiled query is submitted as its own request, so it is linted,
  admitted, billed, plan-cached, and deadline-checked individually --
  validation as a real serving workload.
* :class:`LocalGraphExecutor` -- the reference algebra evaluator over a
  plain :class:`~repro.rdf.graph.RDFGraph`; what federated remote-first
  validation runs over a harvested :class:`~repro.federation.Subgraph`.

Class probes (``ASK { <value> rdf:type <class> }``) are generated
per *distinct* URI value during validation and memoized per run, so the
same membership question is never executed twice in one validate() call
even when shapes overlap.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.rdf.terms import BNode, Literal, Term, URI, read_term
from repro.shacl.compile import (
    CompiledQuery,
    class_probe,
    target_query,
    values_query,
)
from repro.shacl.report import ValidationReport
from repro.shacl.shapes import NodeShape, PropertyShape, ShapeSet
from repro.server.protocol import canonical_result
from repro.spark.deadline import cost_units
from repro.spark.metrics import MetricsCollector
from repro.spark.tracing import Tracer

_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
_RDF_LANG_STRING = (
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
)


class ValidationExecutionError(RuntimeError):
    """A compiled query could not be executed (rejected, deadline, ...)."""


def node_kind_of(term: Term) -> str:
    if isinstance(term, URI):
        return "IRI"
    if isinstance(term, BNode):
        return "BlankNode"
    return "Literal"


def effective_datatype(literal: Literal) -> str:
    """The literal's datatype IRI under SHACL conventions.

    Plain literals count as ``xsd:string``; language-tagged literals as
    ``rdf:langString``.
    """
    if literal.language is not None:
        return _RDF_LANG_STRING
    if literal.datatype is not None:
        return literal.datatype.value
    return _XSD_STRING


class EngineExecutor:
    """Run compiled queries on one warmed engine instance."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.label = engine.profile.name

    def run(
        self, compiled: CompiledQuery
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        from repro.sparql.parser import parse_sparql

        plan = parse_sparql(compiled.text)
        run = self.engine.measure(plan)
        return canonical_result(run.answer, plan), {
            "id": compiled.id,
            "kind": compiled.kind,
            "status": "ok",
            "cache": "none",
            "units": cost_units(run.cost),
            "engine": self.label,
        }


class ServiceExecutor:
    """Submit each compiled query as its own billed service request."""

    def __init__(
        self,
        service,
        tenant: str = "shacl",
        deadline: Optional[int] = None,
        id_prefix: str = "",
    ) -> None:
        self.service = service
        self.tenant = tenant
        self.deadline = deadline
        self.id_prefix = id_prefix
        self.label = "service:%s" % (
            "routed" if service.route_enabled else service.config.engine
        )

    def run(
        self, compiled: CompiledQuery
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        import json

        from repro.server.service import QueryRequest

        outcome = self.service.submit(
            QueryRequest(
                text=compiled.text,
                tenant=self.tenant,
                id=self.id_prefix + compiled.id,
                deadline=self.deadline,
            )
        )
        if outcome.status != "ok":
            raise ValidationExecutionError(
                "%s: %s%s"
                % (
                    compiled.id,
                    outcome.status,
                    (": " + outcome.error) if outcome.error else "",
                )
            )
        return json.loads(outcome.payload), {
            "id": compiled.id,
            "kind": compiled.kind,
            "status": outcome.status,
            "cache": outcome.cache,
            "units": outcome.service_units,
            "engine": outcome.engine or self.service.config.engine,
        }


class LocalGraphExecutor:
    """The reference algebra evaluator over a plain local graph."""

    label = "local"

    def __init__(self, graph) -> None:
        self.graph = graph

    def run(
        self, compiled: CompiledQuery
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        from repro.sparql.algebra import evaluate
        from repro.sparql.parser import parse_sparql

        plan = parse_sparql(compiled.text)
        payload = canonical_result(evaluate(plan, self.graph), plan)
        return payload, {
            "id": compiled.id,
            "kind": compiled.kind,
            "status": "ok",
            "cache": "none",
            "units": 0,
            "engine": self.label,
        }


class ShaclValidator:
    """Validate a shape set through one executor (see module docstring)."""

    def __init__(self, executor, tracer=None) -> None:
        self.executor = executor
        self.tracer = tracer or Tracer(MetricsCollector())

    def validate(self, shapes: ShapeSet) -> ValidationReport:
        records: List[Dict[str, Any]] = []
        violations: List[Dict[str, str]] = []
        per_shape: Dict[str, Dict[str, int]] = {}
        probe_cache: Dict[Tuple[str, str], bool] = {}

        def run(compiled: CompiledQuery) -> Dict[str, Any]:
            payload, record = self.executor.run(compiled)
            records.append(record)
            return payload

        for shape in shapes:
            with self.tracer.span("validate", name=shape.name) as span:
                focus_count, shape_violations = self._validate_shape(
                    shape, run, probe_cache
                )
                if span is not None:
                    span.attrs["focus_nodes"] = focus_count
                    span.attrs["violations"] = len(shape_violations)
            per_shape[shape.name] = {
                "focus_nodes": focus_count,
                "violations": len(shape_violations),
            }
            violations.extend(shape_violations)

        violations.sort(
            key=lambda v: (
                v["shape"],
                v["focus"],
                v["path"],
                v["constraint"],
                v["value"],
            )
        )
        result_hits = sum(1 for r in records if r["cache"] == "result")
        report = ValidationReport(
            conforms=not violations,
            per_shape=per_shape,
            violations=violations,
            queries=len(records),
            accounting={
                "executor": self.executor.label,
                "units": sum(r["units"] for r in records),
                "executed": len(records),
                "cache_hits": result_hits,
                "result_hits": result_hits,
                "plan_hits": sum(
                    1 for r in records if r["cache"] == "plan"
                ),
                "records": records,
            },
        )
        return report

    def _validate_shape(
        self, shape: NodeShape, run, probe_cache
    ) -> Tuple[int, List[Dict[str, str]]]:
        violations: List[Dict[str, str]] = []
        target = run(target_query(shape))
        focuses = sorted({row[0] for row in target["rows"]})
        for index, prop in enumerate(shape.properties):
            values = run(values_query(shape, index))
            pairs = sorted({(row[0], row[1]) for row in values["rows"]})
            by_focus: Dict[str, List[str]] = {}
            for focus, value in pairs:
                by_focus.setdefault(focus, []).append(value)
            violations.extend(
                self._check_property(
                    shape, index, prop, focuses, by_focus, run, probe_cache
                )
            )
        return len(focuses), violations

    def _check_property(
        self,
        shape: NodeShape,
        index: int,
        prop: PropertyShape,
        focuses: List[str],
        by_focus: Dict[str, List[str]],
        run,
        probe_cache: Dict[Tuple[str, str], bool],
    ) -> List[Dict[str, str]]:
        violations: List[Dict[str, str]] = []

        def violation(focus: str, constraint: str, message: str, value=""):
            violations.append(
                {
                    "shape": shape.name,
                    "focus": focus,
                    "path": prop.path,
                    "constraint": constraint,
                    "value": value,
                    "message": message,
                }
            )

        # Cardinality and hasValue are per-focus properties of the
        # (deduplicated) value set.
        for focus in focuses:
            values = by_focus.get(focus, [])
            count = len(values)
            if count < prop.min_count:
                violation(
                    focus,
                    "minCount",
                    "expected at least %d value(s), found %d"
                    % (prop.min_count, count),
                )
            if prop.max_count is not None and count > prop.max_count:
                violation(
                    focus,
                    "maxCount",
                    "expected at most %d value(s), found %d"
                    % (prop.max_count, count),
                )
            if prop.has_value is not None:
                expected = prop.has_value.n3()
                if expected not in values:
                    violation(
                        focus,
                        "hasValue",
                        "required value missing",
                        expected,
                    )

        # Per-value checks; class membership for URI values is deferred
        # to probes so each distinct question is asked exactly once.
        allowed = {t.n3() for t in prop.in_values}
        probe_values: List[str] = []
        for focus in focuses:
            for value in by_focus.get(focus, []):
                term = read_term(value)
                kind = node_kind_of(term)
                if prop.node_kind is not None and kind != prop.node_kind:
                    violation(
                        focus,
                        "nodeKind",
                        "expected %s, got %s" % (prop.node_kind, kind),
                        value,
                    )
                if prop.datatype is not None:
                    if not isinstance(term, Literal):
                        violation(
                            focus,
                            "datatype",
                            "expected a literal of <%s>, got %s"
                            % (prop.datatype, kind),
                            value,
                        )
                    elif effective_datatype(term) != prop.datatype:
                        violation(
                            focus,
                            "datatype",
                            "expected datatype <%s>, got <%s>"
                            % (prop.datatype, effective_datatype(term)),
                            value,
                        )
                if prop.in_values and value not in allowed:
                    violation(
                        focus, "in", "value outside the allowed list", value
                    )
                if prop.class_ is not None:
                    if isinstance(term, URI):
                        if value not in probe_values:
                            probe_values.append(value)
                    else:
                        violation(
                            focus,
                            "class",
                            "a %s is never an instance of <%s>"
                            % (kind.lower(), prop.class_),
                            value,
                        )

        if prop.class_ is not None:
            failed = set()
            for value in sorted(probe_values):
                key = (value, prop.class_)
                if key not in probe_cache:
                    probe = class_probe(
                        shape, index, read_term(value), prop.class_
                    )
                    probe_cache[key] = bool(run(probe)["value"])
                if not probe_cache[key]:
                    failed.add(value)
            for focus in focuses:
                for value in by_focus.get(focus, []):
                    if value in failed:
                        violation(
                            focus,
                            "class",
                            "not an instance of <%s>" % prop.class_,
                            value,
                        )
        return violations
