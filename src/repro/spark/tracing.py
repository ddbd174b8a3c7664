"""Structured query tracing for the simulated cluster.

The paper's assessment is built from *cost arguments* -- shuffle volume,
join comparisons, broadcast size -- but flat end-of-run counters cannot say
*where inside a query* each engine paid its cost.  This module adds the
missing dimension: a :class:`Tracer`, owned by every
:class:`~repro.spark.context.SparkContext`, records a tree of
:class:`Span` events (algebra operators, BGP steps, shuffles, scans,
broadcasts) and attaches to each span the marginal
:class:`~repro.spark.metrics.MetricsSnapshot` delta accumulated while it
was open.  That reproduces the per-stage cost attribution style of the
S2RDF and Naacke et al. evaluations.

Design constraints:

* **Deterministic.**  Spans carry no wall-clock time, only a sequence
  number and metric deltas, so two runs of the same query produce
  byte-identical traces (and JSON exports).
* **Conservation.**  A span's ``metrics`` delta is *inclusive*: it counts
  everything charged while the span was open, including its children.
  ``self_metrics`` subtracts the children, so summing ``self_metrics``
  over a whole trace reproduces the flat end-of-run totals exactly.
* **Free when off.**  A disabled tracer's :meth:`Tracer.span` hands out
  one shared, stateless scope: a span costs one call and allocates
  nothing -- no :class:`Span`, no snapshot -- so every operator opens
  its span the same way, traced or not.

Span kinds emitted by the substrate and the shared driver:

``query``
    Root span around one :meth:`SparkRdfEngine.execute` call.
``bgp`` / ``join`` / ``leftjoin`` / ``union`` / ``filter``
    One per SPARQL algebra operator evaluated by the shared driver.
``optimize``
    Cost-based planning of one BGP (:mod:`repro.optimizer`); name is the
    ordering mode, attrs carry the chosen order, the per-step physical
    strategies and the final cardinality estimate.
``bgp_step``
    One incremental pattern join inside a BGP evaluation.  On the native
    path (:func:`repro.systems.base.join_binding_rdds`) the name is
    ``hash`` or ``cartesian``; on the optimized path the name is the
    physical strategy (``scan``/``broadcast``/``local``/``shuffle``/
    ``cartesian``) and attrs carry ``est_rows``/``actual_rows`` (the
    q-error inputs) plus ``est_build`` for join steps.
``sql``
    One per logical plan node executed by the Spark-SQL executor.
``shuffle``
    One per materialized shuffle (:class:`~repro.spark.rdd.ShuffledRDD`).
``scan``
    One per leaf partition read.
``broadcast``
    One per broadcast variable shipped.
``join`` (name ``broadcast``/``partitioned``)
    DataFrame join strategy selection.
``fault``
    One injected fault event (name ``fail``/``lose``/``straggle``; attrs
    carry stage/partition/attempt).  A ``lose`` span *contains* the
    lineage recomputation it triggered, so recovery cost is attributed
    to the failure that caused it.
``retry``
    One task re-launch after an injected failure (name ``attemptN``).

The serving layer (:mod:`repro.server`) runs a second tracer over its
own service-level collector and adds:

``request``
    Root span around one executed request (name = request id; attrs
    carry the tenant plus the cache tier and status that resolved it).
    Engine work is charged to the engine's own context, not this
    tracer, keeping the service and substrate clocks separable.
``commit``
    One graph-version bump, with the new version and the invalidation
    count it caused.
``lint``
    Static analysis of one request at admission
    (:mod:`repro.analysis.query`); attrs carry the error and warning
    counts and whether the request was rejected.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

from repro.spark.metrics import MetricsCollector, MetricsSnapshot

#: Bumped when the JSON trace layout changes incompatibly.
TRACE_FORMAT_VERSION = 1


class Span:
    """One node of an execution trace.

    Attributes
    ----------
    kind:
        The span's category (see the module docstring for the vocabulary).
    name:
        A short human label, e.g. the engine name or an RDD id.
    attrs:
        JSON-serializable details (pattern text, join keys, byte counts).
    metrics:
        Inclusive counter deltas charged while the span was open; only
        counters that changed appear.
    children:
        Nested spans, in completion order.
    seq:
        Deterministic creation order within one trace (root = 0 is not
        guaranteed; the counter is shared across all spans of a tracer).
    """

    __slots__ = ("kind", "name", "attrs", "metrics", "children", "seq")

    def __init__(
        self,
        kind: str,
        name: str = "",
        attrs: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, int]] = None,
        children: Optional[List["Span"]] = None,
        seq: int = 0,
    ) -> None:
        self.kind = kind
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.metrics: Dict[str, int] = dict(metrics or {})
        self.children: List[Span] = list(children or [])
        self.seq = seq

    # ------------------------------------------------------------------
    # Metric views
    # ------------------------------------------------------------------

    @property
    def self_metrics(self) -> Dict[str, int]:
        """This span's own charges: inclusive minus the children's inclusive."""
        own = dict(self.metrics)
        for child in self.children:
            for name, value in child.metrics.items():
                own[name] = own.get(name, 0) - value
        return {name: value for name, value in own.items() if value}

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            for span in child.walk():
                yield span

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "seq": self.seq}
        if self.name:
            out["name"] = self.name
        if self.attrs:
            out["attrs"] = self.attrs
        if self.metrics:
            out["metrics"] = self.metrics
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            kind=data["kind"],
            name=data.get("name", ""),
            attrs=data.get("attrs"),
            metrics=data.get("metrics"),
            children=[
                cls.from_dict(child) for child in data.get("children", ())
            ],
            seq=data.get("seq", 0),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return "Span(kind=%r, name=%r, children=%d)" % (
            self.kind,
            self.name,
            len(self.children),
        )


class Tracer:
    """Records nested spans with metric deltas for one SparkContext.

    Disabled by default; enable around the region of interest::

        sc.tracer.enable()
        engine.execute(query)
        sc.tracer.disable()
        print(render_trace(sc.tracer.roots))
    """

    def __init__(self, metrics: MetricsCollector) -> None:
        self._metrics = metrics
        self.enabled = False
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def clear(self) -> "Tracer":
        """Drop all recorded spans (keeps the enabled flag)."""
        self.roots = []
        self._stack = []
        self._seq = 0
        return self

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, kind: str, name: str = "", **attrs: Any):
        """The one way to open a span::

            with tracer.span(kind, name, **attrs) as span:
                ...

        On exit its inclusive metric delta is attached.  ``span`` is the
        :class:`Span` (so callers may add attrs discovered mid-flight),
        or ``None`` when tracing is disabled -- then the scope is one
        shared object that does nothing.
        """
        if not self.enabled:
            return _OFF
        return _Open(self, Span(kind, name, attrs))

    def materialize(self, rdd) -> Optional[int]:
        """Cache and count *rdd* now when tracing: its row count, else None.

        An operator whose cost is lazy calls this inside its span, so
        the charges land on that operator instead of wherever a
        downstream action happens to fire.  Consumers read the cache,
        so nothing is charged twice; untraced, *rdd* stays lazy.
        """
        if not self.enabled:
            return None
        rdd.cache()
        return rdd.count()


class _Off:
    """The scope a disabled tracer hands out: binds ``None``, records
    nothing.  It holds no state, so one instance serves every call."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_OFF = _Off()


class _Open:
    """One span of an enabled tracer, open from enter to exit."""

    __slots__ = ("tracer", "span", "before")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        tracer = self.tracer
        self.span.seq = tracer._seq
        tracer._seq += 1
        self.before = tracer._metrics.snapshot()
        tracer._stack.append(self.span)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        """Attach the span with its inclusive delta to its parent (or the
        roots) -- also when the body raised; the exception propagates."""
        tracer = self.tracer
        span = self.span
        delta = tracer._metrics.snapshot() - self.before
        span.metrics = {
            counter: value for counter, value in delta if value
        }
        tracer._stack.pop()
        if tracer._stack:
            tracer._stack[-1].children.append(span)
        else:
            tracer.roots.append(span)


# ----------------------------------------------------------------------
# JSON round-trip helpers
# ----------------------------------------------------------------------


def trace_payload(roots: List[Span]) -> Dict[str, Any]:
    """The canonical JSON-ready structure for a list of root spans."""
    return {
        "version": TRACE_FORMAT_VERSION,
        "spans": [span.to_dict() for span in roots],
    }


def trace_to_json(roots: List[Span], indent: Optional[int] = 2) -> str:
    return json.dumps(trace_payload(roots), indent=indent, sort_keys=True)


def trace_from_json(text: str) -> List[Span]:
    """Inverse of :func:`trace_to_json`."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(
            "unsupported trace version %r (expected %d)"
            % (version, TRACE_FORMAT_VERSION)
        )
    return [Span.from_dict(data) for data in payload.get("spans", ())]


def normalize_spans(roots: List[Span]) -> List[Dict[str, Any]]:
    """A canonical form of a trace, modulo concurrency nondeterminism.

    The parallel backend (:mod:`repro.spark.parallel`) merges worker
    spans in ascending task order, so two fields -- and only these two --
    may differ from an in-process run of the same query: the global
    ``seq`` numbering, and the relative order of *sibling* spans that
    came from different tasks.  This pass drops ``seq`` and sorts each
    sibling list by its canonical JSON, producing a structure that is
    equal across backends whenever the traces agree on everything that
    matters (kinds, names, attrs, per-span metric deltas, nesting).
    """

    def normalize(data: Dict[str, Any]) -> Dict[str, Any]:
        out = {
            key: value for key, value in data.items() if key != "seq"
        }
        children = [normalize(child) for child in data.get("children", ())]
        if children:
            out["children"] = sorted(
                children, key=lambda child: json.dumps(child, sort_keys=True)
            )
        return out

    return sorted(
        (normalize(span.to_dict()) for span in roots),
        key=lambda span: json.dumps(span, sort_keys=True),
    )


def trace_totals(roots: List[Span]) -> MetricsSnapshot:
    """Sum of the root spans' inclusive deltas.

    Because spans nest and each parent's delta includes its children, the
    roots alone reproduce the flat end-of-run totals for the traced region.
    """
    totals: Dict[str, int] = {}
    for span in roots:
        for counter, value in span.metrics.items():
            totals[counter] = totals.get(counter, 0) + value
    return MetricsSnapshot(totals)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

#: (counter, short label) pairs shown after each span, in display order.
_DISPLAY_COUNTERS = (
    ("records_scanned", "scan"),
    ("shuffle_records", "shuf"),
    ("shuffle_remote_records", "remote"),
    ("shuffle_bytes", "shufB"),
    ("join_comparisons", "cmp"),
    ("join_output_records", "out"),
    ("broadcast_bytes", "bcastB"),
    ("tasks", "tasks"),
    ("tasks_failed", "failed"),
    ("tasks_retried", "retried"),
    ("partitions_recomputed", "recomp"),
    ("recompute_comparisons", "recompT"),
    ("speculative_launches", "spec"),
)


def _format_counters(metrics: Dict[str, int]) -> str:
    parts = [
        "%s=%d" % (label, metrics[counter])
        for counter, label in _DISPLAY_COUNTERS
        if metrics.get(counter)
    ]
    return " ".join(parts)


def _span_label(span: Span) -> str:
    label = span.kind
    if span.name:
        label += " %s" % span.name
    details = " ".join(
        "%s=%s" % (key, value) for key, value in sorted(span.attrs.items())
    )
    if details:
        label += " {%s}" % details
    return label


def render_trace(
    roots: List[Span],
    indent: str = "  ",
    collapse_scans: bool = True,
) -> str:
    """Render spans as an indented tree annotated with per-span costs.

    ``collapse_scans`` folds runs of sibling per-partition ``scan`` spans
    into one summary line, keeping deep traces readable; the JSON export
    always keeps the full tree.
    """
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        cost = _format_counters(span.metrics)
        lines.append(
            "%s%s%s"
            % (indent * depth, _span_label(span), "  [%s]" % cost if cost else "")
        )
        pending_scans: List[Span] = []

        def flush_scans() -> None:
            if not pending_scans:
                return
            if len(pending_scans) <= 2 or not collapse_scans:
                for scan in pending_scans:
                    emit(scan, depth + 1)
            else:
                merged: Dict[str, int] = {}
                for scan in pending_scans:
                    for counter, value in scan.metrics.items():
                        merged[counter] = merged.get(counter, 0) + value
                cost = _format_counters(merged)
                lines.append(
                    "%sscan x%d%s"
                    % (
                        indent * (depth + 1),
                        len(pending_scans),
                        "  [%s]" % cost if cost else "",
                    )
                )
            pending_scans.clear()

        for child in span.children:
            if child.kind == "scan" and not child.children:
                pending_scans.append(child)
            else:
                flush_scans()
                emit(child, depth + 1)
        flush_scans()

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
