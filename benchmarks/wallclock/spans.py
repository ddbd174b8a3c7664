"""In-memory wall-clock spans recorded from the benchmark's own files.

The program under test has no wall-clock telemetry (the DT003 gate
forbids clock reads under ``src/repro``), so every span here brackets a
call *into* a layer's public function from outside.  Spans stay in
memory while the benchmark runs and are written out once, at exit.

A span is ``{id, parent, name, request, start, end, attrs}`` with times
in seconds since the recorder was created.  Every span of one request
carries the root span's ``request`` id.  A layer's *self time* is its
duration minus the part its child spans cover.
"""

import json
import time
from collections import defaultdict


class _Open:
    """One open span; closes itself on ``__exit__``."""

    __slots__ = ("_rec", "_span")

    def __init__(self, rec, span):
        self._rec = rec
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, *_exc):
        self._span["end"] = time.perf_counter() - self._rec.origin
        self._rec._stack.pop()
        return False


class _Off:
    """What a disabled recorder hands out: enters and exits, records nothing."""

    def __enter__(self):
        return None

    def __exit__(self, *_exc):
        return False


_OFF = _Off()


class SpanRecorder:
    """Collects spans while ``enabled``; a disabled recorder costs one call."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans = []
        self._stack = []

    def span(self, name, request=None, **attrs):
        """Open a span under the innermost open one.

        ``request`` names the request a *root* span belongs to; children
        inherit their parent's.  Use as ``with rec.span(...) as span``;
        ``span`` is the record (add ``attrs`` known only afterwards) or
        ``None`` when recording is off.
        """
        if not self.enabled:
            return _OFF
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "request": parent["request"] if parent else request,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return _Open(self, span)

    def add(self, name, start, end, **attrs):
        """File a span clocked elsewhere under the innermost open span.

        *start* and *end* are ``time.perf_counter`` readings -- of this
        process or of a child, which on Linux share the clock.
        """
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": parent["id"] if parent else None,
                "name": name,
                "request": parent["request"] if parent else None,
                "start": start - self.origin,
                "end": end - self.origin,
                "attrs": attrs,
            }
        )

    def dump(self, path, **header):
        """Write every span (and *header* fields) to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(header, spans=self.spans), handle)
            handle.write("\n")


def self_times(spans):
    """``{span id: self time in seconds}`` for closed *spans*."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def check_tree(spans):
    """Problems with the span tree, as strings; empty when well-formed.

    Checks: every span closed; a child lies inside its parent and shares
    its request id; no self time is negative; a request id names exactly
    one root span.
    """
    problems = []
    by_id = {s["id"]: s for s in spans}
    roots = defaultdict(int)
    slack = 1e-9
    for s in spans:
        if s["end"] is None:
            problems.append("span %d (%s) never closed" % (s["id"], s["name"]))
            continue
        if s["end"] < s["start"]:
            problems.append("span %d ends before it starts" % s["id"])
        if s["parent"] is None:
            if s["request"] is not None:
                roots[s["request"]] += 1
            continue
        parent = by_id[s["parent"]]
        if parent["end"] is None:
            continue
        if s["start"] < parent["start"] - slack or s["end"] > parent["end"] + slack:
            problems.append(
                "span %d (%s) lies outside its parent %d"
                % (s["id"], s["name"], parent["id"])
            )
        if s["request"] != parent["request"]:
            problems.append(
                "span %d carries request %r, its parent %r"
                % (s["id"], s["request"], parent["request"])
            )
    if not problems:
        for span_id, value in self_times(spans).items():
            if value < -slack:
                problems.append("span %d has negative self time" % span_id)
    for request, count in roots.items():
        if count != 1:
            problems.append("request %r has %d root spans" % (request, count))
    return problems


def self_time_by(spans, key):
    """Group self times: ``{key(span): [self seconds, ...]}``."""
    own = self_times(spans)
    groups = defaultdict(list)
    for s in spans:
        groups[key(s)].append(own[s["id"]])
    return groups
