"""Closed-loop load generation over deterministic virtual time.

The generator models the classic closed-loop client population: each of
``clients`` simulated clients submits a query, waits for its completion,
thinks for a seeded think time, and submits the next -- ``requests_per_client``
times.  Clients are spread round-robin over ``tenants`` tenants, so the
fair-share scheduler has real contention to arbitrate.

Time is *virtual*: the unit is the cost unit of
:mod:`repro.spark.deadline` (one task, one scanned record, one shuffled
record, one join comparison each cost one unit).  A request's service
time is the cost its actual execution charges (cache hits cost
:data:`~repro.server.service.CACHE_HIT_UNITS`); its latency is queue
wait plus service time.  Because arrivals, scheduling, execution, and
accounting are all pure functions of the seed and the graph, the whole
report -- throughput, p50/p95/p99, hit rates, rejections -- is
byte-reproducible across runs (asserted in
``tests/server/test_loadgen.py``).

The simulation is discrete-event: a heap of (time, seq) events where
``seq`` is allocation order, so simultaneous events resolve
deterministically.  Two event kinds:

* **arrival** -- a client submits.  A free pool worker dispatches it
  immediately; otherwise admission control either queues it or rejects
  it (:class:`~repro.server.admission.AdmissionRejectedError`), in which
  case the client backs off (a think time) and moves on to its next
  request.
* **completion** -- a worker frees.  The finished client schedules its
  next arrival after a think time, and the fair-share queue picks the
  next waiting request for the freed worker.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.server.admission import AdmissionRejectedError
from repro.server.service import QueryOutcome, QueryRequest, QueryService

#: Report format version (bumped on incompatible layout changes).
#: 2: per-tenant entries grew the full outcome breakdown (submitted,
#: ok, queue_rejected, lint_rejected, deadline_aborts, errors); the old
#: ambiguous per-tenant "rejected" is now "queue_rejected".
REPORT_FORMAT_VERSION = 2


#: The per-tenant counter template: every tenant entry carries the full
#: outcome breakdown, so per-tenant admission-queue rejections are
#: directly readable off the report (not inferable from totals).
TENANT_COUNTERS = (
    "submitted",
    "completed",
    "ok",
    "service_units",
    "queue_rejected",
    "lint_rejected",
    "deadline_aborts",
    "errors",
)


def percentile(values: Sequence[int], p: float) -> int:
    """Nearest-rank percentile of integer samples (0 for no samples)."""
    if not values:
        return 0
    ordered = sorted(values)
    if p <= 0:
        return ordered[0]
    rank = max(1, -(-int(p * len(ordered)) // 100))  # ceil(p*n/100), >= 1
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class LoadReport:
    """The artifact one load-generation run produces."""

    config: Dict[str, Any]
    submitted: int = 0
    completed: int = 0
    ok: int = 0
    rejected: int = 0
    lint_rejected: int = 0
    deadline_aborts: int = 0
    errors: int = 0
    duration_units: int = 0
    latencies: List[int] = field(default_factory=list)
    waits: List[int] = field(default_factory=list)
    max_queue_depth: int = 0
    per_tenant: Dict[str, Dict[str, int]] = field(default_factory=dict)
    cache: Dict[str, Any] = field(default_factory=dict)
    #: Per-shape aggregation (completed/ok/service_units) keyed by the
    #: *classified* shape of each completed request, not its name.
    per_shape: Dict[str, Dict[str, int]] = field(default_factory=dict)
    shape_latencies: Dict[str, List[int]] = field(default_factory=dict)
    #: Completions per serving engine: the routed winner under
    #: ``route=True``, the fixed engine otherwise.
    routed_to: Dict[str, int] = field(default_factory=dict)
    #: The service's routing-policy snapshot after the run (None when
    #: routing is off).
    routing_policy: Optional[Dict[str, Any]] = None

    def throughput_per_kilounit(self) -> float:
        if self.duration_units == 0:
            return 0.0
        return round(1000.0 * self.completed / self.duration_units, 6)

    def to_payload(self) -> Dict[str, Any]:
        latencies = self.latencies
        waits = self.waits
        mean_latency = (
            round(sum(latencies) / len(latencies), 6) if latencies else 0.0
        )
        mean_wait = round(sum(waits) / len(waits), 6) if waits else 0.0
        return {
            "version": REPORT_FORMAT_VERSION,
            "config": dict(self.config),
            "totals": {
                "submitted": self.submitted,
                "completed": self.completed,
                "ok": self.ok,
                "rejected": self.rejected,
                "lint_rejected": self.lint_rejected,
                "deadline_aborts": self.deadline_aborts,
                "errors": self.errors,
            },
            "virtual_duration_units": self.duration_units,
            "throughput_per_kilounit": self.throughput_per_kilounit(),
            "latency_units": {
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
                "mean": mean_latency,
                "max": max(latencies) if latencies else 0,
            },
            "queue": {
                "max_depth": self.max_queue_depth,
                "mean_wait_units": mean_wait,
            },
            "cache": dict(self.cache),
            "tenants": {k: dict(v) for k, v in sorted(self.per_tenant.items())},
            "shapes": {
                shape: dict(
                    counters,
                    latency_units={
                        "p50": percentile(
                            self.shape_latencies.get(shape, []), 50
                        ),
                        "p95": percentile(
                            self.shape_latencies.get(shape, []), 95
                        ),
                        "mean": (
                            round(
                                sum(self.shape_latencies[shape])
                                / len(self.shape_latencies[shape]),
                                6,
                            )
                            if self.shape_latencies.get(shape)
                            else 0.0
                        ),
                    },
                )
                for shape, counters in sorted(self.per_shape.items())
            },
            "routing": {
                "enabled": bool(self.config.get("route")),
                "routed_to": dict(sorted(self.routed_to.items())),
                "policy": self.routing_policy,
            },
        }

    def to_json(self) -> str:
        """Pretty, byte-stable JSON (the ``BENCH_server.json`` body)."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"


def build_workload(
    graph, size: int = 6, seed: int = 42
) -> List[Tuple[str, str]]:
    """A deterministic (name, query text) workload drawn from *graph*.

    Mixes single-pattern scans, subject stars, and two-hop paths built
    from the graph's own predicates, so every query has answers.  The
    workload is textual (the service boundary speaks SPARQL text), and
    the draw is seeded, so the same (graph, size, seed) always produces
    the same workload -- a precondition for byte-reproducible reports.
    """
    rng = random.Random(seed)
    predicates = sorted(
        {t.predicate for t in graph}, key=lambda term: term.sort_key()
    )
    if not predicates:
        raise ValueError("graph has no triples to build a workload from")
    # Subject stars: subjects carrying at least two distinct predicates.
    star_subjects = []
    for subject in sorted(graph.subjects(), key=lambda t: t.sort_key()):
        preds = sorted(
            {t.predicate for t in graph.triples((subject, None, None))},
            key=lambda t: t.sort_key(),
        )
        if len(preds) >= 2:
            star_subjects.append(preds)
    # Two-hop paths: predicate pairs (p, q) where some object of p is a
    # subject of q.
    subjects = set(graph.subjects())
    path_pairs = []
    for p in predicates:
        bridging = [
            t.object for t in graph.triples((None, p, None))
            if t.object in subjects
        ]
        if not bridging:
            continue
        follow = sorted(
            {
                t.predicate
                for node in bridging
                for t in graph.triples((node, None, None))
            },
            key=lambda t: t.sort_key(),
        )
        for q in follow:
            path_pairs.append((p, q))
    workload: List[Tuple[str, str]] = []
    for index in range(size):
        kind = index % 3
        if kind == 0 or (kind == 1 and not star_subjects) or (
            kind == 2 and not path_pairs
        ):
            predicate = rng.choice(predicates)
            workload.append(
                (
                    "single%d" % index,
                    "SELECT ?s ?o WHERE { ?s %s ?o }" % predicate.n3(),
                )
            )
        elif kind == 1:
            preds = rng.choice(star_subjects)[:2]
            workload.append(
                (
                    "star%d" % index,
                    "SELECT ?s ?o0 ?o1 WHERE { ?s %s ?o0 . ?s %s ?o1 }"
                    % (preds[0].n3(), preds[1].n3()),
                )
            )
        else:
            p, q = rng.choice(path_pairs)
            workload.append(
                (
                    "path%d" % index,
                    "SELECT ?a ?b ?c WHERE { ?a %s ?b . ?b %s ?c }"
                    % (p.n3(), q.n3()),
                )
            )
    return workload


#: The shape vocabulary of :func:`build_shape_workload`, in emission
#: order (matches the non-degenerate :class:`repro.sparql.shapes.QueryShape`
#: values).
SHAPE_NAMES = ("single", "star", "linear", "snowflake", "complex")


def build_shape_workload(
    graph, per_shape: int = 1, seed: int = 42
) -> List[Tuple[str, str]]:
    """A deterministic shape-stratified (name, query) workload.

    One query family per :data:`SHAPE_NAMES` entry, built from the
    graph's own predicates so every query has answers: a single-pattern
    scan, a two-pattern subject star, a two-hop chain, a star-bridge-star
    snowflake, and an object-object join (complex).  Shapes the graph
    cannot instantiate (e.g. no bridging predicate pairs) are skipped,
    so the result may be shorter than ``5 * per_shape`` on degenerate
    graphs; the per-request report keys on the *classified* shape, never
    on these names.
    """
    rng = random.Random(seed)
    predicates = sorted(
        {t.predicate for t in graph}, key=lambda term: term.sort_key()
    )
    if not predicates:
        raise ValueError("graph has no triples to build a workload from")
    subjects = set(graph.subjects())

    def preds_of(node):
        return sorted(
            {t.predicate for t in graph.triples((node, None, None))},
            key=lambda t: t.sort_key(),
        )

    # Subject stars: subjects carrying at least two distinct predicates.
    star_options = []
    seen_star = set()
    for subject in sorted(graph.subjects(), key=lambda t: t.sort_key()):
        preds = preds_of(subject)
        if len(preds) >= 2 and tuple(preds[:2]) not in seen_star:
            seen_star.add(tuple(preds[:2]))
            star_options.append(preds[:2])
    # Two-hop chains: predicate pairs (p, q) where an object of p is a
    # subject of q; snowflakes extend a chain link with a star at each
    # end (?a {p1,p2} / bridge p2 -> ?b {q1,q2}).
    path_pairs = []
    snowflake_options = []
    seen_path = set()
    seen_snow = set()
    for p in predicates:
        bridging = [
            t.object for t in graph.triples((None, p, None))
            if t.object in subjects
        ]
        if not bridging:
            continue
        for node in sorted(bridging, key=lambda t: t.sort_key()):
            follow = preds_of(node)
            for q in follow:
                if (p, q) not in seen_path:
                    seen_path.add((p, q))
                    path_pairs.append((p, q))
            if len(follow) < 2:
                continue
            # A star on the bridge target; now find a star source.
            for source in sorted(
                {
                    t.subject
                    for t in graph.triples((None, p, node))
                },
                key=lambda t: t.sort_key(),
            ):
                source_preds = [
                    sp for sp in preds_of(source) if sp != p
                ]
                if not source_preds:
                    continue
                key = (source_preds[0], p, follow[0], follow[1])
                if key not in seen_snow:
                    seen_snow.add(key)
                    snowflake_options.append(key)
                break
    # Object-object joins: distinct predicate pairs sharing an object.
    complex_options = []
    objects_by_pred = {
        p: {t.object for t in graph.triples((None, p, None))}
        for p in predicates
    }
    for i, p in enumerate(predicates):
        for q in predicates[i + 1:]:
            if objects_by_pred[p] & objects_by_pred[q]:
                complex_options.append((p, q))

    templates = {
        "single": (
            predicates,
            lambda opt: "SELECT ?s ?o WHERE { ?s %s ?o }" % opt.n3(),
        ),
        "star": (
            star_options,
            lambda opt: "SELECT ?s ?o0 ?o1 WHERE { ?s %s ?o0 . ?s %s ?o1 }"
            % (opt[0].n3(), opt[1].n3()),
        ),
        "linear": (
            path_pairs,
            lambda opt: "SELECT ?a ?b ?c WHERE { ?a %s ?b . ?b %s ?c }"
            % (opt[0].n3(), opt[1].n3()),
        ),
        "snowflake": (
            snowflake_options,
            lambda opt: "SELECT ?a ?o0 ?b ?c0 ?c1 WHERE { "
            "?a %s ?o0 . ?a %s ?b . ?b %s ?c0 . ?b %s ?c1 }"
            % (opt[0].n3(), opt[1].n3(), opt[2].n3(), opt[3].n3()),
        ),
        "complex": (
            complex_options,
            lambda opt: "SELECT ?a ?b ?o WHERE { ?a %s ?o . ?b %s ?o }"
            % (opt[0].n3(), opt[1].n3()),
        ),
    }
    workload: List[Tuple[str, str]] = []
    for shape in SHAPE_NAMES:
        options, render = templates[shape]
        if not options:
            continue
        for index in range(per_shape):
            option = options[rng.randrange(len(options))]
            workload.append(("%s%d" % (shape, index), render(option)))
    return workload


def build_shacl_workload(
    graph,
    seed: int = 42,
    max_classes: int = 3,
    max_properties: int = 2,
    probes: int = 4,
) -> List[Tuple[str, str]]:
    """A validation-shaped (name, query) workload drawn from *graph*.

    Exactly the queries a :class:`~repro.shacl.validator.ShaclValidator`
    would fan out for :func:`~repro.shacl.shapes.default_shapes_for`
    shapes -- target SELECTs and per-property value SELECTs -- plus a
    seeded draw of ``ASK`` class-membership probes over the graph's own
    ``rdf:type`` triples.  Names are the compiled-query ids (so the
    report's workload list reads as a validation trace) and ``probe<i>``.
    """
    from repro.rdf.vocab import RDF
    from repro.shacl.compile import compile_shape_set
    from repro.shacl.shapes import default_shapes_for

    shapes = default_shapes_for(
        graph, max_classes=max_classes, max_properties=max_properties
    )
    workload: List[Tuple[str, str]] = [
        (compiled.id, compiled.text)
        for compiled in compile_shape_set(shapes)
    ]
    typed = sorted(
        (
            (t.subject.n3(), t.object.n3())
            for t in graph.triples((None, RDF.type, None))
        ),
    )
    rng = random.Random(seed)
    for index in range(min(probes, len(typed))):
        subject, class_ = typed[rng.randrange(len(typed))]
        workload.append(
            (
                "probe%d" % index,
                "ASK { %s %s %s }" % (subject, RDF.type.n3(), class_),
            )
        )
    return workload


def build_federated_workload(
    graph,
    seed: int = 42,
    predicates: int = 3,
    pages: int = 3,
    page_size: int = 8,
) -> List[Tuple[str, str]]:
    """A harvester-shaped workload: paged CONSTRUCT queries.

    One CONSTRUCT family per top predicate (by triple count), each
    split into ``pages`` consecutive ``LIMIT page_size OFFSET n`` pages
    -- exactly the requests a :class:`~repro.federation.Subgraph` issues,
    exercising the protocol's stable-paging path under load.  Pages of
    one family share a normalized *where* clause but differ in their
    slice, so plan caching across them is the interesting signal.
    """
    if predicates <= 0 or pages <= 0 or page_size <= 0:
        raise ValueError("predicates, pages, and page_size must be positive")
    counts: Dict[Any, int] = {}
    for triple in graph:
        counts[triple.predicate] = counts.get(triple.predicate, 0) + 1
    if not counts:
        raise ValueError("graph has no triples to build a workload from")
    ranked = sorted(counts, key=lambda p: (-counts[p], p.n3()))
    rng = random.Random(seed)
    chosen = ranked[:predicates]
    if len(ranked) > predicates:
        # Seeded jitter: swap one slot with a random lower-ranked
        # predicate so differently-seeded runs stress different families.
        slot = rng.randrange(len(chosen))
        chosen[slot] = ranked[predicates + rng.randrange(
            len(ranked) - predicates
        )]
    workload: List[Tuple[str, str]] = []
    for index, predicate in enumerate(chosen):
        for page in range(pages):
            workload.append(
                (
                    "harvest%dp%d" % (index, page),
                    "CONSTRUCT { ?s %s ?o } WHERE { ?s %s ?o } "
                    "LIMIT %d OFFSET %d"
                    % (
                        predicate.n3(),
                        predicate.n3(),
                        page_size,
                        page * page_size,
                    ),
                )
            )
    return workload


def grouped_tenant_profiles(
    workload: Sequence[Tuple[str, str]],
    tenants: int,
    emphasis: int = 3,
) -> Dict[str, List[str]]:
    """Tenant profiles over a grouped workload (shape / shacl / federated).

    Queries group by family -- the shape name for compiled validation
    queries (``shacl/<shape>/...``), the harvest family for paged
    CONSTRUCTs (``harvest<i>p<j>``), the literal prefix otherwise (the
    query shape of a stratified workload, ``star0`` -> ``star``).  Tenant
    *i* draws every workload query but sees its preferred family
    (round-robin over the families present) ``emphasis`` times as often
    -- a deterministic skew that gives the routing feedback loop every
    family while keeping tenants distinguishable in the report.
    """
    if tenants <= 0:
        raise ValueError("tenants must be positive")

    def group_of(name: str) -> str:
        if name.startswith("shacl/"):
            return name.split("/")[1]
        if name.startswith("harvest") and "p" in name:
            return name.split("p")[0]
        return name.rstrip("0123456789")

    groups: List[str] = []
    by_group: Dict[str, List[str]] = {}
    for name, _text in workload:
        group = group_of(name)
        if group not in by_group:
            groups.append(group)
            by_group[group] = []
        by_group[group].append(name)
    profiles: Dict[str, List[str]] = {}
    for tenant in range(tenants):
        preferred = groups[tenant % len(groups)]
        profile = by_group[preferred] * emphasis
        for group in groups:
            if group != preferred:
                profile.extend(by_group[group])
        profiles["tenant%d" % tenant] = profile
    return profiles


@dataclass(frozen=True)
class _Arrival:
    """One in-flight submission (queue entry payload)."""

    request: QueryRequest
    client: int
    arrival_time: int


class LoadGenerator:
    """Drive a :class:`~repro.server.service.QueryService` closed-loop."""

    def __init__(
        self,
        service: QueryService,
        workload: Sequence[Tuple[str, str]],
        clients: int = 8,
        tenants: int = 2,
        requests_per_client: int = 8,
        think_units: int = 50,
        seed: int = 42,
        deadline: Optional[int] = None,
        tenant_profiles: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        if not workload:
            raise ValueError("workload must contain at least one query")
        if clients <= 0 or requests_per_client <= 0:
            raise ValueError("clients and requests_per_client must be positive")
        if tenants <= 0:
            raise ValueError("tenants must be positive")
        if deadline is not None and deadline <= 0:
            raise ValueError(
                "deadline must be a positive number of cost units"
            )
        self.service = service
        self.workload = list(workload)
        self.clients = clients
        self.tenants = tenants
        self.requests_per_client = requests_per_client
        self.think_units = think_units
        self.seed = seed
        self.deadline = deadline
        #: Per-tenant draw lists (workload names, duplicates = weight);
        #: tenants not listed draw uniformly from the whole workload.
        self.tenant_profiles: Dict[str, List[str]] = {}
        if tenant_profiles:
            names = {name for name, _ in self.workload}
            for tenant in sorted(tenant_profiles):
                profile = list(tenant_profiles[tenant])
                unknown = sorted(set(profile) - names)
                if unknown:
                    raise ValueError(
                        "tenant profile %r names unknown queries: %s"
                        % (tenant, ", ".join(unknown))
                    )
                if not profile:
                    raise ValueError(
                        "tenant profile %r must not be empty" % tenant
                    )
                self.tenant_profiles[tenant] = profile
        self._by_name = {name: text for name, text in self.workload}

    def _tenant_of(self, client: int) -> str:
        return "tenant%d" % (client % self.tenants)

    def run(self) -> LoadReport:
        report = LoadReport(config=self._config())
        rngs = [
            random.Random(self.seed * 1000003 + client)
            for client in range(self.clients)
        ]
        remaining = [self.requests_per_client] * self.clients
        sent = [0] * self.clients
        free_workers = list(range(self.service.pool_size))
        queue = self.service.queue
        events: List[Tuple[int, int, str, Any]] = []
        seq = 0

        def push(time: int, kind: str, data: Any) -> None:
            nonlocal seq
            heapq.heappush(events, (time, seq, kind, data))
            seq += 1

        def think(client: int) -> int:
            if self.think_units <= 0:
                return 0
            return rngs[client].randrange(self.think_units + 1)

        def next_request(client: int) -> Optional[QueryRequest]:
            if remaining[client] <= 0:
                return None
            remaining[client] -= 1
            sent[client] += 1
            profile = self.tenant_profiles.get(self._tenant_of(client))
            if profile is not None:
                name = profile[rngs[client].randrange(len(profile))]
                text = self._by_name[name]
            else:
                name, text = self.workload[
                    rngs[client].randrange(len(self.workload))
                ]
            return QueryRequest(
                text=text,
                tenant=self._tenant_of(client),
                id="c%d-r%d-%s" % (client, sent[client], name),
                deadline=self.deadline,
            )

        def tenant_entry(tenant: str) -> Dict[str, int]:
            return report.per_tenant.setdefault(
                tenant, {key: 0 for key in TENANT_COUNTERS}
            )

        def record(outcome: QueryOutcome, arrival: _Arrival, now: int) -> None:
            # *now* is the completion timestamp, so it already spans both
            # the queue wait and the service time.
            latency = now - arrival.arrival_time
            report.completed += 1
            report.latencies.append(latency)
            report.waits.append(outcome.wait_units)
            tenant = tenant_entry(outcome.tenant)
            tenant["completed"] += 1
            tenant["service_units"] += outcome.service_units
            shape = outcome.shape or "unknown"
            per_shape = report.per_shape.setdefault(
                shape, {"completed": 0, "ok": 0, "service_units": 0}
            )
            per_shape["completed"] += 1
            per_shape["service_units"] += outcome.service_units
            report.shape_latencies.setdefault(shape, []).append(latency)
            engine = outcome.engine or self.service.config.engine
            report.routed_to[engine] = report.routed_to.get(engine, 0) + 1
            if outcome.status == "ok":
                per_shape["ok"] += 1
                report.ok += 1
                tenant["ok"] += 1
            elif outcome.status == "rejected":
                # Static lint rejection: counted apart from queue
                # rejections (report.rejected), which never execute.
                report.lint_rejected += 1
                tenant["lint_rejected"] += 1
            elif outcome.status == "deadline":
                report.deadline_aborts += 1
                tenant["deadline_aborts"] += 1
            else:
                report.errors += 1
                tenant["errors"] += 1

        def dispatch(arrival: _Arrival, worker: int, now: int) -> None:
            outcome = self.service.execute_on(arrival.request, worker)
            outcome.wait_units = now - arrival.arrival_time
            queue.charge(arrival.request.tenant, outcome.service_units)
            self.service.metrics.incr(
                "queue_wait_units", outcome.wait_units
            )
            push(
                now + outcome.service_units,
                "completion",
                (arrival, worker, outcome),
            )

        # Seed the population: every client's first arrival is one think
        # time into the run (staggered deterministically per client).
        for client in range(self.clients):
            request = next_request(client)
            if request is not None:
                push(think(client), "arrival", (client, request))

        now = 0
        while events:
            now, _, kind, data = heapq.heappop(events)
            if kind == "arrival":
                client, request = data
                report.submitted += 1
                tenant_entry(request.tenant)["submitted"] += 1
                arrival = _Arrival(request, client, now)
                if free_workers:
                    worker = free_workers.pop(0)
                    self.service.metrics.record_admission(True)
                    dispatch(arrival, worker, now)
                else:
                    try:
                        queue.offer(request.tenant, arrival)
                        self.service.metrics.record_admission(True)
                        report.max_queue_depth = max(
                            report.max_queue_depth, len(queue)
                        )
                    except AdmissionRejectedError:
                        self.service.metrics.record_admission(False)
                        report.rejected += 1
                        tenant_entry(request.tenant)["queue_rejected"] += 1
                        # The client backs off and moves to its next
                        # request (the rejected one is lost, as reported).
                        nxt = next_request(client)
                        if nxt is not None:
                            push(
                                now + 1 + think(client),
                                "arrival",
                                (client, nxt),
                            )
            else:  # completion
                arrival, worker, outcome = data
                record(outcome, arrival, now)
                nxt = next_request(arrival.client)
                if nxt is not None:
                    push(
                        now + 1 + think(arrival.client),
                        "arrival",
                        (arrival.client, nxt),
                    )
                waiting = queue.take()
                if waiting is None:
                    free_workers.append(worker)
                    free_workers.sort()
                else:
                    _tenant, queued = waiting
                    dispatch(queued, worker, now)

        report.duration_units = now
        if getattr(self.service, "route_enabled", False):
            report.routing_policy = self.service.routing.snapshot()
        snapshot = self.service.snapshot()
        hits = snapshot.result_cache_hits
        misses = snapshot.result_cache_misses
        report.cache = {
            "plan_hits": snapshot.plan_cache_hits,
            "plan_misses": snapshot.plan_cache_misses,
            "result_hits": hits,
            "result_misses": misses,
            "result_hit_rate": round(snapshot.result_cache_hit_rate(), 6),
            "result_invalidations": snapshot.result_cache_invalidations,
        }
        return report

    def _config(self) -> Dict[str, Any]:
        return {
            "engine": self.service.config.engine,
            "route": bool(getattr(self.service, "route_enabled", False)),
            "route_engines": (
                list(self.service.routing.engines)
                if getattr(self.service, "route_enabled", False)
                else None
            ),
            "profiles": {
                tenant: list(profile)
                for tenant, profile in sorted(self.tenant_profiles.items())
            },
            "pool_size": self.service.pool_size,
            "queue_limit": self.service.queue.queue_limit,
            "plan_cache": self.service.config.enable_plan_cache,
            "result_cache": self.service.config.enable_result_cache,
            "lint": self.service.config.lint_admission,
            "clients": self.clients,
            "tenants": self.tenants,
            "requests_per_client": self.requests_per_client,
            "think_units": self.think_units,
            "seed": self.seed,
            "deadline": self.deadline,
            "workload": [name for name, _ in self.workload],
        }
