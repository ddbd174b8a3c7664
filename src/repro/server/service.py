"""The multi-tenant query service: warm engine pool, caches, deadlines.

A :class:`QueryService` converts the repository from batch-script shape
to service shape.  Construction does everything expensive exactly once:
the graph is wrapped in a :class:`~repro.evolution.versioned.VersionedGraph`
(so updates are commits with version numbers), and ``pool_size`` engine
instances are built and warmed -- each one ingests the graph, builds its
dictionary encoding / vertical partitions / indexes, and then serves any
number of queries.  Per-request work is only: normalize, consult the
plan cache, consult the result cache, and (on a miss) execute with a
cost-unit deadline armed.

Request lifecycle::

    submit()                 # or the load generator's simulated workers
      normalize_query(text)
      plan cache  -- hit: reuse parsed Query, miss: parse
      static lint (repro.analysis.query) -- errors: reject *before*
            any cache insert or engine work (status "rejected",
            structured diagnostics, zero service units)
      plan cache insert (miss, admitted only)
      routing (route=True): classify shape, price candidates, pick the
            engine (repro.routing; traced as a ``route`` span)
      result cache (text, version, engine) -- hit: return stored literal
            (the engine component is the routed winner under route=True)
      miss: engine.execute under ctx.set_deadline(budget) -> canonical_result
            -> WireLiteral.of_payload (encoded once) -> cache put
      outcome: ok | deadline | rejected | unsupported | failed

Graph evolution: :meth:`commit` applies a change set through the
versioned store, bumps the version, actively invalidates stale result
cache entries, and brings every pooled engine's store to the new head
(warm again before the next query).  Because the result-cache key
embeds the version, staleness is impossible even between the bump and
the purge.  A commit is all or nothing: the pool is brought to the new
head on copies of its slots, swapped in only when every slot got there;
when one raises (a fault schedule exhausting ``max_task_attempts`` in a
reload), the head reverts and :class:`CommitFailedError` leaves the
version, statistics, views and every slot as they were.  Every step
takes the commit's delta: the statistics (:attr:`QueryService.catalog`,
the object the optimizer, the linter and routing all read) and the
materialized views are carried forward, never recounted, and each
pooled engine takes it through ``apply_delta`` -- SPARQLGX rewrites
only the predicate stores the delta touches, the other engines reload.

Determinism: the service owns its own
:class:`~repro.spark.metrics.MetricsCollector` and
:class:`~repro.spark.tracing.Tracer` (span kinds ``request`` /
``admission`` / ``lint`` / ``route`` / ``plan`` / ``result`` /
``commit``); neither
consults a clock, so a request sequence replays to byte-identical
outcomes.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.core import AnalysisReport
from repro.analysis.query import lint_query
from repro.rdf.graph import RDFGraph
from repro.evolution.versioned import VersionedGraph
from repro.optimizer import Optimizer
from repro.rdf.triple import Triple
from repro.routing import RoutingPolicy
from repro.runtime import ServiceConfig, resolve_engine
from repro.server.admission import FairShareQueue
from repro.server.cache import PlanCache, ResultCache, normalize_query
from repro.server.protocol import WireLiteral, canonical_result
from repro.spark.deadline import DeadlineExceededError, cost_units
from repro.spark.faults import TaskFailedError
from repro.spark.metrics import MetricsCollector, MetricsSnapshot
from repro.spark.tracing import Tracer
from repro.sparql.parser import parse_sparql
from repro.sparql.shapes import classify_shape
from repro.stats.catalog import StatsCatalog
from repro.systems.base import UnsupportedQueryError

#: Cost units charged for answering from the result cache.  Non-zero so
#: cache hits still consume (a sliver of) virtual time -- a served
#: answer is never free -- but orders of magnitude below execution.
CACHE_HIT_UNITS = 1


class CommitFailedError(RuntimeError):
    """A commit raised before the service moved to its version; the
    service still serves the version it had (:meth:`QueryService.commit`)."""


@dataclass(frozen=True)
class QueryRequest:
    """One query submission."""

    text: str
    tenant: str = "default"
    id: str = ""
    #: Cost-unit budget for this query; None uses the service default.
    deadline: Optional[int] = None


@dataclass
class QueryOutcome:
    """Everything the service knows about one finished request."""

    id: str
    tenant: str
    status: str  # ok | deadline | rejected | unsupported | failed | error
    #: The answer as it goes on the wire (``ok`` only): the JSON string
    #: literal of its canonical text, the one form the service keeps.
    result: Optional[WireLiteral] = None
    #: Which tier answered: "result" (result-cache hit), "plan"
    #: (plan-cache hit, executed), or "cold" (parsed and executed).
    cache: str = "cold"
    #: Virtual service time in cost units (execution or cache charge).
    service_units: int = 0
    #: Virtual time spent queued (filled by the load generator).
    wait_units: int = 0
    version: int = 0
    worker: int = 0
    error: str = ""
    #: Sorted lint diagnostics (payload dicts) when the static analyzer
    #: had findings; always populated on ``rejected`` outcomes.
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    #: The query's classified shape (empty until the request parses).
    shape: str = ""
    #: The engine that served (or would serve) the request: the routed
    #: winner under ``route=True``, the fixed engine otherwise.  Not part
    #: of :meth:`to_response` -- the wire envelope is routing-agnostic.
    engine: str = ""

    @property
    def payload(self) -> Optional[str]:
        """Canonical JSON text of the answer, decoded from :attr:`result`."""
        return None if self.result is None else json.loads(self.result)

    def to_response(self) -> Dict[str, Any]:
        """The JSON-lines response object for this outcome."""
        response: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "cache": self.cache,
            "units": self.service_units,
            "version": self.version,
        }
        if self.result is not None:
            response["result"] = self.result
        if self.error:
            response["error"] = self.error
        if self.diagnostics:
            response["diagnostics"] = list(self.diagnostics)
        return response


class _EngineSet:
    """One pool slot under adaptive routing: every candidate, warmed.

    Exposes the same ``set_optimizer`` lifecycle as a single engine so
    :meth:`QueryService.commit` treats both slot kinds uniformly;
    dispatch picks the member the routing decision named.
    """

    def __init__(self, engines: Dict[str, Any]) -> None:
        self._engines = engines

    def engine_for(self, name: str):
        return self._engines[name]

    def set_optimizer(self, optimizer) -> None:
        for name in sorted(self._engines):
            self._engines[name].set_optimizer(optimizer)


def _advanced(slot, delta, head):
    """A copy of pool *slot* brought to *head* by *delta*; the slot itself
    is left as it was, so it keeps answering if this raises.

    The copy is shallow: an engine's ``apply_delta`` must rebind what it
    changes (the default reload does), or the engine defines a
    ``__copy__`` that gives the copy its own (SPARQLGX's store maps).
    ``tests/server/test_write_path.py`` holds every engine to this.
    """
    if isinstance(slot, _EngineSet):
        return _EngineSet(
            {
                name: _advanced(slot.engine_for(name), delta, head)
                for name in sorted(slot._engines)
            }
        )
    staged = copy.copy(slot)
    staged.apply_delta(delta, head)
    return staged


class QueryService:
    """A pool of warmed engines behind caches and admission control."""

    def __init__(
        self,
        graph: RDFGraph,
        config: Optional[ServiceConfig] = None,
        **knobs,
    ) -> None:
        """Serve *graph* under *config*, or under the flat keyword
        spelling :meth:`ServiceConfig.from_knobs` accepts (``engine=``,
        ``pool_size=``, ``optimize=``, ``enable_views=``, ...)."""
        if config is None:
            config = ServiceConfig.from_knobs(**knobs)
        elif knobs:
            raise TypeError("pass a ServiceConfig or keyword knobs, not both")
        resolve_engine(config.engine)  # fail fast on unknown names
        self.config = config
        self.versions = VersionedGraph(graph)
        #: Service-level counters (admissions, cache outcomes, deadlines);
        #: engine work is charged to each engine's own context.
        self.metrics = MetricsCollector()
        self.tracer = Tracer(self.metrics)
        self.plan_cache = PlanCache()
        self.result_cache = ResultCache()
        self.queue: FairShareQueue = FairShareQueue(config.queue_limit)
        #: The last :class:`~repro.views.MaintenanceReport`, for stats().
        self.last_maintenance = None
        #: The head's statistics, shared by the optimizer, the admission
        #: linter and routing: one pass over the graph here, carried
        #: forward by each commit's delta (a new object per version).
        self.catalog = StatsCatalog.from_graph(
            self.versions.head(), version=self.versions.head_version
        )
        #: One shared optimizer over :attr:`catalog` (None when
        #: unoptimized).  Built with the materialized-view catalog here;
        #: commits instead maintain that catalog incrementally and
        #: re-attach it (:meth:`commit`).
        self.optimizer: Optional[Optimizer] = config.runtime.optimizer(
            self.versions.head(),
            self.versions.head_version,
            catalog=self.catalog,
        )
        #: The adaptive per-shape router (docs/ROUTING.md), or None for
        #: fixed-engine dispatch.  Its feedback state survives commits.
        self.routing: Optional[RoutingPolicy] = None
        if config.runtime.route:
            self.routing = RoutingPolicy.for_graph(
                self.versions.head(),
                engines=config.runtime.route_engines,
                mode=config.runtime.optimizer_mode,
                broadcast_threshold=config.runtime.broadcast_threshold,
                catalog=self.catalog,
            )
        self.pool = [
            self._build_worker() for _ in range(config.pool_size)
        ]
        self._round_robin = 0

    def _build_one_engine(self, name: str):
        # Each engine gets its own context on a fresh fault schedule
        # (as BenchRun does), so firing counters never leak across slots.
        return self.config.runtime.engine(
            name,
            self.versions.head(),
            fresh=True,
            optimizer=self.optimizer,
        )

    def _build_worker(self):
        if self.routing is not None:
            names = list(self.routing.engines)
            names.extend(
                name
                for name in self.routing.fallbacks
                if name not in names
            )
            return _EngineSet(
                {name: self._build_one_engine(name) for name in names}
            )
        return self._build_one_engine(self.config.engine)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """The graph version served (result-cache key component)."""
        return self.versions.head_version

    @property
    def pool_size(self) -> int:
        return len(self.pool)

    @property
    def route_enabled(self) -> bool:
        """Whether adaptive per-shape routing is dispatching requests."""
        return self.routing is not None

    @property
    def stats_version(self) -> int:
        """The graph version the optimizer statistics were computed at.

        0 when the service runs unoptimized -- the plan-cache key is then
        constant, which degenerates to the pre-optimizer behavior.
        """
        if self.optimizer is None:
            return 0
        return self.optimizer.stats_version

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def submit(self, request: QueryRequest) -> QueryOutcome:
        """Execute one request synchronously on the next pooled engine.

        This is the sequential front door (the ``serve`` loop); the load
        generator instead calls :meth:`execute_on` with explicit worker
        assignment to model pool concurrency.  Admission always passes
        here -- a sequential caller cannot overrun the queue.
        """
        self.metrics.record_admission(True)
        worker = self._round_robin % len(self.pool)
        self._round_robin += 1
        return self.execute_on(request, worker)

    def execute_on(self, request: QueryRequest, worker: int) -> QueryOutcome:
        """Run *request* on pool slot *worker*, consulting both caches."""
        with self.tracer.span(
            "request", name=request.id or "-", tenant=request.tenant
        ) as span:
            outcome = self._execute(request, worker)
            if span is not None:
                span.attrs["cache"] = outcome.cache
                span.attrs["status"] = outcome.status
        return outcome

    def _execute(self, request: QueryRequest, worker: int) -> QueryOutcome:
        outcome = QueryOutcome(
            id=request.id,
            tenant=request.tenant,
            status="ok",
            version=self.version,
            worker=worker,
        )
        normalized = normalize_query(request.text)
        budget = (
            request.deadline
            if request.deadline is not None
            else self.config.default_deadline
        )

        # Plan tier, lookup only: a lint rejection below must leave both
        # caches exactly as it found them, so the miss-path insert is
        # deferred until the request is admitted.
        plan = None
        plan_hit = False
        if self.config.enable_plan_cache:
            plan = self.plan_cache.lookup(
                normalized, stats_version=self.stats_version
            )
            plan_hit = plan is not None
        if plan is None:
            try:
                plan = parse_sparql(normalized)
            except ValueError as exc:
                outcome.status = "error"
                outcome.error = "parse error: %s" % exc
                self.metrics.record_completion(0, 0)
                return outcome

        # Static admission: reject provably-bad queries before they
        # consume service units or populate any cache tier.  Runs on
        # plan-cache hits too -- QL005 depends on this request's budget.
        if self.config.lint_admission:
            report = self._lint(plan, request, budget)
            errors = sorted(
                report.errors, key=lambda d: d.sort_key()
            )
            if errors:
                outcome.status = "rejected"
                outcome.error = "lint: %s %s" % (
                    errors[0].code,
                    errors[0].message,
                )
                outcome.diagnostics = [
                    d.to_payload() for d in report.sorted_diagnostics()
                ]
                self.metrics.incr("lint_rejections")
                self.metrics.record_completion(0, 0)
                return outcome

        # Admitted: account the plan tier and keep the parse for reuse.
        if self.config.enable_plan_cache:
            if not plan_hit:
                self.plan_cache.put(
                    normalized, plan, stats_version=self.stats_version
                )
            self.metrics.incr(
                "plan_cache_hits" if plan_hit else "plan_cache_misses"
            )

        # Routing tier: classify the shape and, under route=True, pick
        # the engine *before* the result tier -- the cache key embeds
        # the routed engine, so answers served by different engines
        # never alias (their canonical bytes are identical anyway,
        # which tests/server/test_routing_service.py pins).
        outcome.shape = classify_shape(plan).value
        decision = None
        engine_label = self.config.engine
        if self.routing is not None:
            decision = self._route(plan, request)
            engine_label = decision.winner
        outcome.engine = engine_label

        # Result tier.
        key = (normalized, self.version, engine_label)
        if self.config.enable_result_cache:
            cached = self.result_cache.get(key, self.metrics)
            if cached is not None:
                outcome.result = cached
                outcome.cache = "result"
                outcome.service_units = CACHE_HIT_UNITS
                self.metrics.record_completion(0, CACHE_HIT_UNITS)
                return outcome

        # Cold (or plan-warm) execution under a deadline.
        slot = self.pool[worker]
        engine = (
            slot.engine_for(engine_label)
            if decision is not None
            else slot
        )
        ctx = engine.ctx
        ctx.set_deadline(budget, query=request.id or normalized[:40])
        try:
            run = engine.measure(plan)
        except DeadlineExceededError as exc:
            outcome.status = "deadline"
            outcome.error = str(exc)
            outcome.service_units = exc.spent
            self.metrics.incr("deadline_aborts")
            self.metrics.record_completion(0, exc.spent)
            if decision is not None:
                # The abort's spent units are a lower bound on the true
                # cost -- still a valid (and cheap) lesson that this
                # engine overruns budgets on this shape.
                self.routing.record(decision, exc.spent)
            return outcome
        except UnsupportedQueryError as exc:
            outcome.status = "unsupported"
            outcome.error = str(exc)
            self.metrics.record_completion(0, 0)
            return outcome
        except TaskFailedError as exc:
            outcome.status = "failed"
            outcome.error = str(exc)
            self.metrics.record_completion(0, 0)
            return outcome
        except Exception as exc:
            # A fault of the engine's own: this request fails, the service
            # does not.  The slot's state is unknown, so it is built anew
            # at the served head.
            outcome.status = "error"
            outcome.error = "%s raised %s: %s" % (
                engine_label,
                type(exc).__name__,
                exc,
            )
            self.metrics.record_completion(0, 0)
            self.pool[worker] = self._build_worker()
            return outcome
        finally:
            ctx.set_deadline(None)
        spent = cost_units(run.cost)
        if run.cost["view_scans"]:
            # This execution read at least one materialized ExtVP view.
            self.metrics.incr("view_hits", run.cost["view_scans"])
        outcome.result = WireLiteral.of_payload(canonical_result(run.answer, plan))
        outcome.cache = "plan" if plan_hit else "cold"
        outcome.service_units = max(spent, 1)
        if decision is not None:
            self.routing.record(decision, outcome.service_units)
        if self.config.enable_result_cache:
            self.result_cache.put(key, outcome.result, self.metrics)
        self.metrics.record_completion(0, outcome.service_units)
        return outcome

    def _route(self, plan, request: QueryRequest):
        """One routing decision, traced as a ``route`` span."""
        with self.tracer.span(
            "route", name=request.id or "-"
        ) as span:
            decision = self.routing.decide(plan)
            self.metrics.incr("routing_decisions")
            if decision.fallback:
                self.metrics.incr("routing_fallbacks")
            if span is not None:
                span.attrs.update(decision.describe())
        return decision

    def _lint(self, plan, request: QueryRequest, budget) -> AnalysisReport:
        """Run the static linter over one parsed plan, traced."""
        with self.tracer.span(
            "lint", name=request.id or "-"
        ) as span:
            report = lint_query(
                plan,
                subject=request.id or "query",
                catalog=self.catalog,
                deadline=budget,
                broadcast_threshold=self.config.runtime.broadcast_threshold,
                mode=self.config.runtime.optimizer_mode,
            )
            if span is not None:
                span.attrs["errors"] = report.count("error")
                span.attrs["warnings"] = report.count("warning")
                span.attrs["rejected"] = bool(report.errors)
        return report

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def commit(
        self,
        additions: List[Triple] = (),
        deletions: List[Triple] = (),
    ) -> int:
        """Apply a change set: new graph version, caches invalidated,
        statistics, views and every pooled engine brought to the new
        head by the delta (warm again).

        The pool is brought there first, on copies of its slots: if that
        raises, the head reverts and :class:`CommitFailedError` leaves
        the service answering at the version it had.
        """
        with self.tracer.span("commit") as span:
            version = self.versions.commit(additions, deletions)
            head = self.versions.head()
            delta = self.versions.delta(version)
            try:
                pool = [_advanced(slot, delta, head) for slot in self.pool]
            except Exception as exc:
                kept = self.versions.revert()
                raise CommitFailedError(
                    "commit failed, version %d kept: %s" % (kept, exc)
                ) from exc
            dropped = self.result_cache.invalidate_below(version, self.metrics)
            # Lint statistics must track the head (or admission would
            # reject queries over predicates this commit added), and every
            # consumer below shares this object.
            self.catalog = self.catalog.apply_delta(delta, head, version)
            if self.optimizer is not None:
                view_catalog = self.optimizer.view_catalog
                # The bumped stats version retires every plan-cache entry
                # keyed under the old catalog.
                self.optimizer = self.config.runtime.optimizer(
                    head, version, build_views=False, catalog=self.catalog
                )
                if view_catalog is not None:
                    # Views stay warm across the commit: delta-apply the
                    # change set to the affected views (cost proportional to
                    # the delta) and re-attach, instead of rebuilding.  The
                    # catalog's version now matches the served head, so
                    # version-keyed consumers can assert consistency.
                    report = view_catalog.apply_delta(delta, head, version)
                    self.optimizer.set_view_catalog(view_catalog)
                    self.last_maintenance = report
                    self.metrics.incr(
                        "views_maintained", report.views_affected
                    )
            if self.routing is not None:
                # Routing estimates re-anchor on the new head's statistics;
                # calibration (the feedback history) deliberately survives.
                self.routing.refresh(self.catalog)
            if self.optimizer is not None:
                for slot in pool:
                    slot.set_optimizer(self.optimizer)
            self.pool = pool
            if span is not None:
                span.attrs["version"] = version
                span.attrs["invalidated"] = dropped
        return version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the service counters."""
        snapshot = self.metrics.snapshot()
        payload = {
            "engine": self.config.engine,
            "pool_size": self.pool_size,
            "version": self.version,
            "optimizer": self.optimizer.mode if self.optimizer else None,
            "stats_version": self.stats_version,
            "lint_admission": self.config.lint_admission,
            "plan_cache_entries": len(self.plan_cache),
            "result_cache_entries": len(self.result_cache),
            "counters": {name: value for name, value in snapshot if value},
        }
        view_catalog = self.view_catalog
        if view_catalog is not None:
            payload["views"] = view_catalog.summary()
        if self.routing is not None:
            payload["routing"] = self.routing.snapshot()
        return payload

    @property
    def view_catalog(self):
        """The served materialized-view catalog, or None without views."""
        if self.optimizer is None:
            return None
        return self.optimizer.view_catalog

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    def __repr__(self) -> str:
        return "QueryService(engine=%s, pool=%d, version=%d)" % (
            self.config.engine,
            self.pool_size,
            self.version,
        )
