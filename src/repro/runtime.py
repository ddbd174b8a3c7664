"""Shared runtime construction: one knob set, one path to warm engines.

The survey's method is "same queries, same data, one axis changed at a
time", so every entry point (CLI, benchmarks, the serving layer) must
build engines from the *same* knob set.  This module declares that set
once and is the single construction path everything uses:

* :class:`RuntimeConfig` -- the context / plan / routing knobs, each
  with its default and meaning stated here and nowhere else;
  :meth:`~RuntimeConfig.context` builds the
  :class:`~repro.spark.context.SparkContext`,
  :meth:`~RuntimeConfig.optimizer` the shared cost-based optimizer,
  :meth:`~RuntimeConfig.fresh_faults` a per-context fault schedule,
  :meth:`~RuntimeConfig.engine` a warmed engine on all three (store
  built exactly once, one statistics pass per graph);
* :class:`ServiceConfig` -- the serving-only knobs of
  :class:`repro.server.QueryService`, holding a :class:`RuntimeConfig`;
* :func:`load_graph` -- read an RDF file by extension (``.nt`` / ``.ttl``),
  raising :class:`GraphLoadError` with a readable message instead of a
  bare ``OSError`` traceback;
* :func:`write_text` -- the output-side counterpart: write a report,
  trace or catalog file, raising :class:`RuntimeConfigError` when the
  path is unwritable;
* :func:`resolve_engine` -- engine name to class, raising
  :class:`UnknownEngineError` listing the valid choices;
* :func:`build_context` / :func:`build_engine` -- the keyword spelling
  of ``RuntimeConfig(**knobs).context()`` and ``.engine(name, graph)``.

Both configs are frozen and validate in ``__post_init__``, so a bad
combination fails with a :class:`RuntimeConfigError` (a ``ValueError``;
the CLI maps it to exit code 2) where it is written down, not five
layers later.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple, Union

from repro.defaults import DEFAULT_BROADCAST_THRESHOLD
from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import load_ntriples_file
from repro.spark.context import SparkContext
from repro.spark.faults import FaultScheduler
from repro.spark.parallel import BackendConfigError


class RuntimeConfigError(ValueError):
    """A runtime construction input (knob, path, engine name) is unusable."""


class GraphLoadError(RuntimeConfigError):
    """An RDF data file could not be read or parsed."""


class UnknownEngineError(RuntimeConfigError):
    """No engine matches the requested name."""


def cli_flag(knob: dataclasses.Field) -> Optional[str]:
    """The CLI flag that sets *knob*, or None for API-only knobs.

    The flag is the field name with dashes unless the field's metadata
    names another one; a ``--no-X`` flag stores the knob inverted.
    """
    return knob.metadata.get("flag", "--" + knob.name.replace("_", "-"))


@dataclass(frozen=True)
class RuntimeConfig:
    """The knobs every engine-building entry point shares.

    Substrate knobs mirror :class:`~repro.spark.context.SparkContext`'s
    parameters (documented in full there); plan and routing knobs select
    what runs on top of it.
    """

    #: Partitions per RDD (and virtual executors) of every context.
    parallelism: int = 4
    #: Adversarial schedule, a spec string or a
    #: :class:`~repro.spark.faults.FaultScheduler` (docs/FAULTS.md).
    faults: Union[None, str, FaultScheduler] = None
    #: Runs of one task before a persistent failure aborts the job.
    max_task_attempts: int = 4
    #: Launch speculative backup copies for straggling tasks.
    speculation: bool = False
    #: Executor backend, "inprocess" (the serial oracle) or "parallel"
    #: (forked worker pool; docs/PARALLEL.md) -- same canonical bytes.
    backend: str = "inprocess"
    #: Worker-pool size under the parallel backend (None = its default).
    workers: Optional[int] = None
    #: Check every closure of a job's lineage against the worker-boundary
    #: rules at submission (:mod:`repro.analysis.closures`).
    verify_closures: bool = False
    #: Run BGPs through the shared cost-based optimizer instead of each
    #: engine's native join order (docs/OPTIMIZER.md).
    optimize: bool = False
    #: Join ordering under ``optimize``; also anchors the lint and
    #: routing cost estimates.
    optimizer_mode: str = "dp"
    #: Broadcast a join's build side when its estimate is under this
    #: many rows.
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD
    #: Materialize ExtVP views and substitute them into optimized plans
    #: (docs/VIEWS.md); an optimizer substitution, so needs ``optimize``.
    views: bool = False
    #: Selectivity factor at or below which an ExtVP pair is
    #: materialized (None = :data:`repro.views.DEFAULT_VIEW_THRESHOLD`).
    view_threshold: Optional[float] = None
    #: Dispatch each query through the adaptive per-shape routing policy
    #: instead of one fixed engine (docs/ROUTING.md).
    route: bool = False
    #: Candidate engines of the routed pool (None = the survey
    #: preference pool); needs ``route``.
    route_engines: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "route_engines",
            tuple(self.route_engines) if self.route_engines else None,
        )
        # Ranges the constructors below also check, said here so a bad
        # flag is a configuration error (exit 2), not a traceback.
        if self.parallelism <= 0:
            raise RuntimeConfigError("--parallelism must be positive")
        if self.max_task_attempts < 1:
            raise RuntimeConfigError("--max-task-attempts must be >= 1")
        if self.broadcast_threshold <= 0:
            raise RuntimeConfigError("--broadcast-threshold must be positive")
        if self.views and not self.optimize:
            raise RuntimeConfigError("--views requires --optimize")
        if self.route_engines and not self.route:
            raise RuntimeConfigError("--route-engines requires --route")

    def fresh_faults(self) -> Optional[FaultScheduler]:
        """A fresh, equivalent fault scheduler, or None without faults.

        Builders of several contexts from one config (an engine matrix,
        a service pool) give each its own, so firing counters never leak
        between contexts and the whole stays deterministic.
        """
        if self.faults is None:
            return None
        if isinstance(self.faults, str):
            return FaultScheduler.from_spec(self.faults)
        return self.faults.fork()

    def context(self, fresh: bool = False) -> SparkContext:
        """A :class:`SparkContext` under the substrate knobs.

        ``faults`` is used as-is (a passed scheduler keeps counting for
        its owner) unless ``fresh`` asks for :meth:`fresh_faults`.  A bad
        backend combination raises :class:`RuntimeConfigError`, so the
        CLI reports it as a configuration error, not a traceback.
        """
        try:
            return SparkContext(
                default_parallelism=self.parallelism,
                faults=self.fresh_faults() if fresh else self.faults,
                max_task_attempts=self.max_task_attempts,
                speculation=self.speculation,
                backend=self.backend,
                workers=self.workers,
                verify_closures=self.verify_closures,
            )
        except BackendConfigError as exc:
            raise RuntimeConfigError(str(exc)) from exc

    def optimizer(
        self,
        graph: RDFGraph,
        version: int = 0,
        build_views: bool = True,
        catalog=None,
    ):
        """The shared optimizer over *graph*'s statistics, or None when
        ``optimize`` is off.

        ``build_views=False`` skips materializing the view catalog, for
        callers that maintain one incrementally and re-attach it;
        *catalog* hands down statistics already computed for *graph* at
        *version* instead of computing them again.
        """
        if not self.optimize:
            return None
        from repro.optimizer import Optimizer

        return Optimizer.for_graph(
            graph,
            version=version,
            mode=self.optimizer_mode,
            broadcast_threshold=self.broadcast_threshold,
            views=self.views and build_views,
            view_threshold=self.view_threshold,
            catalog=catalog,
        )

    def engine(
        self,
        engine,
        graph: RDFGraph,
        fresh: bool = False,
        catalog=None,
        optimizer=None,
        **engine_kwargs,
    ):
        """A warmed engine on *graph*: the one construction path.

        *engine*, a name (:func:`resolve_engine`) or a class, is built
        with *engine_kwargs* on its own :meth:`context` (``fresh`` as
        there), loaded once and given the shared optimizer under
        ``optimize``.  One statistics pass per graph: a builder of
        several engines hands in the *optimizer* it holds, or the
        *catalog* to build one over.
        """
        cls = resolve_engine(engine) if isinstance(engine, str) else engine
        if optimizer is None:
            optimizer = self.optimizer(graph, catalog=catalog)
        built = cls(self.context(fresh), **engine_kwargs).load(graph)
        return built.set_optimizer(optimizer)


@dataclass(frozen=True)
class ServiceConfig:
    """The serving-only knobs of a :class:`repro.server.QueryService`."""

    #: Engine every pool slot runs (ignored for dispatch under ``route``).
    engine: str = "SPARQLGX"
    #: Warmed engine instances (or routed engine sets) in the pool.
    pool_size: int = field(default=2, metadata={"flag": "--pool"})
    #: Bounded admission queue length (beyond it: rejection).
    queue_limit: int = 8
    #: Per-query budget in cost units for requests that name none.
    default_deadline: Optional[int] = field(
        default=None, metadata={"flag": "--deadline"}
    )
    #: Reuse parsed plans across requests with the same normalized text.
    enable_plan_cache: bool = field(
        default=True, metadata={"flag": "--no-plan-cache"}
    )
    #: Serve repeated queries at an unchanged graph version from stored
    #: canonical bytes.
    enable_result_cache: bool = field(
        default=True, metadata={"flag": "--no-result-cache"}
    )
    #: Reject provably-bad queries by static lint before any engine work.
    lint_admission: bool = field(default=True, metadata={"flag": "--no-lint"})
    #: What every pooled engine is built from.
    runtime: RuntimeConfig = field(
        default=RuntimeConfig(), metadata={"flag": None}
    )

    def __post_init__(self) -> None:
        if self.pool_size <= 0:
            raise RuntimeConfigError("pool_size must be positive")
        if self.queue_limit < 0:
            raise RuntimeConfigError("queue_limit must be >= 0")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise RuntimeConfigError(
                "default_deadline must be a positive number of cost units"
            )

    @classmethod
    def from_knobs(cls, **knobs) -> "ServiceConfig":
        """The flat keyword spelling: service knobs by field name, every
        other name a :class:`RuntimeConfig` knob (``enable_views`` is the
        service's name for ``views``)."""
        if "enable_views" in knobs:
            knobs["views"] = knobs.pop("enable_views")
        service = {
            knob.name: knobs.pop(knob.name)
            for knob in dataclasses.fields(cls)
            if knob.name in knobs and knob.name != "runtime"
        }
        return cls(runtime=RuntimeConfig(**knobs), **service)


def config_reference() -> str:
    """The "Configuration" table of docs/ARCHITECTURE.md: one markdown
    row per knob (config, field, default, CLI flag), generated from the
    dataclass fields so the docs cannot drift from the declarations
    (``tests/test_runtime_config.py`` compares them)."""
    lines = [
        "| config | field | default | CLI flag |",
        "| --- | --- | --- | --- |",
    ]
    for cls in (RuntimeConfig, ServiceConfig):
        for knob in dataclasses.fields(cls):
            flag = cli_flag(knob)
            if knob.name != "runtime":
                lines.append(
                    "| `%s` | `%s` | `%r` | %s |"
                    % (
                        cls.__name__,
                        knob.name,
                        knob.default,
                        "`%s`" % flag if flag else "(API only)",
                    )
                )
    return "\n".join(lines)


def load_graph(path: str) -> RDFGraph:
    """Load an RDF file by extension (.nt or .ttl).

    Raises :class:`GraphLoadError` for unreadable files and syntax
    errors, carrying the path and the underlying cause.
    """
    try:
        if path.endswith((".ttl", ".turtle")):
            from repro.rdf.turtle import parse_turtle

            with open(path, "r", encoding="utf-8") as handle:
                return parse_turtle(handle.read())
        return load_ntriples_file(path)
    except OSError as exc:
        raise GraphLoadError(
            "cannot read RDF file %r: %s" % (path, exc)
        ) from exc
    except ValueError as exc:
        raise GraphLoadError(
            "cannot parse RDF file %r: %s" % (path, exc)
        ) from exc


def write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write an output file (report, trace, catalog, dataset) from one
    string or a stream of them, raising :class:`RuntimeConfigError`
    instead of a bare ``OSError``."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise RuntimeConfigError(
            "cannot write %r: %s" % (path, exc)
        ) from exc


def resolve_engine(name: str):
    """Engine name -> engine class (case-insensitive, ``Naive`` included).

    Raises :class:`UnknownEngineError` whose message lists every valid
    choice, suitable for printing verbatim.
    """
    from repro.systems import ENGINE_HOMES, engine_class

    for known in ENGINE_HOMES:
        if known.lower() == name.lower():
            return engine_class(known)
    raise UnknownEngineError(
        "unknown engine %r; choose one of: %s"
        % (name, ", ".join(ENGINE_HOMES))
    )


def build_context(**knobs) -> SparkContext:
    """``RuntimeConfig(**knobs).context()``: a SparkContext from the
    shared knob set (unknown names raise ``TypeError``)."""
    return RuntimeConfig(**knobs).context()


def build_engine(engine: str, graph: RDFGraph, **knobs):
    """``RuntimeConfig(**knobs).engine(engine, graph)``: the keyword
    spelling of the one construction path."""
    return RuntimeConfig(**knobs).engine(engine, graph)
