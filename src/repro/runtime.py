"""Shared runtime construction: one knob set, one path to warm engines.

The survey's method is "same queries, same data, one axis changed at a
time", so every entry point (CLI, benchmarks, the serving layer) must
build engines from the *same* knob set.  This module declares that set
once and is the single construction path everything uses:

* :class:`RuntimeConfig` -- the context / plan / routing knobs, each
  a :func:`knob` field that states its default, its meaning and its CLI
  flag here and nowhere else (``repro.cli`` adds every knob flag from
  these declarations);
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

import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple, Union

from repro.defaults import (
    DEFAULT_BROADCAST_THRESHOLD,
    DEFAULT_VIEW_THRESHOLD,
    ORDER_MODES,
)
from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import load_ntriples_file
from repro.spark.context import SparkContext
from repro.spark.faults import FaultScheduler
from repro.spark.parallel import (
    BACKEND_NAMES,
    DEFAULT_WORKERS,
    BackendConfigError,
)


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


def knob(default, help: str, flag: Optional[str] = None, **argparse_kw):
    """A config field that declares its CLI flag: *help* is the knob's
    meaning, stated once; *argparse_kw* (``type``, ``choices``,
    ``metavar``, ``action``) go to ``add_argument`` as written, and
    ``choices`` also bind an API-built config.  *flag* replaces the flag
    spelled from the field name; a ``bool`` knob's flag is a
    ``store_true`` switch (a ``--no-X`` flag stores the knob inverted).
    """
    metadata = dict(argparse_kw, help=help)
    if isinstance(default, bool):
        metadata["action"] = "store_true"
    if flag is not None:
        metadata["flag"] = flag
    return field(default=default, metadata=metadata)


def _positive_units(value: str) -> int:
    """argparse type: a strictly positive integer of cost units."""
    units = int(value)
    if units <= 0:
        raise argparse.ArgumentTypeError(
            "must be a positive integer of cost units"
        )
    return units


def _selectivity_factor(value: str) -> float:
    """argparse type: a selectivity factor in [0, 1]."""
    factor = float(value)
    if not 0.0 <= factor <= 1.0:
        raise argparse.ArgumentTypeError(
            "must be a selectivity factor between 0 and 1"
        )
    return factor


@dataclass(frozen=True)
class RuntimeConfig:
    """The knobs every engine-building entry point shares.

    Substrate knobs mirror :class:`~repro.spark.context.SparkContext`'s
    parameters (documented in full there); plan and routing knobs select
    what runs on top of it.  Each field's ``help`` says what it means.
    """

    parallelism: int = knob(
        4, "partitions per RDD and executors per context (default 4)", type=int
    )
    faults: Union[None, str, FaultScheduler] = knob(
        None,
        "inject a deterministic fault schedule, e.g. 'fail:p=0.2;lose:p=0.5;"
        "straggle:p=0.1,delay=3;seed=7' (grammar: docs/FAULTS.md)",
        metavar="SPEC",
    )
    max_task_attempts: int = knob(
        4,
        "runs of a task before a failure aborts a job (default 4)",
        type=int,
        metavar="N",
    )
    speculation: bool = knob(False, "launch backup copies of straggling tasks")
    backend: str = knob(
        "inprocess",
        "executor backend: 'inprocess' runs partition tasks serially (the "
        "oracle), 'parallel' on forked workers, same bytes (docs/PARALLEL.md)",
        choices=list(BACKEND_NAMES),
    )
    workers: Optional[int] = knob(
        None,
        "worker processes under --backend parallel (default %d)"
        % DEFAULT_WORKERS,
        type=int,
        metavar="N",
    )
    verify_closures: bool = knob(
        False,
        "check every closure of a job's lineage at submission (CL000..CL007, "
        "docs/ANALYSIS.md); a violating closure ends the run with exit 4",
    )
    optimize: bool = knob(
        False,
        "run BGPs through the shared cost-based optimizer instead of each "
        "engine's native join order (docs/OPTIMIZER.md)",
    )
    optimizer_mode: str = knob(
        "dp",
        "join ordering under --optimize and of the lint and routing "
        "estimates (default dp)",
        choices=list(ORDER_MODES),
    )
    broadcast_threshold: int = knob(
        DEFAULT_BROADCAST_THRESHOLD,
        "broadcast a join's build side when its estimate is under ROWS rows "
        "(default %d)" % DEFAULT_BROADCAST_THRESHOLD,
        type=int,
        metavar="ROWS",
    )
    views: bool = knob(
        False,
        "substitute materialized ExtVP views into optimized plans (requires "
        "--optimize; docs/VIEWS.md)",
    )
    view_threshold: Optional[float] = knob(
        None,
        "materialize an ExtVP pair whose selectivity factor is at most "
        "FACTOR, in [0, 1] (default %s)" % DEFAULT_VIEW_THRESHOLD,
        type=_selectivity_factor,
        metavar="FACTOR",
    )
    route: bool = knob(
        False,
        "dispatch each query by the adaptive per-shape routing policy instead "
        "of one fixed engine (docs/ROUTING.md)",
    )
    route_engines: Optional[Tuple[str, ...]] = knob(
        None,
        "candidate engine of the routed pool (repeatable; requires --route; "
        "default: the survey preference pool)",
        action="append",
        metavar="NAME",
    )

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
        if self.view_threshold is not None and not (
            0.0 <= self.view_threshold <= 1.0
        ):
            raise RuntimeConfigError(
                "--view-threshold must be a selectivity factor between 0 "
                "and 1"
            )
        for declared in dataclasses.fields(self):
            choices = declared.metadata.get("choices")
            value = getattr(self, declared.name)
            if choices is not None and value not in choices:
                raise RuntimeConfigError(
                    "%s must be one of %s, not %r"
                    % (cli_flag(declared), ", ".join(choices), value)
                )
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

    engine: str = knob("SPARQLGX", "engine name (default SPARQLGX)")
    pool_size: int = knob(
        2, "warmed engine instances in the pool", flag="--pool", type=int
    )
    queue_limit: int = knob(
        8, "admission queue length (beyond it: rejection)", type=int
    )
    default_deadline: Optional[int] = knob(
        None,
        "per-query budget in cost units for requests that name none",
        flag="--deadline",
        type=_positive_units,
        metavar="UNITS",
    )
    enable_plan_cache: bool = knob(
        True, "disable the parsed-plan cache", flag="--no-plan-cache"
    )
    enable_result_cache: bool = knob(
        True, "disable the per-version result cache", flag="--no-result-cache"
    )
    lint_admission: bool = knob(
        True, "disable the static lint admission check", flag="--no-lint"
    )
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
