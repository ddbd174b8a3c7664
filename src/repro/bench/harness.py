"""Run matrices of (engine x query) with correctness checks and metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type, Union

from repro.rdf.graph import RDFGraph
from repro.runtime import RuntimeConfig
from repro.spark.metrics import MetricsSnapshot
from repro.spark.tracing import Span
from repro.sparql.algebra import evaluate
from repro.sparql.ast import Query, SelectQuery
from repro.sparql.parser import parse_sparql
from repro.sparql.results import SolutionSet
from repro.systems.base import SparkRdfEngine, UnsupportedQueryError


@dataclass
class RunResult:
    """One (engine, query) execution with its measured cost."""

    engine: str
    query: str
    rows: int
    correct: Optional[bool]
    supported: bool
    seconds: float
    metrics: MetricsSnapshot
    #: Root spans of the execution trace when the run was traced, else None.
    trace: Optional[List[Span]] = None

    def cost_summary(self) -> Dict[str, int]:
        return {
            "shuffle_records": self.metrics.shuffle_records,
            "shuffle_remote": self.metrics.shuffle_remote_records,
            "join_comparisons": self.metrics.join_comparisons,
            "records_scanned": self.metrics.records_scanned,
            "broadcast_bytes": self.metrics.broadcast_bytes,
        }


def run_engine_on_query(
    engine: SparkRdfEngine,
    query: Union[str, Query],
    name: str = "query",
    reference: Optional[SolutionSet] = None,
    trace: bool = False,
) -> RunResult:
    """Execute one query on a loaded engine, measuring its marginal cost.

    With ``trace=True`` the context's tracer brackets the execution and
    the result carries the span tree in :attr:`RunResult.trace`; the
    tracer's previous enabled state is restored afterwards.
    """
    # Wall time is display-only (never serialized into byte-stable
    # artifacts; cost units are the reproducible measure).
    start = time.perf_counter()  # repro: allow(DT004)
    try:
        run = engine.measure(query, trace=trace)
    except UnsupportedQueryError:
        return RunResult(
            engine=engine.profile.name,
            query=name,
            rows=0,
            correct=None,
            supported=False,
            seconds=0.0,
            metrics=MetricsSnapshot({}),
        )
    elapsed = time.perf_counter() - start  # repro: allow(DT004)
    correct = None
    if reference is not None and isinstance(run.answer, SolutionSet):
        correct = run.answer.same_as(reference)
    return RunResult(
        engine=engine.profile.name,
        query=name,
        rows=run.rows,
        correct=correct,
        supported=True,
        seconds=elapsed,
        metrics=run.cost,
        trace=run.spans,
    )


@dataclass
class BenchRun:
    """A matrix run: engines x named queries over one dataset.

    Every engine of the matrix gets its own context built from the one
    ``config``.  A configured fault schedule therefore puts them all
    under the *same* adversarial schedule, each on a fresh fork, so
    firing counters never leak between engines and the matrix stays
    deterministic.  Correctness checking then doubles as a recovery
    test -- answers must survive the schedule unchanged.
    """

    graph: RDFGraph
    config: RuntimeConfig = RuntimeConfig()
    results: List[RunResult] = field(default_factory=list)

    def run(
        self,
        engine_classes: Sequence[Type[SparkRdfEngine]],
        queries: Dict[str, Union[str, Query]],
        check_correctness: bool = True,
        engine_kwargs: Optional[Dict[str, dict]] = None,
        trace: bool = False,
    ) -> List[RunResult]:
        """Load each engine once, run every query, return all results.

        Each call starts from a clean slate: ``self.results`` is reset, so
        repeated calls do not silently accumulate earlier matrices (use
        separate :class:`BenchRun` instances to keep several).  With
        ``trace=True`` every result carries its execution span tree.
        """
        self.reset()
        parsed: Dict[str, Query] = {
            name: parse_sparql(q) if isinstance(q, str) else q
            for name, q in queries.items()
        }
        references: Dict[str, Optional[SolutionSet]] = {}
        for name, query in parsed.items():
            if check_correctness and isinstance(query, SelectQuery):
                references[name] = evaluate(query, self.graph)
            else:
                references[name] = None
        kwargs_by_name = engine_kwargs or {}
        optimizer = self.config.optimizer(self.graph)
        for engine_class in engine_classes:
            engine = self.config.engine(
                engine_class,
                self.graph,
                fresh=True,
                optimizer=optimizer,
                **kwargs_by_name.get(engine_class.profile.name, {}),
            )
            for name, query in parsed.items():
                self.results.append(
                    run_engine_on_query(
                        engine, query, name, references[name], trace=trace
                    )
                )
        return self.results

    def reset(self) -> None:
        """Drop all collected results (run() calls this automatically)."""
        self.results = []

    def incorrect(self) -> List[RunResult]:
        return [r for r in self.results if r.correct is False]

    def by_engine(self) -> Dict[str, List[RunResult]]:
        out: Dict[str, List[RunResult]] = {}
        for result in self.results:
            out.setdefault(result.engine, []).append(result)
        return out
