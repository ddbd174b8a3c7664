"""Shared fixtures: contexts, sessions, and generated datasets."""

from __future__ import annotations

import sys
from multiprocessing.process import BaseProcess

import pytest

from repro.data.lubm import LubmGenerator
from repro.data.watdiv import WatdivGenerator
from repro.spark.context import SparkContext
from repro.spark.sql.session import SparkSession
from repro.stats.catalog import StatsCatalog


@pytest.fixture
def sc() -> SparkContext:
    """A fresh 4-partition context per test."""
    return SparkContext(default_parallelism=4)


@pytest.fixture
def session(sc: SparkContext) -> SparkSession:
    return SparkSession(sc)


@pytest.fixture(scope="session")
def lubm_graph():
    """A small LUBM-like instance graph (shared; treat as read-only)."""
    return LubmGenerator(num_universities=1, seed=42).generate()


@pytest.fixture(scope="session")
def lubm_graph_with_tbox():
    return LubmGenerator(num_universities=1, seed=42).generate(
        include_tbox=True
    )


@pytest.fixture(scope="session")
def watdiv_graph():
    """A small WatDiv-like instance graph (shared; treat as read-only)."""
    return WatdivGenerator(num_users=30, num_products=15, seed=7).generate()


@pytest.fixture
def stats_passes(monkeypatch):
    """The graphs ``StatsCatalog.from_graph`` was asked to count, in order."""
    counted = []
    original = StatsCatalog.from_graph.__func__

    def counting(cls, graph, version=0):
        counted.append(graph)
        return original(cls, graph, version=version)

    monkeypatch.setattr(StatsCatalog, "from_graph", classmethod(counting))
    return counted


@pytest.fixture
def starts_per_context(monkeypatch):
    """The most ``Process.start`` calls any one context made while the
    test runs (a worker's context is its second argument)."""
    most = [0]
    start = BaseProcess.start

    def counting_start(self):
        ctx = self._args[1]
        ctx.process_starts = getattr(ctx, "process_starts", 0) + 1
        most[0] = max(most[0], ctx.process_starts)
        start(self)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    return most


@pytest.fixture(autouse=True, scope="module")
def release_matrix_runners():
    """After each module, the differential matrix's cached engines go,
    and their worker pools with them."""
    yield
    matrix = sys.modules.get("tests.differential.matrix")
    if matrix is not None:
        matrix.release()
