"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one artifact of the paper (Figure 1, Table I,
Table II) or checks one of its qualitative performance claims (see
DESIGN.md's experiment index and EXPERIMENTS.md for the paper-vs-measured
record).  Benchmarks print their tables/series to stdout; run with
``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

import pytest

from repro.bench import report  # noqa: F401  (the benches import it from here)
from repro.data.lubm import LubmGenerator
from repro.data.watdiv import WatdivGenerator


@pytest.fixture(scope="session")
def lubm_graph():
    return LubmGenerator(num_universities=2, seed=42).generate()


@pytest.fixture(scope="session")
def lubm_small():
    return LubmGenerator(num_universities=1, seed=42).generate()


@pytest.fixture(scope="session")
def watdiv_graph():
    return WatdivGenerator(num_users=50, num_products=25, seed=7).generate()
