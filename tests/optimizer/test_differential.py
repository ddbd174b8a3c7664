"""The optimizer may change *how*, never *what*: every engine, every
ordering mode, answers the LUBM corpus as the reference does.

A named slice of the differential matrix (tests/differential/matrix.py).
"""

import pytest

from repro.systems import ALL_ENGINE_CLASSES, NaiveEngine
from tests.differential.matrix import Cell, check_corpus

ENGINES = (NaiveEngine,) + tuple(ALL_ENGINE_CLASSES)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda cls: cls.__name__)
def test_optimized_results_byte_identical(engine_cls):
    check_corpus(Cell.of(engine_cls.profile.name, optimize=True), "lubm", "canonical")


@pytest.mark.parametrize("mode", ["parse", "greedy", "dp"])
def test_every_mode_agrees_on_results(mode):
    check_corpus(Cell.of("Naive", optimize=True, optimizer_mode=mode), "lubm")
