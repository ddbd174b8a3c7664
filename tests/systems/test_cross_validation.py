"""Every engine against the reference on the LUBM and WatDiv corpora.

A named slice of the differential matrix (tests/differential/matrix.py):
the cells, the corpus and the one assertion live there.  A query outside
an engine's fragment must be refused, not answered.
"""

import pytest

from repro.data.lubm import LubmGenerator
from repro.data.watdiv import WatdivGenerator
from repro.data.workload import generate_query
from repro.systems import ALL_ENGINE_CLASSES, NaiveEngine
from tests.differential.matrix import SHAPES, Cell, check, dataset, render_patterns

ENGINES = (NaiveEngine,) + ALL_ENGINE_CLASSES


def engine_id(cls):
    return cls.profile.name


@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
@pytest.mark.parametrize("query_name", sorted(LubmGenerator.all_queries()))
def test_lubm_canonical(engine_class, query_name):
    check(Cell.of(engine_class.profile.name), "lubm", query_name)


@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
@pytest.mark.parametrize("query_name", sorted(WatdivGenerator.all_queries()))
def test_watdiv_canonical(engine_class, query_name):
    check(Cell.of(engine_class.profile.name), "watdiv", query_name)


@pytest.mark.slow
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.value)
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_workload(engine_class, shape, seed):
    query = generate_query(dataset("watdiv"), shape, seed=seed)
    text = "SELECT * WHERE { %s }" % render_patterns(query.where.triple_patterns())
    check(Cell.of(engine_class.profile.name), "watdiv", text)


@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_empty_answer_query(engine_class):
    check(Cell.of(engine_class.profile.name), "lubm", "empty")


@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_unknown_constant_query(engine_class):
    check(Cell.of(engine_class.profile.name), "lubm", "unknown")


@pytest.mark.slow
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_fully_ground_pattern(engine_class):
    check(Cell.of(engine_class.profile.name), "lubm", "ground")
