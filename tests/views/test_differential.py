"""Views change *how*, never *what*.

Every engine with a view-substituting optimizer answers the LUBM corpus
as the reference does -- a named slice of the differential matrix
(tests/differential/matrix.py); and after a commit, the incrementally
maintained catalog plans the same answers a freshly rebuilt one does.
"""

import pytest

from repro.evolution import VersionedGraph
from repro.optimizer import Optimizer
from repro.runtime import RuntimeConfig
from repro.stats.catalog import StatsCatalog
from repro.systems import ALL_ENGINE_CLASSES, NaiveEngine
from repro.views import ViewCatalog
from tests.differential import test_matrix
from tests.differential.matrix import Cell, answer, check_corpus, corpus

ENGINES = (NaiveEngine,) + tuple(ALL_ENGINE_CLASSES)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda cls: cls.__name__)
def test_view_results_byte_identical(engine_cls):
    cell = Cell.of(engine_cls.profile.name, optimize=True, views=True)
    check_corpus(cell, "lubm", "canonical")


def test_workload_actually_substitutes_views():
    """Guard against a vacuous differential: views must really be used."""
    test_matrix.test_views_are_scanned()


def test_incremental_catalog_plans_like_rebuilt_catalog(lubm_graph):
    """After a commit, maintained views answer like freshly built ones."""
    store = VersionedGraph(lubm_graph.copy())
    head = store.head()
    catalog = ViewCatalog.build(
        head, StatsCatalog.from_graph(head), threshold=0.5
    )
    version = store.commit(additions=[], deletions=sorted(head)[20:50])
    head = store.head()
    catalog.apply_delta(store.delta(version), head, version)

    maintained = Optimizer.for_graph(head, version=version)
    maintained.set_view_catalog(catalog)
    rebuilt = Optimizer.for_graph(
        head, version=version, views=True, view_threshold=0.5
    )
    maintained_answers, rebuilt_answers = (
        [
            answer(engine, text).wire
            for engine in [RuntimeConfig().engine("Naive", head, optimizer=optimizer)]
            for text in corpus("lubm").values()
        ]
        for optimizer in (maintained, rebuilt)
    )
    assert maintained_answers == rebuilt_answers
