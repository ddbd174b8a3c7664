"""A partition is priced, placed, keyed and scanned by the partition,
pinned by counts.

A clock cannot gate this on a shared runner; call counts can.  Once a
store's terms have been priced and placed (one warm-up execution), a
second execution of a shuffle-bearing query must find every term's size
and placement hash on the term -- no ``repr`` of any term -- and must
enter the cost model, the partitioners and the engines' shared helpers
per map task, per partition or per pattern: fewer Python calls into
``spark/metrics.py``, ``spark/partitioner.py`` and ``systems/base.py``
than records shuffled, and no more than a small constant per task.  One
call per record into any of the three fails both bounds.  The graph is
the wall-clock benchmark's size, so that records outnumber tasks and the
two bounds tell "per record" from "per task".
"""

import os
import sys

import pytest

from repro.data.lubm import LubmGenerator
from repro.rdf.terms import BNode, Literal, URI
from repro.runtime import build_engine
from repro.spark import metrics as metrics_module
from repro.spark import partitioner as partitioner_module
from repro.systems import base as base_module

JOIN_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d ?n WHERE {"
    " ?s lubm:memberOf ?d . ?s lubm:name ?n . ?d lubm:subOrganizationOf ?u }"
)

#: Where nothing may run per record.
PER_PARTITION_FILES = frozenset(
    os.path.realpath(module.__file__)
    for module in (metrics_module, partitioner_module, base_module)
)
#: Calls into those files one task may cost: its counters, and for a
#: shuffle map task two columns priced a few kinds deep and one placed.
CALLS_PER_TASK = 12


@pytest.fixture(scope="module")
def graph():
    return LubmGenerator(num_universities=25, seed=42).generate()


@pytest.mark.parametrize("engine_name", ["Naive", "SPARQLGX", "HAQWA"])
def test_second_execution_prices_records_from_the_terms(
    engine_name, graph, monkeypatch
):
    engine = build_engine(engine_name, graph)
    warm = engine.measure(JOIN_QUERY)
    assert warm.cost.shuffle_records > 0 and warm.rows > 0

    counts = {"repr": 0, "calls": 0}
    for kind in (URI, BNode, Literal):

        def counting_repr(term, _repr=kind.__repr__):
            counts["repr"] += 1
            return _repr(term)

        monkeypatch.setattr(kind, "__repr__", counting_repr)

    def count_calls(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in PER_PARTITION_FILES:
            counts["calls"] += 1

    sys.setprofile(count_calls)
    try:
        again = engine.measure(JOIN_QUERY)
    finally:
        sys.setprofile(None)

    assert again.rows == warm.rows
    assert again.cost.shuffle_bytes == warm.cost.shuffle_bytes
    assert counts["repr"] == 0
    assert 0 < counts["calls"] < again.cost.shuffle_records
    assert counts["calls"] <= CALLS_PER_TASK * again.cost.tasks
