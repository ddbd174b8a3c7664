"""Pricing a shuffled record is O(1) per term, pinned by counts.

A clock cannot gate this on a shared runner; call counts can.  Once a
store's terms have been priced and placed (one warm-up execution), a
second execution of a shuffle-bearing query must find every term's size
and placement hash on the term: no ``repr`` of any term, and
``estimate_size`` entered once per container of a record -- its terms,
strings and ints priced in that container's own loop.
"""

import pytest

from repro.rdf.terms import BNode, Literal, URI
from repro.runtime import build_engine
from repro.spark import metrics as metrics_module
from repro.spark import rdd as rdd_module

JOIN_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d ?n WHERE {"
    " ?s lubm:memberOf ?d . ?s lubm:name ?n . ?d lubm:subOrganizationOf ?u }"
)

CONTAINERS = (tuple, list, set, frozenset, dict)


def containers_in(value):
    """How many containers *value* is made of, itself included."""
    if not isinstance(value, CONTAINERS):
        return 0
    parts = value.values() if isinstance(value, dict) else value
    return 1 + sum(containers_in(part) for part in parts)


@pytest.mark.parametrize("engine_name", ["Naive", "SPARQLGX", "HAQWA"])
def test_second_execution_prices_records_from_the_terms(
    engine_name, lubm_graph, monkeypatch
):
    engine = build_engine(engine_name, lubm_graph)
    warm = engine.measure(JOIN_QUERY)
    assert warm.cost.shuffle_records > 0 and warm.rows > 0

    counts = {"repr": 0, "records": 0, "entered": 0, "allowed": 0}
    for kind in (URI, BNode, Literal):

        def counting_repr(term, _repr=kind.__repr__):
            counts["repr"] += 1
            return _repr(term)

        monkeypatch.setattr(kind, "__repr__", counting_repr)

    price = metrics_module.estimate_size

    def nested(value):
        counts["entered"] += 1
        return price(value)

    def record(value):
        counts["records"] += 1
        counts["allowed"] += containers_in(value)
        return nested(value)

    # A container prices the containers inside it through the module's
    # own name; the shuffle prices a record through the one it imported.
    monkeypatch.setattr(metrics_module, "estimate_size", nested)
    monkeypatch.setattr(rdd_module, "estimate_size", record)

    again = engine.measure(JOIN_QUERY)

    assert again.rows == warm.rows
    assert again.cost.shuffle_bytes == warm.cost.shuffle_bytes
    assert counts["records"] == again.cost.shuffle_records
    assert counts["repr"] == 0
    assert 0 < counts["entered"] <= counts["allowed"]
