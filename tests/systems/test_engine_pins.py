"""Engine pins: what every engine configuration answers and charges, no clock.

``BENCH_routing.json`` prices six engines at their defaults; S2X,
SPARQL-GraphX, Spar(k)ql, GraphFrames-RDF, SPARQL-Hybrid's non-default
strategies, S2RDF without ExtVP and HAQWA with a workload have no
tolerance-0 gate in any committed artifact.  ``engine_pins.json`` holds,
per (dataset, parallelism, engine variant, query): the row count and the
sha of the canonical answer, the ``measure()`` counter delta, the traced
counter delta (where it differs from the untraced one) and the sha of
``trace_to_json(spans)`` *unnormalized* -- so the ``rdd%d`` names (the
order in which RDDs are allocated) and the ``fault``/``retry`` spans are
part of what is pinned.  Each cell runs its queries in order on one warm
engine, so a pin also fixes how many RDDs every earlier query of the
cell allocated.  The matrix: every engine at its defaults at parallelism
1 and 4; the ablation variants, six engines under the greedy and the dp
optimizer with views, and nine engines under one fault schedule at 4.

A refactor of ``repro.systems`` that claims to be invisible must leave
the file byte for byte as it is.  The file is written by the commit
whose behaviour is the one to keep -- for a refactor, its *parent*, in a
scratch clone, before any line of ``src/`` changes::

    git clone -q . /root/scratch/parent && cd /root/scratch/parent
    cp <change>/tests/systems/test_engine_pins.py tests/systems/
    PYTHONPATH=src python tests/systems/test_engine_pins.py --write
    cp tests/systems/engine_pins.json <change>/tests/systems/

``--write`` refuses to pin an answer the reference evaluator disagrees
with.  A PR that changes an answer or a cost on purpose regenerates the
file on its own tree and says which pins moved and why -- ``--diff``
(before ``--write``) prints that list: one line per cell/query whose
fresh pin is not the committed one, with the fields that moved, and
exits 1 if a ``rows`` or an ``answer`` is among them::

    PYTHONPATH=src python tests/systems/test_engine_pins.py --diff
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.data.lubm import LubmGenerator
from repro.data.watdiv import WatdivGenerator
from repro.data.workload import QueryWorkload
from repro.runtime import RuntimeConfig
from repro.server.protocol import canonical_json, canonical_result
from repro.spark.tracing import trace_to_json
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.systems import ENGINE_HOMES
from repro.systems.hybrid import JoinStrategy

PINS_PATH = os.path.join(os.path.dirname(__file__), "engine_pins.json")

LUBM_PREFIX = "PREFIX lubm: <http://repro.example.org/lubm#>\n"
#: The shapes the canonical workloads leave out: a cross product, a
#: constant subject alone and linked to a second star, a variable
#: predicate, a repeated variable and a constant absent from the data.
LUBM_EXTRA = {
    "cross": "SELECT * WHERE { ?d lubm:subOrganizationOf ?u ."
    " ?p lubm:worksFor ?x }",
    "constant_star": "SELECT * WHERE {"
    " lubm:Department0_1 lubm:subOrganizationOf ?u ."
    " lubm:Department0_1 lubm:name ?n }",
    "constant_link": "SELECT * WHERE {"
    " lubm:Department0_1 lubm:subOrganizationOf ?u ."
    " ?p lubm:worksFor lubm:Department0_1 . ?p lubm:emailAddress ?e }",
    "variable_predicate": "SELECT * WHERE {"
    " ?s ?p lubm:Department0_1 . ?s lubm:name ?n }",
    "repeated_variable": "SELECT * WHERE {"
    " ?x lubm:advisor ?x . ?x lubm:name ?n }",
    "unknown_constant": "SELECT * WHERE {"
    " ?s lubm:memberOf lubm:NoSuchDepartment . ?s lubm:name ?n }",
}


def _datasets():
    """name -> (graph, {query name: parsed query}, HAQWA's frequent query)."""
    lubm = dict(LubmGenerator.all_queries())
    lubm.update({k: LUBM_PREFIX + v for k, v in LUBM_EXTRA.items()})
    frequent_lubm = (
        LUBM_PREFIX
        + "SELECT ?s ?p ?dep WHERE { ?s lubm:advisor ?p ."
        " ?p lubm:worksFor ?dep }"
    )
    return {
        "lubm": (
            LubmGenerator(num_universities=1, seed=42).generate(),
            {name: parse_sparql(text) for name, text in lubm.items()},
            parse_sparql(frequent_lubm),
        ),
        "watdiv": (
            WatdivGenerator(num_users=30, num_products=15, seed=7).generate(),
            {
                name: parse_sparql(text)
                for name, text in WatdivGenerator.all_queries().items()
            },
            parse_sparql(WatdivGenerator.query_linear()),
        ),
    }


def _ablations(frequent):
    """label -> (engine name, constructor kwargs) off the defaults."""
    workload = QueryWorkload()
    workload.add("frequent", frequent, frequency=10.0)
    variants = {}
    for strategy in JoinStrategy:
        if strategy is not JoinStrategy.HYBRID:
            variants["SPARQL-Hybrid[%s]" % strategy.value] = (
                "SPARQL-Hybrid",
                {"strategy": strategy},
            )
    variants["S2RDF[no-extvp]"] = ("S2RDF", {"build_extvp": False})
    variants["S2RDF[sf=0.25]"] = ("S2RDF", {"sf_threshold": 0.25})
    variants["SPARQLGX[no-reorder]"] = ("SPARQLGX", {"enable_reordering": False})
    variants["HAQWA[workload]"] = ("HAQWA", {"workload": workload})
    return variants


#: Three seconds a run, on the one engine whose motif path shares no
#: helper with the others; its other fifteen queries are pinned.
SKIPPED = {("watdiv", "GraphFrames-RDF", "snowflake")}
#: Engines the shared optimizer and the fault schedule are pinned on.
OPTIMIZED = ("Naive", "SPARQLGX", "S2RDF", "HAQWA", "SPARQL-Hybrid", "SparkRDF")
FAULTED = OPTIMIZED + ("S2X", "SPARQL-GraphX", "Spar(k)ql")
FAULTS = "fail:p=0.05;lose:p=0.1;seed=7"


def _cells():
    """(cell id, graph, queries, config, engine name, kwargs) for every
    engine the file pins; a cell is one warm engine."""
    for dataset, (graph, queries, frequent) in _datasets().items():
        for parallelism in (1, 4):
            config = RuntimeConfig(parallelism=parallelism)
            for engine in ENGINE_HOMES:
                yield (
                    "%s/p%d/%s" % (dataset, parallelism, engine),
                    graph,
                    {
                        name: query
                        for name, query in queries.items()
                        if (dataset, engine, name) not in SKIPPED
                    },
                    config, engine, {},
                )
        config = RuntimeConfig(parallelism=4)
        for label, (engine, kwargs) in _ablations(frequent).items():
            yield (
                "%s/p4/%s" % (dataset, label),
                graph, queries, config, engine, kwargs,
            )
        for mode in ("greedy", "dp"):
            config = RuntimeConfig(
                parallelism=4, optimize=True, optimizer_mode=mode, views=True
            )
            for engine in OPTIMIZED:
                yield (
                    "%s/p4/%s+%s+views" % (dataset, engine, mode),
                    graph, queries, config, engine, {},
                )
        config = RuntimeConfig(parallelism=4, faults=FAULTS)
        for engine in FAULTED:
            yield (
                "%s/p4/%s+faults" % (dataset, engine),
                graph, queries, config, engine, {},
            )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _nonzero(cost) -> dict:
    return {name: value for name, value in cost if value}


def _pin_cell(graph, queries, config, engine, kwargs, check_reference=False):
    """query name -> pin, for the queries the engine's fragment covers."""
    built = config.engine(engine, graph, fresh=True, **kwargs)
    pins = {}
    for name, query in queries.items():
        if not built.supports(query):
            continue
        plain = built.measure(query)
        traced = built.measure(query, trace=True)
        answer = canonical_json(canonical_result(plain.answer, query))
        assert answer == canonical_json(canonical_result(traced.answer, query))
        if check_reference:
            expected = canonical_result(evaluate(query, graph), query)
            assert answer == canonical_json(expected), (engine, kwargs, name)
        pins[name] = {
            "rows": plain.rows,
            "answer": _sha(answer),
            "cost": _nonzero(plain.cost),
            "trace": _sha(trace_to_json(traced.spans)),
        }
        if traced.cost != plain.cost:
            pins[name]["traced_cost"] = _nonzero(traced.cost)
    return pins


CELLS = {cell[0]: cell[1:] for cell in _cells()}


@pytest.fixture(scope="module")
def pinned():
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_the_file_pins_exactly_the_matrix(pinned):
    assert sorted(pinned) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_engine_pins(cell, pinned):
    actual = _pin_cell(*CELLS[cell])
    expected = pinned[cell]
    assert sorted(actual) == sorted(expected)
    for query in actual:
        assert actual[query] == expected[query], "%s/%s" % (cell, query)


def _write() -> None:
    pins = {
        cell: _pin_cell(*args, check_reference=True)
        for cell, args in CELLS.items()
    }
    lines = [
        "%s: {\n%s\n}" % (
            json.dumps(cell),
            ",\n".join(
                "  %s: %s" % (json.dumps(query), json.dumps(pin, sort_keys=True))
                for query, pin in sorted(pins[cell].items())
            ),
        )
        for cell in sorted(pins)
    ]
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(
        "pinned %d queries in %d cells -> %s"
        % (sum(len(p) for p in pins.values()), len(pins), PINS_PATH)
    )


#: The fields of a pin, in the order ``--diff`` names them.
PIN_FIELDS = ("trace", "cost", "traced_cost", "rows", "answer")


def _diff() -> int:
    """Print which pins a fresh run moves; 1 if an answer is among them."""
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    answers_moved = False
    for cell in sorted(set(CELLS) | set(pinned)):
        fresh = _pin_cell(*CELLS[cell]) if cell in CELLS else {}
        committed = pinned.get(cell, {})
        for query in sorted(set(fresh) | set(committed)):
            before, after = committed.get(query, {}), fresh.get(query, {})
            moved = [f for f in PIN_FIELDS if before.get(f) != after.get(f)]
            if moved:
                print("%s/%s: %s" % (cell, query, " ".join(moved)))
            answers_moved |= "rows" in moved or "answer" in moved
    return 1 if answers_moved else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    elif sys.argv[1:] == ["--diff"]:
        sys.exit(_diff())
    else:
        sys.exit(
            "usage: PYTHONPATH=src python %s --write | --diff" % sys.argv[0]
        )
