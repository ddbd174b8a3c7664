"""Every cell of the differential matrix answers as the reference does.

The lattice, the query source and the one assertion live in
:mod:`tests.differential.matrix`.  Beside the fixed corpus, Hypothesis
draws fragment queries over the seeded graphs and over small random
ones; the last tests fail when an axis is vacuous.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.workload import QueryWorkload
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.runtime import RuntimeConfig, resolve_engine
from repro.sparql.ast import TriplePattern
from repro.sparql.fragments import features_of
from repro.sparql.parser import parse_sparql
from tests.differential.matrix import (
    ENGINES,
    EX,
    GENERATORS,
    Cell,
    assert_agrees,
    check,
    check_corpus,
    check_graph,
    corpus,
    dataset,
    expected,
    fragment_queries,
    lattice,
    may_rescan,
    part_of,
    serve_corpus,
    small_graphs,
    tier,
    too_slow,
)

ITEMS = [
    pytest.param(
        cell,
        name,
        part,
        marks=[pytest.mark.slow] if profile == "deep" else [],
        id="%s-%s-%s" % (cell, name, part),
    )
    for cell in lattice()
    for name in sorted(GENERATORS)
    for part in ("canonical", "fragments")
    for profile in [tier(cell, name, part)]
    if profile
]


@pytest.mark.parametrize("cell,name,part", ITEMS)
def test_cell_answers_the_corpus_as_the_reference(cell, name, part):
    check_corpus(cell, name, part)


#: Every engine (HAQWA also with a workload) as it ships.
SHIPPED = [Cell.of(engine, variant) for engine, variant in ENGINES]


@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_generated_queries_agree_on_every_engine(data):
    name = data.draw(st.sampled_from(sorted(GENERATORS)))
    text = data.draw(fragment_queries(dataset(name)))
    for cell in SHIPPED:
        if not too_slow(cell, text):
            check(cell, name, text)


#: Small graphs under the optimizer.  Every engine as it ships meets
#: them in tests/systems/test_property_validation.py, the forked backend
#: in tests/spark/test_parallel_properties.py.
ON_SMALL_GRAPHS = [
    Cell.of("Naive", optimize=True, views=True),
    Cell.of("SPARQLGX", optimize=True, optimizer_mode="dp"),
]


@given(graph=small_graphs, data=st.data())
@settings(max_examples=12, deadline=None)
def test_small_graphs_agree_under_the_optimizer(graph, data):
    text = data.draw(fragment_queries(graph))
    want = expected(graph, text)
    for cell in ON_SMALL_GRAPHS:
        check_graph(cell, graph, text, want)


def test_a_replica_answers_once():
    """s0's triples are replicated beside s1 for the frequent chain: the
    star on the constant s0 came back once per copy (HAQWA, 2 rows for
    the reference's 1)."""
    p0 = URI(EX + "p0")
    graph = RDFGraph(
        [
            Triple(URI(EX + "s1"), p0, URI(EX + "s0")),
            Triple(URI(EX + "s0"), p0, URI(EX + "s2")),
        ]
    )
    workload = QueryWorkload()
    chain = "SELECT * WHERE { ?v0 <%s> ?v1 . ?v1 <%s> ?v2 }" % (p0.value, p0.value)
    workload.add("frequent", parse_sparql(chain), frequency=10.0)
    engine = RuntimeConfig().engine("HAQWA", graph, workload=workload)
    assert engine.replicated_triples > 0
    text = "SELECT * WHERE { <%ss0> <%s> ?o . ?q <%s> <%ss0> }" % (
        EX, p0.value, p0.value, EX,
    )
    assert assert_agrees(engine, graph, text).nonempty


@pytest.mark.parametrize(
    "objects",
    [
        (Literal(1), Literal(1.0)),
        (Literal(1.0), Literal(1)),
        (Literal("a"), Literal("a", language="en")),
    ],
    ids=["int-double", "double-int", "plain-tagged"],
)
def test_an_order_by_tie_between_unequal_terms_is_pinned(objects):
    """Unequal terms with one sort key kept each engine's row order under
    ORDER BY: Naive, HAQWA, S2RDF and S2X answered this in bytes other
    than the reference's, by the order the graph was built in."""
    graph = RDFGraph([Triple(URI(EX + "s0"), URI(EX + "p0"), o) for o in objects])
    text = "SELECT ?o WHERE { ?s <%sp0> ?o } ORDER BY ASC(?s)" % EX
    for cell in SHIPPED:
        check_graph(cell, graph, text)


# ----------------------------------------------------------------------
# No vacuous axis
# ----------------------------------------------------------------------


def answered(cells, name):
    """(parsed query, answer) for each query of *name*'s corpus that one
    of *cells* runs in tier-1 and does not refuse."""
    return [
        (parse_sparql(corpus(name)[key]), answer)
        for cell in cells
        for part in ("canonical", "fragments")
        if tier(cell, name, part) == "bounded"
        for key, answer in check_corpus(cell, name, part).items()
        if answer.wire is not None
    ]


@pytest.mark.parametrize(
    "engine,variant", ENGINES, ids=["-".join(filter(None, e)) for e in ENGINES]
)
def test_every_feature_and_form_an_engine_publishes_is_run(engine, variant):
    cells = [c for c in lattice() if (c.engine, c.variant) == (engine, variant)]
    queries = [query for name in GENERATORS for query, _ in answered(cells, name)]
    features = set().union(*map(features_of, queries))
    assert resolve_engine(engine).profile.sparql_features <= features
    forms = {type(query).__name__ for query in queries}
    assert forms == {"SelectQuery", "AskQuery", "ConstructQuery", "DescribeQuery"}


@pytest.mark.parametrize(
    "engine,variant", ENGINES, ids=["-".join(filter(None, e)) for e in ENGINES]
)
def test_most_answers_are_nonempty(engine, variant):
    answers = [answer for _, answer in answered([Cell.of(engine, variant)], "lubm")]
    assert sum(answer.nonempty for answer in answers) > len(answers) // 2


def test_views_are_scanned():
    answers = answered([Cell.of("SPARQLGX", optimize=True, views=True)], "lubm")
    assert sum(answer.cost["view_scans"] for _, answer in answers) > 0


@pytest.mark.parametrize("mode", ["greedy", "dp"])
def test_the_optimizer_reorders_some_bgp(mode):
    optimizer = RuntimeConfig(optimize=True, optimizer_mode=mode).optimizer(
        dataset("lubm")
    )
    orders = [
        optimizer.plan_bgp(bgp).order
        for query, _ in answered(
            [Cell.of("Naive", optimize=True, optimizer_mode=mode)], "lubm"
        )
        for bgp in [[e for e in query.where.elements if isinstance(e, TriplePattern)]]
        if len(bgp) > 1
    ]
    assert any(order != sorted(order) for order in orders)


def test_the_parallel_axis_forks_within_its_workers(starts_per_context):
    """A fresh forked engine answers two queries: the second is a job for
    the pool the first forked (every engine, the whole workload:
    tests/spark/test_parallel_differential.py)."""
    serve_corpus(
        Cell.of("Naive", backend="parallel", workers=2), "lubm", ["star", "linear"]
    )
    assert 0 < starts_per_context[0] <= 2


def test_only_union_and_cartesian_queries_may_rescan():
    """On the parallel axis the generators' queries, the examples and the
    edge cases but the ground one are held to every counter."""
    queries = {key: parse_sparql(text) for key, text in corpus("lubm").items()}
    rescans = {key for key, query in queries.items() if may_rescan(query)}
    assert {key for key in rescans if part_of(key) == "canonical"} == {"ground"}
