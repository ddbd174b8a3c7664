"""Joins on a variable one side may leave unbound, against the reference.

An OPTIONAL or a UNION branch can leave a variable unbound in some of
its rows, and a later join may share that variable.  Such a join is not
keyed on it: unbound agrees with anything and the bound value wins, so
the rows the reference evaluator answers come back from every engine
whose fragment holds the query, on both backends.
"""

import pytest

from repro.rdf.ntriples import parse_ntriples
from repro.runtime import build_engine
from repro.spark.parallel import parallel_available
from repro.sparql.parser import parse_sparql
from repro.systems import ENGINE_HOMES, engine_class
from tests.systems.conftest import assert_engine_matches_reference

DATA = """\
<http://x/a> <http://x/t> <http://x/C> .
<http://x/b> <http://x/t> <http://x/C> .
<http://x/a> <http://x/p> <http://x/o1> .
<http://x/z> <http://x/q> <http://x/o1> .
<http://x/y> <http://x/q> <http://x/o2> .
"""

#: name -> (query, the reference's row count).
QUERIES = {
    # ?o is unbound where the OPTIONAL found nothing: 1 + 2 rows.
    "optional_then_join": (
        "SELECT * WHERE { { ?s <http://x/t> ?c"
        " OPTIONAL { ?s <http://x/p> ?o } } { ?x <http://x/q> ?o } }",
        3,
    ),
    # ?o is unbound in the first branch's rows: 2 x 2 + 1 rows.
    "union_then_join": (
        "SELECT * WHERE { { ?s <http://x/t> ?c } UNION"
        " { ?s <http://x/p> ?o } ?z <http://x/q> ?o }",
        5,
    ),
    # A left join keyed on nothing: each left row once, or with partners.
    "union_then_optional": (
        "SELECT * WHERE { { { ?s <http://x/t> ?c } UNION"
        " { ?s <http://x/p> ?o } } OPTIONAL { ?z <http://x/q> ?o } }",
        5,
    ),
    # No shared variable and an empty right side: the left rows stay.
    "optional_of_nothing": (
        "SELECT * WHERE { ?s <http://x/t> ?c"
        " OPTIONAL { ?z <http://x/nope> ?w } }",
        2,
    ),
}


def cases():
    for query_name, (text, rows) in sorted(QUERIES.items()):
        query = parse_sparql(text)
        for engine_name in ENGINE_HOMES:
            if engine_class(engine_name)().supports(query):
                name = "%s-%s" % (engine_name, query_name)
                yield pytest.param(engine_name, text, rows, id=name)


@pytest.fixture(scope="module")
def graph():
    return parse_ntriples(DATA)


@pytest.mark.parametrize("engine_name,text,rows", list(cases()))
def test_a_join_on_a_maybe_unbound_variable_answers(
    graph, engine_name, text, rows
):
    engine = build_engine(engine_name, graph)
    assert len(assert_engine_matches_reference(engine, graph, text)) == rows


@pytest.mark.skipif(
    not parallel_available(), reason="the parallel backend needs fork"
)
@pytest.mark.parametrize("engine_name", ["Naive", "SPARQLGX"])
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_the_forked_backend_answers_the_same(graph, engine_name, query_name):
    text, rows = QUERIES[query_name]
    engine = build_engine(engine_name, graph, backend="parallel", workers=2)
    assert len(assert_engine_matches_reference(engine, graph, text)) == rows
