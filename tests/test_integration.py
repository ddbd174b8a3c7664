"""End-to-end integration stories across the whole stack."""

import pytest

from repro.data.lubm import LUBM, LubmGenerator
from repro.evolution import ArchivePolicy, VersionedGraph
from repro.rdf.ntriples import load_ntriples_file, save_ntriples_file
from repro.rdf.rdfs import RDFSReasoner
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql
from repro.systems import S2RdfEngine, SparqlgxEngine


def test_generate_save_load_query_roundtrip(tmp_path):
    """Generator -> N-Triples file -> reload -> distributed query."""
    graph = LubmGenerator(num_universities=1, seed=3).generate()
    path = tmp_path / "uni.nt"
    save_ntriples_file(str(path), graph)
    reloaded = load_ntriples_file(str(path))
    assert reloaded == graph

    engine = SparqlgxEngine(SparkContext(4))
    engine.load(reloaded)
    query = parse_sparql(LubmGenerator.query_star())
    assert engine.execute(query).same_as(evaluate(query, graph))


def test_inference_construct_version_pipeline():
    """TBox inference -> CONSTRUCT new triples -> versioned commits ->
    query across versions: the full lifecycle of evolving semantic data."""
    generator = LubmGenerator(num_universities=1, seed=5)
    explicit = generator.generate(include_tbox=True)
    closure = RDFSReasoner().materialize(explicit)

    # Distill a derived "colleague" relation with CONSTRUCT on an engine.
    engine = S2RdfEngine(SparkContext(4))
    engine.load(closure)
    derived = engine.execute(
        """
        PREFIX lubm: <http://repro.example.org/lubm#>
        CONSTRUCT { ?a lubm:colleagueOf ?b } WHERE {
          ?a lubm:worksFor ?d .
          ?b lubm:worksFor ?d .
        }
        """
    )
    assert len(derived) > 0

    # Version the base data and commit the derived triples as an update.
    store = VersionedGraph(explicit, policy=ArchivePolicy.HYBRID)
    version = store.commit(additions=list(derived))
    ask = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "ASK { ?a lubm:colleagueOf ?b }"
    )
    assert store.versions_where(ask) == [version]

    # The enriched version answers queries the base could not.
    result = store.query_version(
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?a ?b WHERE { ?a lubm:colleagueOf ?b }",
        version,
    )
    assert len(result) == len(derived)


def test_router_over_mixed_workload(lubm_graph):
    """One routed service, many shapes: the adopter-facing happy path."""
    from repro.server import QueryRequest, QueryService
    from repro.server.protocol import canonical_json, canonical_result

    service = QueryService(lubm_graph, route=True, pool_size=1)
    engines = set()
    for name, text in LubmGenerator.all_queries().items():
        query = parse_sparql(text)
        outcome = service.submit(QueryRequest(text, id=name))
        assert outcome.payload == canonical_json(
            canonical_result(evaluate(query, lubm_graph), query)
        ), name
        engines.add(outcome.engine)
    # Multiple engines were exercised behind one facade.
    assert len(engines) >= 3


def test_describe_after_update(lubm_graph):
    """DESCRIBE sees freshly applied incremental updates."""
    from repro.evolution import VersionedGraph
    from repro.systems import SparqlgxEngine

    engine = SparqlgxEngine(SparkContext(4)).load(lubm_graph)
    newcomer = LUBM.BrandNewStudent
    store = VersionedGraph(lubm_graph)
    version = store.commit(
        additions=[
            Triple(newcomer, LUBM.memberOf, LUBM.Department0_0),
            Triple(newcomer, LUBM.age, Literal(19)),
        ]
    )
    engine.apply_delta(store.delta(version), store.head())
    description = engine.execute("DESCRIBE <%s>" % newcomer.value)
    assert len(description) == 2
