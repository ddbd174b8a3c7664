"""The paper's future-work directions (Section V), running.

Three directions the survey says the field is missing, implemented and
demonstrated end to end:

1. *Smarter partitioning* -- semantic (class-driven) placement and
   edge-cut-minimizing graph placement vs the hash partitioning the
   surveyed systems use.
2. *Versioned RDF* -- "access not only to the latest version, but also to
   previous ones", with the storage/replay trade-off of the archiving
   policies.
3. *Uninterrupted evolution* -- incremental updates to a running engine.

Run with:  python examples/future_directions.py
"""

from repro.bench import format_table
from repro.data.lubm import LUBM, LubmGenerator
from repro.evolution import ArchivePolicy, VersionedGraph
from repro.partitioning import (
    EdgeCutPartitioner,
    PartitionedTripleStore,
    SemanticPartitioner,
)
from repro.rdf.triple import Triple
from repro.spark import SparkContext
from repro.spark.partitioner import HashPartitioner
from repro.systems import SparqlgxEngine


def partitioning_demo(graph) -> None:
    print("1. Partitioning policies (Section V: 'further research is")
    print("   required in the area')\n")
    sc = SparkContext(4)
    rows = []
    for name, partitioner in (
        ("hash (status quo)", HashPartitioner(4)),
        ("semantic [27]", SemanticPartitioner(4, graph)),
        ("edge-cut (LDG)", EdgeCutPartitioner(4, graph)),
    ):
        store = PartitionedTripleStore(sc, graph, partitioner)
        rows.append(
            [
                name,
                store.class_scan_partitions(LUBM.Course),
                "%.0f%%" % (100 * store.edge_cut_fraction()),
                "%.2f" % store.balance(),
            ]
        )
    print(
        format_table(
            ["policy", "partitions per class scan", "edge-cut", "balance"],
            rows,
        )
    )


def versioning_demo(graph) -> None:
    print("\n2. Versioned RDF (archiving policies)\n")
    rows = []
    for policy in ArchivePolicy:
        store = VersionedGraph(graph, policy=policy, checkpoint_every=3)
        for i in range(9):
            store.commit(
                additions=[
                    Triple(
                        LUBM["V%d_%d" % (i, j)],
                        LUBM.memberOf,
                        LUBM.Department0_0,
                    )
                    for j in range(2)
                ]
            )
        store.snapshot(5)
        rows.append(
            [policy.value, store.storage_triples(), store.last_replay_cost]
        )
    print(
        format_table(
            ["policy", "stored triples", "replay cost for v5"], rows
        )
    )
    store = VersionedGraph(graph)
    removed = next(iter(graph.triples((None, LUBM.advisor, None))))
    store.commit(deletions=[removed])
    ask = "PREFIX lubm: <http://repro.example.org/lubm#>\nASK { %s %s %s }" % (
        removed.subject.n3(), removed.predicate.n3(), removed.object.n3()
    )
    print("\n   Versions where the deleted advisor edge exists: %s" %
          store.versions_where(ask))


def live_update_demo(graph) -> None:
    print("\n3. Uninterrupted updates to a running engine\n")
    engine = SparqlgxEngine(SparkContext(4)).load(graph)
    query = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?s WHERE { ?s lubm:memberOf ?d }"
    )
    before = len(engine.execute(query))
    additions = [
        Triple(LUBM["Transfer%d" % i], LUBM.memberOf, LUBM.Department0_0)
        for i in range(4)
    ]
    store = VersionedGraph(graph)
    version = store.commit(additions=additions)
    touched = engine.apply_delta(store.delta(version), store.head())
    after = len(engine.execute(query))
    print(
        "   answers %d -> %d after enrolling 4 transfer students;"
        % (before, after)
    )
    print(
        "   the update rewrote %d records (the memberOf store only) out of"
        " %d total." % (touched, engine.stats["triples"])
    )


def main() -> None:
    graph = LubmGenerator(num_universities=1, seed=42).generate()
    print("University graph: %d triples\n" % len(graph))
    partitioning_demo(graph)
    versioning_demo(graph)
    live_update_demo(graph)


if __name__ == "__main__":
    main()
