"""CLM-MESG: SparkRDF's multi-level index claims (Section IV-B3).

Paper: the MESG index "divides predicate files according to the type of
subjects and objects" (CR/RC) and "creates an index that combines every
part of the triple" (CRC) "in order to exploit all the information that
may be available for a triple"; class messages let the engine "avoid
reading many unnecessary data, and rdf:type triple patterns can be
removed"; dynamic pre-partitioning "guarantees that the records sharing
the same variable value will be read into the same partition".

Measured: records read per index level for progressively class-constrained
queries, and the locality of the pre-partitioned joins.
"""

from repro.bench import format_table
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.spark.context import SparkContext
from repro.systems import SparkRdfMesgEngine

from conftest import report

PREFIX = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

UNCONSTRAINED = PREFIX + "SELECT ?s ?c WHERE { ?s lubm:takesCourse ?c }"
SUBJECT_CLASS = PREFIX + """
SELECT ?s ?c WHERE {
  ?s rdf:type lubm:GraduateStudent .
  ?s lubm:takesCourse ?c .
}
"""
BOTH_CLASSES = PREFIX + """
SELECT ?s ?c WHERE {
  ?s rdf:type lubm:GraduateStudent .
  ?s lubm:takesCourse ?c .
  ?c rdf:type lubm:Course .
}
"""


def test_index_levels_cut_reads(benchmark, lubm_graph):
    engine = SparkRdfMesgEngine(SparkContext(4))
    engine.load(lubm_graph)

    def run_all():
        reads = {}
        for name, query in (
            ("relation only", UNCONSTRAINED),
            ("CR (subject class)", SUBJECT_CLASS),
            ("CRC (both classes)", BOTH_CLASSES),
        ):
            engine.execute(query)
            reads[name] = dict(engine.last_index_reads)
        return reads

    reads = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [name, sum(levels.values()), str(levels)]
        for name, levels in reads.items()
    ]
    rel_reads = sum(reads["relation only"].values())
    cr_reads = sum(reads["CR (subject class)"].values())
    crc_reads = sum(reads["CRC (both classes)"].values())
    result = ClaimResult(
        "CLM-MESG",
        holds=cr_reads < rel_reads
        and crc_reads <= cr_reads
        and "REL" not in reads["CR (subject class)"]
        and "CRC" in reads["CRC (both classes)"],
        evidence={
            "relation_reads": rel_reads,
            "cr_reads": cr_reads,
            "crc_reads": crc_reads,
        },
    )
    report(
        "CLM-MESG: class information selects narrower index files",
        format_table(["query", "records read", "per level"], rows)
        + "\n" + result.summary(),
    )
    assert result.holds


def test_type_patterns_removed(benchmark, lubm_graph):
    engine = SparkRdfMesgEngine(SparkContext(4))
    engine.load(lubm_graph)

    def run():
        engine.execute(SUBJECT_CLASS)
        return dict(engine.last_index_reads)

    reads = benchmark.pedantic(run, rounds=1, iterations=1)
    # The rdf:type pattern never touches the class index at query time:
    # it was rewritten into a class message for the CR lookup.
    result = ClaimResult(
        "CLM-MESG-type-elim",
        holds="CLASS" not in reads and "CR" in reads,
        evidence=reads,
    )
    report(
        "CLM-MESG: rdf:type patterns removed via class messages",
        result.summary(),
    )
    assert result.holds


def test_dynamic_prepartitioning_locality(benchmark, lubm_graph):
    engine = SparkRdfMesgEngine(SparkContext(4))
    engine.load(lubm_graph)

    cost = benchmark.pedantic(
        lambda: engine.measure(LubmGenerator.query_star()).cost,
        rounds=1,
        iterations=1,
    )
    result = ClaimResult(
        "CLM-MESG-prepartition",
        holds=cost.shuffle_records > 0 and cost.locality_fraction() > 0.9,
        evidence={
            "shuffle_records": cost.shuffle_records,
            "locality": round(cost.locality_fraction(), 3),
        },
    )
    report(
        "CLM-MESG: pre-partitioned RDSG joins stay on their executor",
        result.summary(),
    )
    assert result.holds
