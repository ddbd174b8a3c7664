"""ABL-DESIGN: ablations of the per-system design choices.

Each surveyed system couples a storage scheme with one or two signature
optimizations.  DESIGN.md calls these out; this bench switches each one
off and measures what it was buying:

* SPARQLGX's statistics-based join reordering (Section IV-A1: "statistics
  on data are computed in order to reorder the join execution");
* S2X's iterative candidate validation (Section IV-B1: "match candidates
  are validated ... until no changes occur");
* HAQWA's depth of workload analysis (how many frequent queries feed the
  allocation step): replication storage vs shuffle saved.
"""

from repro.bench import format_table
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.data.workload import QueryWorkload
from repro.spark.context import SparkContext
from repro.sparql.parser import parse_sparql
from repro.systems import HaqwaEngine, S2XEngine, SparqlgxEngine

from conftest import report

PREFIX = (
    "PREFIX lubm: <http://repro.example.org/lubm#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

# A query written worst-first: the huge unselective pattern leads.
BADLY_ORDERED = PREFIX + """
SELECT ?s ?d ?c WHERE {
  ?s lubm:takesCourse ?c .
  ?s lubm:memberOf ?d .
  ?s rdf:type lubm:GraduateStudent .
}
"""


def test_sparqlgx_reordering_ablation(benchmark, lubm_graph):
    def run():
        with_stats = SparqlgxEngine(SparkContext(4))
        with_stats.load(lubm_graph)
        without = SparqlgxEngine(SparkContext(4), enable_reordering=False)
        without.load(lubm_graph)
        return (
            with_stats.measure(BADLY_ORDERED).cost,
            without.measure(BADLY_ORDERED).cost,
        )

    optimized, plain = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["with statistics", optimized.join_comparisons, optimized.shuffle_records],
        ["input order", plain.join_comparisons, plain.shuffle_records],
    ]
    result = ClaimResult(
        "ABL-SPARQLGX-reorder",
        holds=optimized.join_comparisons < plain.join_comparisons,
        evidence={
            "comparisons_reordered": optimized.join_comparisons,
            "comparisons_input_order": plain.join_comparisons,
        },
    )
    report(
        "ABL: SPARQLGX statistics-based join reordering",
        format_table(["plan", "join comparisons", "shuffle records"], rows)
        + "\n" + result.summary(),
    )
    assert result.holds


def test_s2x_validation_ablation(benchmark, lubm_small):
    query = LubmGenerator.query_snowflake()

    def run():
        with_validation = S2XEngine(SparkContext(4))
        with_validation.load(lubm_small)
        without = S2XEngine(SparkContext(4), validate=False)
        without.load(lubm_small)
        validated_cost = with_validation.measure(query).cost
        raw_cost = without.measure(query).cost
        correct = with_validation.execute(query).same_as(
            without.execute(query)
        )
        return validated_cost, raw_cost, correct

    validated, raw, agree = benchmark.pedantic(run, rounds=1, iterations=1)
    result = ClaimResult(
        "ABL-S2X-validation",
        holds=agree
        and validated["join_output_records"] <= raw["join_output_records"],
        evidence={
            "assembly_outputs_validated": validated["join_output_records"],
            "assembly_outputs_raw": raw["join_output_records"],
            "answers_agree": agree,
        },
    )
    report(
        "ABL: S2X iterative validation prunes assembly work",
        result.summary(),
    )
    assert result.holds


def test_haqwa_workload_depth_sweep(benchmark, lubm_small):
    """More frequent queries fed to allocation -> more replicas, more
    locally answerable query types (a storage-for-traffic dial)."""
    linear = (
        PREFIX
        + "SELECT ?s ?p ?dep WHERE { ?s lubm:advisor ?p . ?p lubm:worksFor ?dep }"
    )
    teaching = (
        PREFIX
        + "SELECT ?s ?p ?c WHERE { ?s lubm:advisor ?p . ?p lubm:teacherOf ?c }"
    )
    workload = QueryWorkload()
    workload.add("linear", parse_sparql(linear), frequency=10.0)
    workload.add("teaching", parse_sparql(teaching), frequency=5.0)

    def sweep():
        rows = []
        for top in (0, 1, 2):
            engine = HaqwaEngine(
                SparkContext(4),
                workload=workload if top else None,
                frequent_top=top or 1,
            )
            engine.load(lubm_small)
            shuffle = (
                engine.measure(linear).cost.shuffle_records
                + engine.measure(teaching).cost.shuffle_records
            )
            rows.append([top, engine.replicated_triples, shuffle])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    replicas = [row[1] for row in rows]
    shuffles = [row[2] for row in rows]
    result = ClaimResult(
        "ABL-HAQWA-depth",
        holds=replicas[0] == 0
        and replicas == sorted(replicas)
        and shuffles == sorted(shuffles, reverse=True)
        and shuffles[-1] == 0,
        evidence={"replicas": replicas, "workload_shuffles": shuffles},
    )
    report(
        "ABL: HAQWA workload-analysis depth (storage vs traffic dial)",
        format_table(
            ["frequent queries used", "replicated triples", "workload shuffle"],
            rows,
        )
        + "\n" + result.summary(),
    )
    assert result.holds
