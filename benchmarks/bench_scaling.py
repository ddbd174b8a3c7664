"""SCALE: cost growth with dataset size (the assessment's scaling view).

The paper's premise is "the ever-increasing size and number of RDF data
collections" (Section I): the surveyed systems exist because costs must
grow gracefully with data.  This bench sweeps the LUBM-like generator
over 1/2/4 universities and reports, per engine, how the star query's
dominant cost grows -- the indexed engines (SPARQLGX, SparkRDF) must stay
proportional to their narrow stores while the naive baseline's scans
track the whole dataset.
"""

from repro.bench import format_table
from repro.core.assessment import ClaimResult
from repro.data.lubm import LubmGenerator
from repro.spark.context import SparkContext
from repro.systems import NaiveEngine, SparkRdfMesgEngine, SparqlgxEngine

from conftest import report

ENGINES = (NaiveEngine, SparqlgxEngine, SparkRdfMesgEngine)
SCALES = (1, 2, 4)


def test_scan_cost_scaling(benchmark):
    query = LubmGenerator.query_star()

    def sweep():
        series = {}
        sizes = {}
        for scale in SCALES:
            graph = LubmGenerator(num_universities=scale, seed=42).generate()
            sizes[scale] = len(graph)
            for engine_class in ENGINES:
                engine = engine_class(SparkContext(4))
                engine.load(graph)
                series[(engine_class.profile.name, scale)] = (
                    engine.measure(query).cost.records_scanned
                )
        return series, sizes

    series, sizes = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for engine_class in ENGINES:
        name = engine_class.profile.name
        rows.append(
            [name] + [series[(name, scale)] for scale in SCALES]
        )
    rows.append(["(dataset triples)"] + [sizes[s] for s in SCALES])

    # Shape assertions: every engine grows monotonically; the indexed
    # engines read a small, roughly constant fraction of the dataset.
    monotone = all(
        series[(cls.profile.name, 1)]
        <= series[(cls.profile.name, 2)]
        <= series[(cls.profile.name, 4)]
        for cls in ENGINES
    )
    fractions = {
        scale: series[("SPARQLGX", scale)] / sizes[scale]
        for scale in SCALES
    }
    indexed_stay_narrow = all(f < 0.5 for f in fractions.values())
    naive_reads_multiples = all(
        series[("Naive", scale)] >= sizes[scale] for scale in SCALES
    )
    result = ClaimResult(
        "SCALE",
        holds=monotone and indexed_stay_narrow and naive_reads_multiples,
        evidence={
            "sparqlgx_fraction_by_scale": {
                k: round(v, 3) for k, v in fractions.items()
            },
        },
    )
    report(
        "SCALE: star-query records scanned vs dataset size",
        format_table(
            ["engine", "1 university", "2 universities", "4 universities"],
            rows,
        )
        + "\n" + result.summary(),
    )
    assert result.holds
