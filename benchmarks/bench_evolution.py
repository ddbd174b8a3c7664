"""EVO: evolving RDF data (the Section V dynamicity direction).

Paper: RDF data "are constantly evolving ... the need to keep track of
the different versions of the data, so as to be able to have access not
only to the latest version, but also to previous ones", and "the next
generation parallel RDF query answering systems should be able to handle
evolving data in an uninterrupted manner".

Measured: the storage/replay trade-off of the three archiving policies
over a commit history, and the cost of keeping a running engine current
(incremental vertical-store updates vs full rewrites).
"""

from repro.bench import format_table
from repro.core.assessment import ClaimResult
from repro.data.lubm import LUBM
from repro.evolution import ArchivePolicy, VersionedGraph
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.systems import NaiveEngine, SparqlgxEngine

from conftest import report


def _history(policy, base, commits=9):
    store = VersionedGraph(base, policy=policy, checkpoint_every=3)
    for i in range(commits):
        store.commit(
            additions=[
                Triple(
                    LUBM["Evolved%d_%d" % (i, j)],
                    LUBM.memberOf,
                    LUBM.Department0_0,
                )
                for j in range(3)
            ]
        )
    return store


def test_archive_policy_tradeoff(benchmark, lubm_small):
    def sweep():
        rows = []
        numbers = {}
        for policy in ArchivePolicy:
            store = _history(policy, lubm_small)
            # Worst-case reconstruction: the version farthest from any
            # snapshot under each policy.
            store.snapshot(5)
            numbers[policy] = (
                store.storage_triples(),
                store.last_replay_cost,
            )
            rows.append(
                [
                    policy.value,
                    numbers[policy][0],
                    numbers[policy][1],
                ]
            )
        return rows, numbers

    rows, numbers = benchmark.pedantic(sweep, rounds=1, iterations=1)
    storage = {p: n[0] for p, n in numbers.items()}
    replay = {p: n[1] for p, n in numbers.items()}
    result = ClaimResult(
        "EVO-archive",
        holds=storage[ArchivePolicy.DELTA]
        < storage[ArchivePolicy.HYBRID]
        < storage[ArchivePolicy.FULL]
        and replay[ArchivePolicy.FULL]
        <= replay[ArchivePolicy.HYBRID]
        <= replay[ArchivePolicy.DELTA],
        evidence={
            "storage": {p.value: s for p, s in storage.items()},
            "replay": {p.value: r for p, r in replay.items()},
        },
    )
    report(
        "EVO: archiving policies -- storage vs reconstruction",
        format_table(
            ["policy", "stored triples", "replayed triples (v5)"], rows
        )
        + "\n" + result.summary(),
    )
    assert result.holds


def test_cross_version_queries(benchmark, lubm_small):
    store = _history(ArchivePolicy.HYBRID, lubm_small)
    query = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?s WHERE { ?s lubm:memberOf lubm:Department0_0 }"
    )

    def counts():
        return [len(store.query_version(query, v)) for v in (0, 3, 6, 9)]

    series = benchmark.pedantic(counts, rounds=1, iterations=1)
    result = ClaimResult(
        "EVO-versions",
        holds=series == sorted(series) and series[-1] - series[0] == 27,
        evidence={"answers_by_version": series},
    )
    report(
        "EVO: the same query over versions 0/3/6/9 (access to the past)",
        result.summary(),
    )
    assert result.holds


def test_uninterrupted_updates(benchmark, lubm_small):
    additions = [
        Triple(LUBM["Live%d" % i], LUBM.memberOf, LUBM.Department0_0)
        for i in range(5)
    ]
    query = (
        "PREFIX lubm: <http://repro.example.org/lubm#>\n"
        "SELECT ?s WHERE { ?s lubm:memberOf ?d }"
    )

    def run():
        incremental = SparqlgxEngine(SparkContext(4)).load(lubm_small)
        rewrite_all = NaiveEngine(SparkContext(4)).load(lubm_small)
        store = VersionedGraph(lubm_small)
        delta = store.delta(store.commit(additions=additions))
        touched_inc = incremental.apply_delta(delta, store.head())
        touched_naive = rewrite_all.apply_delta(delta, store.head())
        rows_inc = len(incremental.execute(query))
        rows_naive = len(rewrite_all.execute(query))
        return touched_inc, touched_naive, rows_inc, rows_naive

    touched_inc, touched_naive, rows_inc, rows_naive = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    result = ClaimResult(
        "EVO-live",
        holds=rows_inc == rows_naive
        and touched_inc * 5 < touched_naive,
        evidence={
            "records_rewritten_incremental": touched_inc,
            "records_rewritten_full": touched_naive,
            "answers_agree": rows_inc == rows_naive,
        },
    )
    report(
        "EVO: incremental updates touch only the affected stores",
        format_table(
            ["engine", "records rewritten by update"],
            [
                ["SPARQLGX + incremental stores", touched_inc],
                ["naive (full rewrite)", touched_naive],
            ],
        )
        + "\n" + result.summary(),
    )
    assert result.holds
