"""The differential matrix: every configuration against the reference.

One query source, one configuration lattice, one assertion
(docs/ARCHITECTURE.md, "Differential matrix").

* Queries: :func:`fragment_query` wraps a BGP core from
  :func:`repro.data.workload.generate_query` in the supported fragment
  and renders SPARQL text, which :func:`answer` parses.  Hypothesis
  draws its choices (:func:`fragment_queries`); the fixed
  :func:`corpus` draws them from a seeded RNG.
* Graphs: the seeded LUBM-1 and WatDiv graphs (:func:`dataset`) and
  :data:`small_graphs`.
* Configurations: :func:`lattice` enumerates :class:`Cell` s lazily;
  :func:`tier` says which run in tier-1 and which under ``-m slow``.

:func:`assert_agrees` is the one assertion; :func:`check` memoizes it
per cell, so the named slices in the older test modules cost nothing
when the matrix has already run their cell.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
from functools import lru_cache
from pathlib import Path
from typing import Callable, Collection, Dict, NamedTuple, Optional, Sequence

from hypothesis import strategies as st

from repro.data.lubm import LubmGenerator
from repro.data.watdiv import WatdivGenerator
from repro.data.workload import QueryWorkload, generate_query, generate_workload
from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.runtime import RuntimeConfig, ServiceConfig
from repro.server import QueryRequest, QueryService
from repro.server.protocol import canonical_json, canonical_result
from repro.spark.metrics import MetricsSnapshot
from repro.sparql.algebra import evaluate
from repro.sparql.ast import (
    GroupGraphPattern,
    SelectQuery,
    TriplePattern,
    Variable,
    connected_order,
    variables_of,
    where_patterns,
)
from repro.sparql.fragments import FEATURE_UNION, features_of
from repro.sparql.parser import parse_sparql
from repro.sparql.shapes import QueryShape
from repro.systems import ENGINE_HOMES
from repro.systems.base import UnsupportedQueryError

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "queries" / "clean"

# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------

SHAPES = tuple(shape for shape in QueryShape if shape is not QueryShape.EMPTY)
FORMS = ("SELECT", "ASK", "CONSTRUCT", "DESCRIBE")
#: What a core can be wrapped in; CONSTANT binds one of its variables to
#: a term it matches (a star or chain anchored on a constant).  LIMIT and
#: OFFSET page a CONSTRUCT's graph, and bring an ORDER BY to a SELECT: a
#: page of rows is only defined over an order.  REJOIN adds a group that
#: may leave a fresh variable unbound -- a UNION branch beside the body
#: when UNION is among the wrappers, else an OPTIONAL -- and then joins
#: the body with a pattern on that variable.
WRAPPERS = (
    "CONSTANT", "OPTIONAL", "UNION", "FILTER", "DISTINCT", "ORDER BY", "LIMIT", "OFFSET",
    "REJOIN",
)


def render_patterns(patterns) -> str:
    return " ".join(
        "%s %s %s ." % tuple(
            "?" + t.name if isinstance(t, Variable) else t.n3() for t in p.positions()
        )
        for p in patterns
    )


def fragment_query(
    graph: RDFGraph,
    choose: Callable[[Sequence], object],
    form: str,
    wrappers: Collection[str] = (),
) -> str:
    """A *form* query over *graph*'s vocabulary: a :func:`generate_query`
    core in the *wrappers*, every other choice made by *choose(options)*."""
    shape, seed = choose(SHAPES), choose(range(50))
    try:
        core = generate_query(graph, shape, seed=seed)
    except ValueError:  # the graph has no structure for the shape
        core = generate_query(graph, QueryShape.SINGLE, seed=seed)
    patterns = core.where.triple_patterns()
    names = sorted({v.name for p in patterns for v in p.variables()})
    predicates = sorted(graph.predicates(), key=URI.sort_key)

    def value_of(name):
        """A term the core binds *name* to, so a test on it keeps rows."""
        solutions = evaluate(core, graph)
        column = solutions.variables.index(name)
        return choose([row[column] for row in solutions.rows[:4]])

    if "CONSTANT" in wrappers and len(names) > 1:
        anchor = choose(names)
        term = value_of(anchor)
        patterns = [
            TriplePattern(
                *(term if t == Variable(anchor) else t for t in p.positions())
            )
            for p in patterns
        ]
        names.remove(anchor)
        core = SelectQuery(variables=None, where=GroupGraphPattern(patterns))

    def beside(pattern):
        """*pattern* over another of the graph's predicates."""
        other = dataclasses.replace(pattern, predicate=choose(predicates))
        return render_patterns([other])

    *head, last = patterns
    body = render_patterns(head)
    if "UNION" in wrappers:
        body += " { %s } UNION { %s }" % (render_patterns([last]), beside(last))
    else:
        body += " " + render_patterns([last])
    if "OPTIONAL" in wrappers:
        body += " OPTIONAL { %s }" % beside(last)
    if "REJOIN" in wrappers:
        # ?maybe is bound only where the group matched.  The pattern
        # that joins on it reads what the group reads for an IRI the core
        # binds the group's subject to, so bound rows can agree too.
        anchor = choose(names)
        subject = value_of(anchor)
        if type(subject) is URI and graph.by_subject().get(subject):
            predicate = choose(
                sorted(graph.by_subject()[subject], key=URI.sort_key)
            )
        else:
            predicate = choose(predicates)
            subjects = set().union(*graph.by_predicate()[predicate].values())
            subject = choose(
                sorted(
                    (t for t in subjects if type(t) is URI), key=URI.sort_key
                )[:8]
            )
        group = "?%s %s ?maybe ." % (anchor, predicate.n3())
        if "UNION" in wrappers:
            body = "{ %s } UNION { %s }" % (body, group)
        else:
            body += " OPTIONAL { %s }" % group
        body += " %s %s ?maybe ." % (subject.n3(), predicate.n3())
    variable, other = "?" + choose(names), "?" + choose(names)
    if "FILTER" in wrappers:
        test = choose(("isIRI(%s)", "!BOUND(%s)", "%s != " + other, "="))
        if test == "=":
            test = "%s = " + value_of(variable[1:]).n3()
        body += " FILTER (%s)" % (test % variable)
    page = "".join(
        " %s %d" % (word, choose(options))
        for word, options in (("LIMIT", (1, 3)), ("OFFSET", (1, 2)))
        if word in wrappers
    )
    if form == "ASK":
        return "ASK { %s }" % body
    if form == "DESCRIBE":
        return "DESCRIBE %s WHERE { %s }" % (variable, body)
    if form == "CONSTRUCT":
        template = render_patterns(patterns)
        return "CONSTRUCT { %s } WHERE { %s }%s" % (template, body, page)
    kept = choose(range(len(names) + 1))
    text = "SELECT %s%s WHERE { %s }" % (
        "DISTINCT " if "DISTINCT" in wrappers else "",
        " ".join("?" + n for n in names[:kept]) if kept else "*",
        body,
    )
    if page or "ORDER BY" in wrappers:
        text += " ORDER BY %s(%s)%s" % (choose(("ASC", "DESC")), variable, page)
    return text


def fragment_queries(graph: RDFGraph):
    """Hypothesis strategy over :func:`fragment_query` on *graph*."""

    @st.composite
    def draw_query(draw):
        def choose(options):
            return draw(st.sampled_from(options))

        wrappers = draw(st.sets(st.sampled_from(WRAPPERS)))
        return fragment_query(graph, choose, choose(FORMS), wrappers)

    return draw_query()


#: The fixed corpus's fragment queries as (form, wrappers): each form
#: bare, each wrapper alone (so every engine runs every feature it
#: publishes), then mixes.
CORPUS_FRAGMENTS = (
    [(form, ()) for form in FORMS]
    + [("SELECT", (wrapper,)) for wrapper in WRAPPERS]
    + [
        ("ASK", ("UNION", "FILTER")),
        ("CONSTRUCT", ("OPTIONAL", "LIMIT", "OFFSET")),
        ("SELECT", WRAPPERS),
        ("SELECT", ("UNION", "REJOIN")),
    ]
)
GENERATORS = {
    "lubm": lambda: LubmGenerator(num_universities=1, seed=42),
    "watdiv": lambda: WatdivGenerator(num_users=30, num_products=15, seed=7),
}


@lru_cache(maxsize=None)
def dataset(name: str) -> RDFGraph:
    """The seeded graph the ``lubm_graph`` / ``watdiv_graph`` fixtures hold."""
    return GENERATORS[name]().generate()


@lru_cache(maxsize=None)
def corpus(name: str) -> Dict[str, str]:
    """Query name -> SPARQL text: the generator's ``all_queries()``, the
    clean examples (LUBM), three edge cases and the fragment queries."""
    graph = dataset(name)
    queries = dict(type(GENERATORS[name]()).all_queries())
    if name == "lubm":
        for path in sorted(EXAMPLES.glob("*.rq")):
            queries["example:" + path.stem] = path.read_text()
    s, p, o = graph.canonical_order()[0]
    queries["empty"] = "SELECT ?s WHERE { ?s a ?c . ?c a ?s }"
    queries["unknown"] = "SELECT ?s WHERE { ?s <http://nowhere.example/p> ?o }"
    queries["ground"] = "SELECT ?x WHERE { ?x %s ?o . %s %s %s . }" % (
        p.n3(), s.n3(), p.n3(), o.n3(),
    )
    for seed, (form, wrappers) in enumerate(CORPUS_FRAGMENTS):
        queries["fragment:%d" % seed] = fragment_query(
            graph, random.Random(seed).choice, form, wrappers
        )
    return queries


def part_of(key: str) -> str:
    return "fragments" if key.startswith("fragment:") else "canonical"


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------

EX = "http://x/"
_nodes = [URI(EX + "s%d" % i) for i in range(6)]
#: Pairwise tied on ``sort_key``: 1 and 1.0, "a" and "a"@en.
_literals = [
    Literal(1), Literal(1.0), Literal(2), Literal("a"), Literal("a", language="en")
]
small_graphs = st.lists(
    st.builds(
        Triple,
        st.sampled_from(_nodes),
        st.sampled_from([URI(EX + "p%d" % i) for i in range(3)]),
        st.sampled_from(_nodes + _literals),
    ),
    min_size=1,
    max_size=24,
).map(RDFGraph)


# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------


def haqwa_workload(graph: RDFGraph, choose=None) -> dict:
    """HAQWA's ``workload``: the graph's own linear and snowflake
    queries; where it has no such structure, one frequent chain drawn by
    *choose* (a seeded RNG's by default); none where it has no chain."""
    workload = QueryWorkload()
    shapes = {QueryShape.LINEAR: 2, QueryShape.SNOWFLAKE: 1}
    try:
        return {"workload": generate_workload(graph, shapes, seed=1)}
    except ValueError:
        pass
    choose = choose or random.Random(1).choice
    try:
        chain = generate_query(
            graph, QueryShape.LINEAR, seed=choose(range(50)), size=choose((2, 3))
        )
    except ValueError:
        return {"workload": workload}
    workload.add("frequent", chain, frequency=10.0)
    return {"workload": workload}


#: Engine kwargs by variant name.
VARIANTS = {"": lambda graph, choose: {}, "workload": haqwa_workload}
ENGINES = [(name, "") for name in ENGINE_HOMES] + [("HAQWA", "workload")]
PLANS = [
    {},
    {"optimize": True, "optimizer_mode": "parse"},
    {"optimize": True, "optimizer_mode": "greedy"},
    {"optimize": True, "optimizer_mode": "dp"},
    {"optimize": True, "views": True},
]
BACKENDS = [{}] + [{"backend": "parallel", "workers": w} for w in (1, 2, 4)]
#: The engines that meet every plan x backend pair.
PAIRED = ("Naive", "SPARQLGX")


@dataclasses.dataclass(frozen=True)
class Cell:
    """One point of the lattice: an engine (None: routed) under a config."""

    engine: Optional[str]
    variant: str = ""
    runtime: RuntimeConfig = RuntimeConfig()

    @classmethod
    def of(cls, engine, variant="", **knobs) -> "Cell":
        return cls(engine, variant, RuntimeConfig(**knobs))

    @property
    def parallel(self) -> bool:
        return self.runtime.backend == "parallel"

    def twin(self) -> "Cell":
        """The same cell on the in-process backend."""
        runtime = dataclasses.replace(self.runtime, backend="inprocess", workers=None)
        return dataclasses.replace(self, runtime=runtime)

    def __str__(self) -> str:
        r = self.runtime
        parts = [self.engine or "route", self.variant]
        if r.optimize:
            parts.append("views" if r.views else r.optimizer_mode)
        if self.parallel:
            parts.append("w%d" % r.workers)
        return "-".join(filter(None, parts))


def lattice():
    for plan in PLANS:
        for backend in BACKENDS:
            for engine, variant in ENGINES:
                yield Cell.of(engine, variant, **plan, **backend)
            yield Cell.of(None, route=True, **plan, **backend)


def tier(cell: Cell, name: str, part: str) -> Optional[str]:
    """Which profile runs *cell* on dataset *name*'s *part* of the corpus
    ("canonical" or "fragments"): "bounded" (tier-1), "deep" (``-m
    slow``) or None.

    ========================================  ==============  ==============
    cells                                     bounded         deep
    ========================================  ==============  ==============
    every engine, and the router, as shipped  LUBM, WatDiv    WatDiv
                                              canonical       fragments
    Naive under each plan                     LUBM            WatDiv
    every engine under dp, under views, and   LUBM canonical  --
    forked on 2 workers
    every engine forked on 1 and 4 workers;   --              LUBM canonical
    the router, one axis moved
    SPARQLGX: every other cell; Naive: each   --              LUBM canonical
    plan x backend
    ========================================  ==============  ==============
    """
    r, home = cell.runtime, (name, part) == ("lubm", "canonical")
    if not r.optimize and not cell.parallel:
        return "deep" if (name, part) == ("watdiv", "fragments") else "bounded"
    if cell.engine == "Naive" and not cell.parallel:
        return "bounded" if name == "lubm" else "deep"
    if r.optimize and cell.parallel:
        return "deep" if cell.engine in PAIRED and home else None
    if cell.engine is not None and (
        r.views or r.optimizer_mode == "dp" and r.optimize or r.workers == 2
    ):
        return "bounded" if home else None
    if cell.parallel or cell.engine in (None,) + PAIRED:
        return "deep" if home else None
    return None


def too_slow(cell: Cell, text: str) -> bool:
    """Unoptimized GraphFrames-RDF's motif search is super-linear in the
    patterns (ROADMAP item 4), ~10 s on a five-pattern LUBM-1 snowflake,
    and searches a cartesian product edge by edge (each constant is a
    vertex of its own): a sweep of a seeded graph leaves such queries
    out of its cells."""
    query = parse_sparql(text)
    return (
        cell.engine == "GraphFrames-RDF"
        and not cell.runtime.optimize
        and (len(where_patterns(query)) >= 5 or cartesian(query))
    )


# ----------------------------------------------------------------------
# The one assertion
# ----------------------------------------------------------------------

#: What a forked run may charge beyond its in-process twin where
#: :func:`may_rescan`: a partition cached during a stage is reused per
#: worker, so a second worker that reads it scans it again
#: (docs/PARALLEL.md, "Documented divergences").
RESCAN = frozenset({"tasks", "partitions_scanned", "records_scanned"})


def cartesian(query) -> bool:
    """Whether *query*'s patterns fall apart into groups that share no
    variable (a constant joins nothing)."""
    patterns = where_patterns(query)
    if not patterns:
        return False
    first, *rest = connected_order(patterns)
    bound = variables_of(first)
    for pattern in rest:
        if not bound & variables_of(pattern):
            return True
        bound |= variables_of(pattern)
    return False


def may_rescan(query) -> bool:
    """Whether *query*'s plan can read a partition it cached inside one
    stage: a UNION (both branches may read one store) or a cartesian
    product."""
    return FEATURE_UNION in features_of(query) or cartesian(query)


class Answer(NamedTuple):
    """The wire text (None: refused as outside the engine's fragment)
    and the counter delta of one execution."""

    wire: Optional[str]
    cost: Optional[MetricsSnapshot]

    @property
    def nonempty(self) -> bool:
        payload = json.loads(self.wire or "{}")
        return any(payload.get(key) for key in ("rows", "triples", "value"))


def build(cell: Cell, graph: RDFGraph, kwargs: dict):
    """The warmed engine of *cell* on *graph*, or a one-slot service."""
    if cell.engine is None:
        config = ServiceConfig(
            pool_size=1,
            enable_result_cache=False,
            lint_admission=False,
            runtime=cell.runtime,
        )
        return QueryService(graph, config)
    return cell.runtime.engine(cell.engine, graph, **kwargs)


def answer(runner, text: str) -> Answer:
    query = parse_sparql(text)
    if isinstance(runner, QueryService):
        served = runner.submit(QueryRequest(text))
        assert served.status == "ok", served.error
        return Answer(served.payload, None)
    try:
        run = runner.measure(query)
    except UnsupportedQueryError:
        return Answer(None, None)
    return Answer(canonical_json(canonical_result(run.answer, query)), run.cost)


def expected(graph: RDFGraph, text: str) -> str:
    """The reference evaluator's wire text: the oracle."""
    query = parse_sparql(text)
    return canonical_json(canonical_result(evaluate(query, graph), query))


def assert_agrees(runner, graph: RDFGraph, text: str, twin=None, want=None) -> Answer:
    """*runner* answers *text* in the reference's canonical bytes (*want*,
    when the caller holds them); an engine refuses exactly what its
    ``supports()`` does not cover; a forked one charges what its
    in-process *twin* charges in lockstep: every counter equal, but
    :data:`RESCAN` may grow where :func:`may_rescan`."""
    got = answer(runner, text)
    if not isinstance(runner, QueryService):
        supported = runner.supports(parse_sparql(text))
        answered = got.wire is not None
        assert answered == supported, (runner.profile.name, supported, text)
        if not supported:
            return got
    assert got.wire == (want or expected(graph, text)), text
    if twin is not None:
        extra = got.cost - answer(twin, text).cost
        allowed = RESCAN if may_rescan(parse_sparql(text)) else frozenset()
        assert all(
            value == 0 or (name in allowed and value > 0) for name, value in extra
        ), (text, dict(extra))
    return got


def fresh(cell: Cell, graph: RDFGraph, choose=None):
    """A new runner of *cell* on *graph* and, when it forks, its twin (a
    served answer carries no counters: a routed cell has no twin).
    *choose* draws what the variant's engine kwargs leave open."""
    kwargs = VARIANTS[cell.variant](graph, choose)
    twin = build(cell.twin(), graph, kwargs) if cell.parallel and cell.engine else None
    return build(cell, graph, kwargs), twin


def check_graph(
    cell: Cell, graph: RDFGraph, text: str, want=None, choose=None
) -> Answer:
    """:func:`assert_agrees` for *cell* built afresh on *graph*."""
    runner, twin = fresh(cell, graph, choose)
    return assert_agrees(runner, graph, text, twin, want)


def serve_corpus(cell: Cell, name: str, keys: Sequence[str]) -> Dict[str, Answer]:
    """One fresh runner of *cell* (and twin) answers *keys* in turn."""
    graph = dataset(name)
    runner, twin = fresh(cell, graph)
    return {key: assert_agrees(runner, graph, corpus(name)[key], twin) for key in keys}


# ----------------------------------------------------------------------
# Memoized cells on the seeded graphs
# ----------------------------------------------------------------------

_runners: Dict[tuple, tuple] = {}
_answers: Dict[tuple, Answer] = {}
_expected: Dict[tuple, str] = {}


def release() -> None:
    """Drop the cached runners, and with their contexts their worker
    pools; answers stay memoized."""
    if _runners:
        _runners.clear()
        gc.collect()


def check(cell: Cell, name: str, query: str) -> Answer:
    """:func:`assert_agrees` for *cell* on *dataset(name)*, memoized;
    *query* is a corpus key or SPARQL text.  A cell keeps one runner
    (and one twin) for every query it answers."""
    text = corpus(name).get(query, query)
    key = (cell, name, text)
    if key not in _answers:
        graph = dataset(name)
        if (name, text) not in _expected:
            _expected[name, text] = expected(graph, text)
        if (cell, name) not in _runners:
            _runners[cell, name] = fresh(cell, graph)
        runner, twin = _runners[cell, name]
        _answers[key] = assert_agrees(runner, graph, text, twin, _expected[name, text])
    return _answers[key]


def check_corpus(cell: Cell, name: str, part: Optional[str] = None) -> dict:
    """:func:`check` over *name*'s corpus, or its *part*, but what is
    :func:`too_slow` for *cell*."""
    return {
        key: check(cell, name, key)
        for key, text in corpus(name).items()
        if part in (None, part_of(key)) and not too_slow(cell, text)
    }
