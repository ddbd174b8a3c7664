"""Shape-parameterized random query workloads over arbitrary graphs.

The harness uses these to stress each engine with many distinct queries of
a controlled shape; HAQWA's workload-aware allocation consumes the
frequency-weighted form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Term, URI
from repro.rdf.vocab import RDF
from repro.sparql.ast import SelectQuery, GroupGraphPattern, TriplePattern, Variable
from repro.sparql.shapes import QueryShape, classify_patterns


@dataclass
class WeightedQuery:
    """A query with a relative submission frequency."""

    name: str
    query: SelectQuery
    frequency: float = 1.0


@dataclass
class QueryWorkload:
    """A named collection of weighted queries."""

    queries: List[WeightedQuery] = field(default_factory=list)

    def add(self, name: str, query: SelectQuery, frequency: float = 1.0) -> None:
        self.queries.append(WeightedQuery(name, query, frequency))

    def total_frequency(self) -> float:
        return sum(w.frequency for w in self.queries)

    def most_frequent(self, top: int = 3) -> List[WeightedQuery]:
        return sorted(
            self.queries, key=lambda w: w.frequency, reverse=True
        )[:top]

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)


def _select_of(patterns: Sequence[TriplePattern]) -> SelectQuery:
    where = GroupGraphPattern(list(patterns))
    return SelectQuery(variables=None, where=where)


def _subject_with_degree(
    graph: RDFGraph, rng: random.Random, min_degree: int
) -> Optional[Term]:
    subjects = [
        s
        for s in graph.subjects()
        if len({t.predicate for t in graph.triples((s, None, None))})
        >= min_degree
    ]
    if not subjects:
        return None
    return rng.choice(sorted(subjects, key=lambda t: t.sort_key()))


def _star_patterns(
    graph: RDFGraph, rng: random.Random, size: int
) -> Optional[List[TriplePattern]]:
    subject = _subject_with_degree(graph, rng, size)
    if subject is None:
        return None
    predicates = sorted(
        {t.predicate for t in graph.triples((subject, None, None))},
        key=lambda t: t.sort_key(),
    )
    chosen = rng.sample(predicates, k=min(size, len(predicates)))
    subject_var = Variable("s")
    patterns = []
    for index, predicate in enumerate(chosen):
        patterns.append(
            TriplePattern(subject_var, predicate, Variable("o%d" % index))
        )
    return patterns


def _linear_patterns(
    graph: RDFGraph, rng: random.Random, length: int
) -> Optional[List[TriplePattern]]:
    subjects = sorted(graph.subjects(), key=lambda t: t.sort_key())
    rng.shuffle(subjects)
    for start in subjects[:50]:
        walk = _random_walk(graph, rng, start, length)
        if walk is not None:
            patterns = []
            for index, predicate in enumerate(walk):
                patterns.append(
                    TriplePattern(
                        Variable("v%d" % index),
                        predicate,
                        Variable("v%d" % (index + 1)),
                    )
                )
            return patterns
    return None


def _random_walk(
    graph: RDFGraph, rng: random.Random, start: Term, length: int
) -> Optional[List[Term]]:
    """A list of predicates forming an s->o walk of *length* hops."""
    node = start
    predicates: List[Term] = []
    subjects = graph.by_subject()
    for _hop in range(length):
        # A hop may continue only to an IRI with an outgoing triple.
        usable = [
            t
            for t in graph.triples((node, None, None))
            if isinstance(t.object, URI)
            and t.predicate != RDF.type
            and t.object in subjects
        ]
        if not usable:
            return None
        step = rng.choice(sorted(usable))
        predicates.append(step.predicate)
        node = step.object
    return predicates


def _snowflake_patterns(
    graph: RDFGraph, rng: random.Random
) -> Optional[List[TriplePattern]]:
    """Two stars linked by one subject-object edge."""
    star = _star_patterns(graph, rng, 2)
    if star is None:
        return None
    # Find a linking predicate whose objects are themselves subjects.
    link_candidates = sorted(
        {
            t.predicate
            for t in graph
            if isinstance(t.object, URI)
            and t.predicate != RDF.type
            and len(graph._spo.get(t.object, {})) >= 2
        },
        key=lambda t: t.sort_key(),
    )
    if not link_candidates:
        return None
    link = rng.choice(link_candidates)
    target = Variable("t")
    patterns = list(star)
    patterns.append(TriplePattern(Variable("s"), link, target))
    # Second star around a randomly sampled link target.
    candidates = sorted(
        {
            t.object
            for t in graph.triples((None, link, None))
            if isinstance(t.object, URI)
            and len(graph._spo.get(t.object, {})) >= 2
        },
        key=lambda term: term.sort_key(),
    )
    if not candidates:
        return None
    sample = rng.choice(candidates)
    target_predicates = sorted(
        {t.predicate for t in graph.triples((sample, None, None))},
        key=lambda t: t.sort_key(),
    )[:2]
    if len(target_predicates) < 2:
        return None
    for index, predicate in enumerate(target_predicates):
        patterns.append(
            TriplePattern(target, predicate, Variable("to%d" % index))
        )
    return patterns


def _complex_patterns(
    graph: RDFGraph, rng: random.Random
) -> Optional[List[TriplePattern]]:
    """Two patterns meeting object-object plus an anchor pattern."""
    by_object: Dict[Term, List[Term]] = {}
    for triple in graph:
        if isinstance(triple.object, URI) and triple.predicate != RDF.type:
            by_object.setdefault(triple.object, []).append(triple.predicate)
    shared = [
        (obj, sorted(set(preds), key=lambda t: t.sort_key()))
        for obj, preds in sorted(by_object.items(), key=lambda kv: kv[0].sort_key())
        if len(set(preds)) >= 2
    ]
    if not shared:
        return None
    _obj, predicates = rng.choice(shared)
    p1, p2 = predicates[0], predicates[1]
    return [
        TriplePattern(Variable("a"), p1, Variable("x")),
        TriplePattern(Variable("b"), p2, Variable("x")),
        TriplePattern(Variable("a"), RDF.type, Variable("ta")),
    ]


def generate_query(
    graph: RDFGraph,
    shape: QueryShape,
    seed: int = 0,
    size: int = 3,
    max_attempts: int = 25,
) -> SelectQuery:
    """A random, *answerable* query of the requested shape.

    Candidate pattern sets are drawn until one has at least one solution
    over *graph* (checked with the reference evaluator), so workloads
    never contain vacuous queries.  Raises ValueError when the graph has
    no structure supporting the shape.
    """
    from repro.sparql.algebra import evaluate_bgp

    rng = random.Random(seed)
    last_error = "graph has no structure to support a %s query" % shape.value
    for _attempt in range(max_attempts):
        patterns = _draw_patterns(graph, shape, rng, size)
        if patterns is None:
            continue
        produced = classify_patterns(patterns)
        if shape is not QueryShape.SINGLE and produced is not shape:
            last_error = "generated a %s query instead of %s" % (
                produced.value,
                shape.value,
            )
            continue
        if not evaluate_bgp(graph, patterns):
            last_error = "generated %s query had no answers" % shape.value
            continue
        return _select_of(patterns)
    raise ValueError(last_error)


def _draw_patterns(
    graph: RDFGraph,
    shape: QueryShape,
    rng: random.Random,
    size: int,
) -> Optional[List[TriplePattern]]:
    if shape is QueryShape.STAR:
        return _star_patterns(graph, rng, size)
    if shape is QueryShape.LINEAR:
        return _linear_patterns(graph, rng, max(size - 1, 2))
    if shape is QueryShape.SNOWFLAKE:
        return _snowflake_patterns(graph, rng)
    if shape is QueryShape.COMPLEX:
        return _complex_patterns(graph, rng)
    if shape is QueryShape.SINGLE:
        _s, predicate, _o = rng.choice(graph.canonical_order())
        return [TriplePattern(Variable("s"), predicate, Variable("o"))]
    raise ValueError("cannot generate shape %r" % shape)


def generate_workload(
    graph: RDFGraph,
    shape_counts: Dict[QueryShape, int],
    seed: int = 0,
    skew: float = 2.0,
) -> QueryWorkload:
    """A workload with Zipf-skewed frequencies per generated query."""
    workload = QueryWorkload()
    rank = 1
    for shape, count in shape_counts.items():
        for index in range(count):
            query = generate_query(graph, shape, seed=seed + rank)
            workload.add(
                "%s_%d" % (shape.value, index),
                query,
                frequency=1.0 / (rank ** (skew / 2.0)),
            )
            rank += 1
    return workload
