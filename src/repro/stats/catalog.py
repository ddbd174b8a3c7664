"""The statistics catalog: one pass over a graph, shared by every planner.

The paper's optimization claims all rest on statistics the systems gather
privately: SPARQLGX counts distinct subjects/predicates/objects to reorder
joins (Section IV-A1), S2RDF precomputes ExtVP selectivity factors for
predicate pairs (Section IV-A2), and the characteristic-set idea (Neumann &
Moerkotte) estimates star-shaped sub-queries from the predicate combinations
subjects actually exhibit.  A :class:`StatsCatalog` computes all three
families in one pass over a loaded :class:`~repro.rdf.graph.RDFGraph`:

* **totals** -- triple count and distinct subject/predicate/object counts;
* **per-predicate stats** -- triple count plus distinct subject and object
  counts for each predicate (the vertical-partition "file sizes");
* **characteristic sets** -- subjects grouped by the exact set of predicates
  they carry, with per-predicate occurrence totals, for star estimation;
* **pair selectivities** -- ExtVP-style SS/SO/OS factors: the fraction of a
  predicate's triples that survive a semi-join with another predicate on
  the given columns (only factors below 1.0 are stored, like S2RDF's
  ``sf_threshold`` keeps only the reductions worth materializing).

Determinism: keys are N3 strings, every collection is sorted before
serialization, floats are rounded to six places, and :meth:`to_json` uses
sorted-key JSON -- two builds over the same graph are byte-identical.

Versioning: the catalog carries the
:class:`~repro.evolution.versioned.VersionedGraph` version it was computed
at, so the query service can refresh it on every commit and key its plan
cache on the statistics generation actually used for planning.  A commit
does not recount: :meth:`StatsCatalog.apply_delta` carries every statistic
forward through the subjects, objects and predicates the change set
touches, to the bytes :meth:`StatsCatalog.from_graph` would give.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import RDFGraph

#: Pair-selectivity join kinds, following S2RDF's ExtVP table families:
#: ``ss`` compares subject(p1) with subject(p2), ``os`` object(p1) with
#: subject(p2), ``so`` subject(p1) with object(p2) -- in the order S2RDF
#: builds them.  The one home of the scheme (docs/VIEWS.md).
PAIR_KINDS = ("ss", "os", "so")


def pair_columns(kind: str) -> Tuple[str, str]:
    """The join columns *kind* names, each ``"s"`` or ``"o"``: the column
    of p1's vertical partition, then the column of p2's it must occur in."""
    if kind not in PAIR_KINDS:
        raise ValueError("unknown pair kind %r" % kind)
    return kind[0], kind[1]

#: Pair selectivities are O(predicates^2); beyond this many predicates the
#: catalog skips them (the estimator then falls back to independence).
MAX_PAIR_PREDICATES = 64

#: Bumped when the serialized catalog layout changes incompatibly.
CATALOG_FORMAT_VERSION = 1


def _factors(
    survivors: Optional[Dict[Tuple[str, str, str], int]],
    counts: Dict[str, int],
) -> Dict[Tuple[str, str, str], float]:
    """The stored selectivity factors: every pair of the predicates
    *counts* holds whose factor is below 1.0, rounded to six places (p1's
    triple count is the denominator, a pair *survivors* lacks has none
    surviving); none when the pairs are not kept."""
    out: Dict[Tuple[str, str, str], float] = {}
    if survivors is None:
        return out
    for p1, count in counts.items():
        for p2 in counts:
            if p1 == p2:
                continue
            for kind in PAIR_KINDS:
                factor = survivors.get((kind, p1, p2), 0) / count
                if factor < 1.0:
                    out[(kind, p1, p2)] = round(factor, 6)
    return out


@dataclass(frozen=True)
class PredicateStats:
    """Counts for one predicate's vertical partition."""

    count: int
    distinct_subjects: int
    distinct_objects: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "count": self.count,
            "distinct_subjects": self.distinct_subjects,
            "distinct_objects": self.distinct_objects,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "PredicateStats":
        return cls(
            count=data["count"],
            distinct_subjects=data["distinct_subjects"],
            distinct_objects=data["distinct_objects"],
        )


@dataclass(frozen=True)
class CharacteristicSet:
    """One group of subjects sharing the exact same predicate set.

    *subjects* is how many subjects exhibit exactly these predicates;
    *occurrences* maps each predicate (N3) to the total number of triples
    those subjects carry for it, so ``occurrences[p] / subjects`` is the
    mean multiplicity used in star estimation.
    """

    predicates: Tuple[str, ...]
    subjects: int
    occurrences: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "predicates": list(self.predicates),
            "subjects": self.subjects,
            "occurrences": dict(sorted(self.occurrences.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CharacteristicSet":
        return cls(
            predicates=tuple(data["predicates"]),
            subjects=int(data["subjects"]),
            occurrences={k: int(v) for k, v in data["occurrences"].items()},
        )


class StatsCatalog:
    """Graph statistics for cardinality estimation, built in one pass."""

    def __init__(
        self,
        version: int = 0,
        triples: int = 0,
        distinct_subjects: int = 0,
        distinct_predicates: int = 0,
        distinct_objects: int = 0,
        predicates: Optional[Dict[str, PredicateStats]] = None,
        characteristic_sets: Optional[List[CharacteristicSet]] = None,
        pair_selectivity: Optional[Dict[Tuple[str, str, str], float]] = None,
        pair_survivors: Optional[Dict[Tuple[str, str, str], int]] = None,
    ) -> None:
        self.version = version
        self.triples = triples
        self.distinct_subjects = distinct_subjects
        self.distinct_predicates = distinct_predicates
        self.distinct_objects = distinct_objects
        self.predicates: Dict[str, PredicateStats] = dict(predicates or {})
        self.characteristic_sets: List[CharacteristicSet] = list(
            characteristic_sets or []
        )
        #: (kind, p1 n3, p2 n3) -> fraction of p1's triples surviving the
        #: semi-join with p2 on the columns *kind* names; 1.0 when absent.
        self.pair_selectivity: Dict[Tuple[str, str, str], float] = dict(
            pair_selectivity or {}
        )
        #: (kind, p1 n3, p2 n3) -> how many of p1's triples survive that
        #: semi-join (1.0 factors included; a pair absent has none): the
        #: integers the factors are rounded from, which :meth:`apply_delta`
        #: carries forward.  None when unknown -- a catalog read back from
        #: JSON, or one over more than :data:`MAX_PAIR_PREDICATES`
        #: predicates.
        self.pair_survivors = pair_survivors

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: RDFGraph, version: int = 0) -> "StatsCatalog":
        """Compute every statistic in a single pass over *graph*.

        The pass reads the graph's own POS and SPO indexes: the size of
        ``pos[p][o]`` is the object's multiplicity under ``p`` and the
        size of ``spo[s][p]`` the subject's, so no triple is rebuilt and
        each predicate is rendered to N3 once.
        """
        names = {p: p.n3() for p in graph.by_predicate()}
        # Per predicate: subject -> multiplicity and object -> multiplicity
        # (multiplicities make the triple-level selectivity factors exact).
        pred_subjects: Dict[str, Dict[object, int]] = {
            p: {} for p in names.values()
        }
        pred_objects: Dict[str, Dict[object, int]] = {
            names[predicate]: {
                o: len(subjects) for o, subjects in by_object.items()
            }
            for predicate, by_object in graph.by_predicate().items()
        }
        pred_count = {p: sum(objs.values()) for p, objs in pred_objects.items()}

        # Characteristic sets: subjects grouped by their exact predicate
        # set, each predicate with the triples those subjects carry for it.
        grouped: Dict[Tuple[str, ...], Dict[str, object]] = {}
        for subject, by_predicate in graph.by_subject().items():
            per_subject = {
                names[predicate]: len(objects)
                for predicate, objects in by_predicate.items()
            }
            key = tuple(sorted(per_subject))
            entry = grouped.setdefault(key, {"subjects": 0, "occ": {}})
            entry["subjects"] += 1
            occ: Dict[str, int] = entry["occ"]  # type: ignore[assignment]
            for p, count in per_subject.items():
                pred_subjects[p][subject] = count
                occ[p] = occ.get(p, 0) + count

        predicates = {
            p: PredicateStats(
                count=pred_count[p],
                distinct_subjects=len(pred_subjects[p]),
                distinct_objects=len(pred_objects[p]),
            )
            for p in pred_count
        }

        characteristic_sets = [
            CharacteristicSet(
                predicates=key,
                subjects=entry["subjects"],  # type: ignore[arg-type]
                occurrences=dict(entry["occ"]),  # type: ignore[arg-type]
            )
            for key, entry in sorted(grouped.items())
        ]

        pair_survivors = cls._pair_survivors(pred_subjects, pred_objects)

        return cls(
            version=version,
            triples=len(graph),
            distinct_subjects=len(graph.subjects()),
            distinct_predicates=len(graph.predicates()),
            distinct_objects=len(graph.objects()),
            predicates=predicates,
            characteristic_sets=characteristic_sets,
            pair_selectivity=_factors(pair_survivors, pred_count),
            pair_survivors=pair_survivors,
        )

    @staticmethod
    def _pair_survivors(
        pred_subjects: Dict[str, Dict[object, int]],
        pred_objects: Dict[str, Dict[object, int]],
    ) -> Optional[Dict[Tuple[str, str, str], int]]:
        """ExtVP survivor counts: p1's triples joining p2, per kind."""
        if len(pred_subjects) > MAX_PAIR_PREDICATES:
            return None
        out: Dict[Tuple[str, str, str], int] = {}
        names = sorted(pred_subjects)
        by_column = {"s": pred_subjects, "o": pred_objects}
        for p1 in names:
            for p2 in names:
                if p1 == p2:
                    continue
                for kind in PAIR_KINDS:
                    column1, column2 = pair_columns(kind)
                    other = by_column[column2][p2]
                    surviving = sum(
                        mult
                        for term, mult in by_column[column1][p1].items()
                        if term in other
                    )
                    if surviving:
                        out[(kind, p1, p2)] = surviving
        return out

    def apply_delta(
        self, delta, graph: RDFGraph, version: int
    ) -> "StatsCatalog":
        """The catalog of *graph*, which is this catalog's graph with
        *delta* (anything with ``added`` / ``removed`` triples, as a
        :class:`~repro.evolution.versioned.Delta` holds them) applied.

        Byte-equal to ``from_graph(graph, version)``; this catalog is left
        as it is (plans, lint and routing may still hold it).  Only the
        delta's subjects, objects and predicates are visited: a term's
        multiplicities after the change are read off *graph*'s indexes,
        those before it are that minus the delta's net change.  With no
        survivor counts to carry forward while the pair statistics are
        kept, it is :meth:`from_graph`.
        """
        spo, pos = graph.by_subject(), graph.by_predicate()
        keep_pairs = len(pos) <= MAX_PAIR_PREDICATES
        if keep_pairs and self.pair_survivors is None:
            return StatsCatalog.from_graph(graph, version)
        names = {p: p.n3() for p in pos}
        # The net change of each term's multiplicity under a predicate,
        # per column ("s" / "o"), and of each predicate's triple count.
        net: Dict[str, Dict[object, Dict[str, int]]] = {"s": {}, "o": {}}
        counted: Dict[str, int] = {}
        for sign, triples in ((1, delta.added), (-1, delta.removed)):
            for s, p, o in triples:
                name = names.get(p) or p.n3()
                counted[name] = counted.get(name, 0) + sign
                for column, term in (("s", s), ("o", o)):
                    row = net[column].setdefault(term, {})
                    row[name] = row.get(name, 0) + sign

        seen: Dict[Tuple[str, object], tuple] = {}

        def multiplicities(column, term):
            """*term*'s multiplicity per predicate in *column*, after the
            change and before it."""
            if (column, term) in seen:
                return seen[column, term]
            if column == "s":
                after = {
                    names[p]: len(objects)
                    for p, objects in spo.get(term, {}).items()
                }
            else:
                after = {
                    names[p]: len(by_object[term])
                    for p, by_object in pos.items()
                    if term in by_object
                }
            before = dict(after)
            for name, change in net[column].get(term, {}).items():
                before[name] = before.get(name, 0) - change
                if not before[name]:
                    del before[name]
            seen[column, term] = after, before
            return after, before

        # Characteristic sets: each touched subject leaves the group of
        # its old predicate set and joins the group of its new one.
        groups = {cs.predicates: cs for cs in self.characteristic_sets}
        regrouped: Dict[Tuple[str, ...], list] = {}
        subject_change = dict.fromkeys(counted, 0)
        for subject, row in net["s"].items():
            after, before = multiplicities("s", subject)
            for name in row:
                subject_change[name] += (name in after) - (name in before)
            for sign, carried in ((-1, before), (1, after)):
                if not carried or after == before:
                    continue
                key = tuple(sorted(carried))
                if key not in regrouped:
                    cs = groups.get(key)
                    regrouped[key] = (
                        [cs.subjects, dict(cs.occurrences)] if cs else [0, {}]
                    )
                entry = regrouped[key]
                entry[0] += sign
                for name, mult in carried.items():
                    entry[1][name] = entry[1].get(name, 0) + sign * mult
        for key, (subjects, occurrences) in regrouped.items():
            if subjects:
                groups[key] = CharacteristicSet(key, subjects, occurrences)
            else:
                del groups[key]

        predicates = dict(self.predicates)
        present = {names[p]: p for p in pos}
        for name, change in counted.items():
            if name not in present:
                del predicates[name]
                continue
            old = predicates.get(name, PredicateStats(0, 0, 0))
            predicates[name] = PredicateStats(
                count=old.count + change,
                distinct_subjects=old.distinct_subjects + subject_change[name],
                distinct_objects=len(pos[present[name]]),
            )

        # A touched term adds m1(p1) to the count of (kind, p1, p2) when
        # it occurs m1 times in p1's column and at all in p2's; its share
        # is taken out as it was and put back as it is.
        survivors = None
        if keep_pairs:
            survivors = dict(self.pair_survivors)
            for term in net["s"].keys() | net["o"].keys():
                for kind in PAIR_KINDS:
                    column1, column2 = pair_columns(kind)
                    after1, before1 = multiplicities(column1, term)
                    after2, before2 = multiplicities(column2, term)
                    for p1 in after1.keys() | before1.keys():
                        for p2 in after2.keys() | before2.keys():
                            change = (
                                after1.get(p1, 0) if p2 in after2 else 0
                            ) - (before1.get(p1, 0) if p2 in before2 else 0)
                            if change and p1 != p2:
                                key = (kind, p1, p2)
                                total = survivors.pop(key, 0) + change
                                if total:
                                    survivors[key] = total

        return StatsCatalog(
            version=version,
            triples=len(graph),
            distinct_subjects=len(spo),
            distinct_predicates=len(pos),
            distinct_objects=len(graph.by_object()),
            predicates=predicates,
            characteristic_sets=[groups[key] for key in sorted(groups)],
            pair_selectivity=_factors(
                survivors, {p: stats.count for p, stats in predicates.items()}
            ),
            pair_survivors=survivors,
        )

    # ------------------------------------------------------------------
    # Estimation accessors
    # ------------------------------------------------------------------

    def predicate_count(self, predicate_n3: str) -> int:
        """Triples carrying this predicate (0 when absent)."""
        stats = self.predicates.get(predicate_n3)
        return stats.count if stats is not None else 0

    def predicate_stats(self, predicate_n3: str) -> Optional[PredicateStats]:
        return self.predicates.get(predicate_n3)

    def selectivity(self, kind: str, p1_n3: str, p2_n3: str) -> float:
        """Fraction of p1's triples surviving the *kind* semi-join with p2."""
        if kind not in PAIR_KINDS:
            raise ValueError("unknown pair kind %r" % kind)
        return self.pair_selectivity.get((kind, p1_n3, p2_n3), 1.0)

    def star_cardinality(self, predicate_n3s: List[str]) -> Optional[float]:
        """Characteristic-set estimate for a subject star over bound
        predicates: rows produced by joining the stars' vertical partitions
        on the shared subject.  ``None`` when no statistics apply (an
        unknown predicate or an empty catalog)."""
        wanted = sorted(set(predicate_n3s))
        if not wanted or not self.characteristic_sets:
            return None
        if any(p not in self.predicates for p in wanted):
            return None
        total = 0.0
        for cs in self.characteristic_sets:
            if not set(wanted) <= set(cs.predicates):
                continue
            rows = float(cs.subjects)
            for p in predicate_n3s:  # repeated predicates multiply again
                rows *= cs.occurrences[p] / cs.subjects
            total += rows
        return total

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready dict; every collection sorted for byte determinism."""
        return {
            "format": CATALOG_FORMAT_VERSION,
            "version": self.version,
            "totals": {
                "triples": self.triples,
                "distinct_subjects": self.distinct_subjects,
                "distinct_predicates": self.distinct_predicates,
                "distinct_objects": self.distinct_objects,
            },
            "predicates": {
                p: stats.to_dict()
                for p, stats in sorted(self.predicates.items())
            },
            "characteristic_sets": [
                cs.to_dict()
                for cs in sorted(
                    self.characteristic_sets, key=lambda c: c.predicates
                )
            ],
            "pair_selectivity": {
                "%s %s %s" % key: factor
                for key, factor in sorted(self.pair_selectivity.items())
            },
        }

    def to_json(self) -> str:
        return (
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "StatsCatalog":
        if not isinstance(payload, dict):
            raise ValueError("a stats catalog must be a JSON object")
        if payload.get("format") != CATALOG_FORMAT_VERSION:
            raise ValueError(
                "unsupported catalog format %r (expected %d)"
                % (payload.get("format"), CATALOG_FORMAT_VERSION)
            )
        totals = payload["totals"]
        pair_selectivity: Dict[Tuple[str, str, str], float] = {}
        for key, factor in payload["pair_selectivity"].items():
            kind, p1, p2 = key.split(" ")
            pair_selectivity[(kind, p1, p2)] = float(factor)
        return cls(
            version=int(payload["version"]),
            triples=int(totals["triples"]),
            distinct_subjects=int(totals["distinct_subjects"]),
            distinct_predicates=int(totals["distinct_predicates"]),
            distinct_objects=int(totals["distinct_objects"]),
            predicates={
                p: PredicateStats.from_dict(stats)
                for p, stats in payload["predicates"].items()
            },
            characteristic_sets=[
                CharacteristicSet.from_dict(cs)
                for cs in payload["characteristic_sets"]
            ],
            pair_selectivity=pair_selectivity,
        )

    @classmethod
    def from_json(cls, text: str) -> "StatsCatalog":
        """The catalog :meth:`to_json` wrote; ``ValueError`` for any other
        text, a file from outside the program being one."""
        try:
            return cls.from_payload(json.loads(text))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError("not a stats catalog: %r" % exc) from exc

    def summary(self) -> Dict[str, int]:
        """The headline numbers (the ``stats`` CLI table)."""
        return {
            "version": self.version,
            "triples": self.triples,
            "distinct_subjects": self.distinct_subjects,
            "distinct_predicates": self.distinct_predicates,
            "distinct_objects": self.distinct_objects,
            "characteristic_sets": len(self.characteristic_sets),
            "selectivity_pairs": len(self.pair_selectivity),
        }

    def __repr__(self) -> str:
        return "StatsCatalog(version=%d, triples=%d, predicates=%d)" % (
            self.version,
            self.triples,
            len(self.predicates),
        )
