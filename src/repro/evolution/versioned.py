"""A version-tracked RDF store with selectable archiving policies.

Versions form a linear history: each commit records the triples added and
removed relative to its parent.  Three archiving policies trade storage
for reconstruction effort (the design space of the RDF-archiving work the
paper cites -- [22], [25]):

``FULL``
    every version stored as a complete snapshot -- O(1) reconstruction,
    maximal storage;
``DELTA``
    only deltas stored -- minimal storage, reconstruction replays the
    whole chain;
``HYBRID``
    a snapshot every *checkpoint_every* commits, deltas in between --
    bounded replay with bounded storage.

Reconstruction effort and storage are measured in triples, matching the
cost style of the rest of the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.triple import Triple
from repro.sparql.algebra import evaluate
from repro.sparql.ast import Query
from repro.sparql.parser import parse_sparql


class ArchivePolicy(Enum):
    FULL = "full"
    DELTA = "delta"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class Delta:
    """The change set of one commit."""

    added: Tuple[Triple, ...]
    removed: Tuple[Triple, ...]

    def size(self) -> int:
        return len(self.added) + len(self.removed)

    @staticmethod
    def between(old: RDFGraph, new: RDFGraph) -> "Delta":
        old_set = set(old)
        new_set = set(new)
        return Delta(
            tuple(sorted(new_set - old_set)),
            tuple(sorted(old_set - new_set)),
        )


class VersionedGraph:
    """Linear version history over RDF graphs.

    Version 0 is the initial graph; :meth:`commit` appends a version.
    """

    def __init__(
        self,
        initial: Optional[RDFGraph] = None,
        policy: ArchivePolicy = ArchivePolicy.HYBRID,
        checkpoint_every: int = 4,
    ) -> None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.policy = policy
        self.checkpoint_every = checkpoint_every
        self._deltas: List[Delta] = []
        self._snapshots: Dict[int, RDFGraph] = {}
        self._head = (initial or RDFGraph()).copy()
        self._snapshots[0] = self._head.copy()
        #: Reconstruction effort of the last snapshot() call, in triples
        #: replayed (0 when a stored snapshot answered directly).
        self.last_replay_cost = 0

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------

    @property
    def head_version(self) -> int:
        return len(self._deltas)

    def head(self) -> RDFGraph:
        """The latest version (shared; copy before mutating)."""
        return self._head

    def commit(
        self,
        additions: Iterable[Triple] = (),
        deletions: Iterable[Triple] = (),
    ) -> int:
        """Apply a change set; returns the new version number.

        Additions already present and deletions of absent triples are
        dropped from the recorded delta (it captures effective change).
        """
        added = tuple(
            sorted(t for t in set(additions) if t not in self._head)
        )
        removed = tuple(
            sorted(t for t in set(deletions) if t in self._head)
        )
        for triple in removed:
            self._head.remove(triple)
        for triple in added:
            self._head.add(triple)
        self._deltas.append(Delta(added, removed))
        version = self.head_version
        if self._should_snapshot(version):
            self._snapshots[version] = self._head.copy()
        return version

    def revert(self) -> int:
        """Undo the head commit (one whose consumers could not follow
        it); returns the version the head is back at."""
        version = self.head_version
        if version == 0:
            raise KeyError("no commit to revert")
        delta = self._deltas.pop()
        self._snapshots.pop(version, None)
        for triple in delta.added:
            self._head.remove(triple)
        for triple in delta.removed:
            self._head.add(triple)
        return self.head_version

    def _should_snapshot(self, version: int) -> bool:
        if self.policy is ArchivePolicy.FULL:
            return True
        if self.policy is ArchivePolicy.DELTA:
            return False
        return version % self.checkpoint_every == 0

    # ------------------------------------------------------------------
    # Reconstruction & queries
    # ------------------------------------------------------------------

    def snapshot(self, version: int) -> RDFGraph:
        """Materialize any past version."""
        if not 0 <= version <= self.head_version:
            raise KeyError(
                "version %d outside [0, %d]" % (version, self.head_version)
            )
        if version == self.head_version:
            self.last_replay_cost = 0
            return self._head.copy()
        if version in self._snapshots:
            self.last_replay_cost = 0
            return self._snapshots[version].copy()
        # Replay from the nearest stored snapshot at or below *version*.
        base_version = max(
            v for v in self._snapshots if v <= version
        )
        graph = self._snapshots[base_version].copy()
        replayed = 0
        for delta in self._deltas[base_version:version]:
            for triple in delta.removed:
                graph.remove(triple)
            for triple in delta.added:
                graph.add(triple)
            replayed += delta.size()
        self.last_replay_cost = replayed
        return graph

    def delta(self, version: int) -> Delta:
        """The change set that produced *version* (1-based)."""
        if not 1 <= version <= self.head_version:
            raise KeyError("no delta for version %d" % version)
        return self._deltas[version - 1]

    def diff(self, old: int, new: int) -> Delta:
        """Aggregate change between two versions (either direction)."""
        return Delta.between(self.snapshot(old), self.snapshot(new))

    def query_version(self, query, version: int):
        """Evaluate a SPARQL query against any version."""
        if isinstance(query, str):
            query = parse_sparql(query)
        return evaluate(query, self.snapshot(version))

    def versions_where(self, query) -> List[int]:
        """All versions where an ASK query holds (cross-version access)."""
        if isinstance(query, str):
            query = parse_sparql(query)
        return [
            v
            for v in range(self.head_version + 1)
            if bool(evaluate(query, self.snapshot(v)))
        ]

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    def storage_triples(self) -> int:
        """Stored triples across snapshots plus delta records."""
        snapshots = sum(len(g) for g in self._snapshots.values())
        deltas = sum(d.size() for d in self._deltas)
        return snapshots + deltas

    def __repr__(self) -> str:
        return "VersionedGraph(head=%d, policy=%s)" % (
            self.head_version,
            self.policy.value,
        )
