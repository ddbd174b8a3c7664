"""Correctness: every answer against the reference evaluator.

``repro.sparql.algebra.evaluate`` is the oracle.  Any answer -- an
engine's result object, a wire payload, a CLI's stdout -- is turned into
one canonical text, and so is the oracle's answer on the right graph;
the two must be equal.  The timed loop only *collects* answers (a digest
each, taken between cycles); the oracle runs after the loop.
"""

import hashlib
import re
from collections import Counter

from repro.bench import format_table
from repro.server.protocol import canonical_json, canonical_result
from repro.sparql.algebra import evaluate
from repro.sparql.parser import parse_sparql

_COUNT_LINE = re.compile(r"^\d+ solution\(s\)$")


def canonical_answer(result, query):
    """The canonical wire text of *result* (what the service caches)."""
    return canonical_json(canonical_result(result, query))


def reference_answer(graph, text):
    """The oracle's canonical wire text for query *text* over *graph*."""
    query = parse_sparql(text)
    return canonical_answer(evaluate(query, graph), query)


def cli_answer(stdout):
    """``repro query`` stdout as header + sorted rows + solution count.

    Engines emit rows in their own order, so rows are compared as a
    multiset.  Returns ``None`` when the output is not a result table.
    """
    lines = stdout.splitlines()
    for index, line in enumerate(lines):
        if _COUNT_LINE.match(line):
            table = lines[:index]
            if len(table) < 4:
                return None
            return "\n".join(table[:3] + sorted(table[3:-1]) + [line])
    return None


def reference_cli_answer(graph, text):
    """What :func:`cli_answer` must yield for *text* over *graph*."""
    result = evaluate(parse_sparql(text), graph)
    headers = ["?" + v for v in result.variables]
    return cli_answer(
        "%s\n%d solution(s)\n"
        % (format_table(headers, result.to_table()), len(result))
    )


class Checker:
    """Counts operations attempted and failed.

    ``record`` files one operation under *key* (whatever identifies the
    question and the graph version it was asked on).  An *answer* of
    ``None`` -- an exception, a status other than ``ok``, a non-zero
    exit -- fails at once; any other answer is kept as a digest until
    :meth:`judge` compares it with the oracle's.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._seen = {}

    def record(self, key, answer):
        self.attempted += 1
        if answer is None:
            self.failed += 1
        else:
            self._seen.setdefault(key, Counter())[_digest(answer)] += 1

    def tally(self, ok):
        """Count an operation that has no answer to judge (a commit)."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def judge(self, expected):
        """Fail every recorded answer that differs from ``expected(key)``.

        Keys are visited in sorted order, so an *expected* that replays
        change sets only ever moves forward.
        """
        for key in sorted(self._seen):
            want = _digest(expected(key))
            for digest, count in self._seen[key].items():
                if digest != want:
                    self.failed += count
        self._seen.clear()

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
