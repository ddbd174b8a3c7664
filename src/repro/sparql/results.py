"""Solutions and solution sets (bag semantics).

A :class:`Solution` is a partial mapping from variables to RDF terms; a
:class:`SolutionSet` is a multiset of solutions held as rows over a header
of projected variables: one tuple of terms per solution, what the modifiers
cut and the renderers read (a caller that iterates gets ``Solution`` objects).
Cross-engine correctness checks compare solution sets as multisets, which
is what SPARQL's bag semantics requires.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.rdf.terms import Term
from repro.spark.kernels import comprehension
from repro.sparql.ast import Variable


class Solution:
    """An immutable variable -> term binding."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Dict[str, Term]] = None) -> None:
        object.__setattr__(self, "_bindings", dict(bindings or {}))

    def __setattr__(self, name, value):
        raise AttributeError("Solution is immutable")

    def __reduce__(self):
        # The raising __setattr__ breaks default slots unpickling.
        return (Solution, (self._bindings,))

    def get(self, variable) -> Optional[Term]:
        name = variable.name if isinstance(variable, Variable) else variable
        return self._bindings.get(name)

    def __getitem__(self, variable) -> Term:
        name = variable.name if isinstance(variable, Variable) else variable
        return self._bindings[name]

    def __contains__(self, variable) -> bool:
        name = variable.name if isinstance(variable, Variable) else variable
        return name in self._bindings

    def variables(self) -> List[str]:
        return sorted(self._bindings)

    def items(self) -> Iterable[Tuple[str, Term]]:
        return self._bindings.items()

    def bind(self, variable, term: Term) -> "Solution":
        """A new solution with one more binding."""
        name = variable.name if isinstance(variable, Variable) else variable
        merged = dict(self._bindings)
        merged[name] = term
        return Solution(merged)

    def compatible(self, other: "Solution") -> bool:
        """SPARQL compatibility: shared variables agree."""
        if len(self._bindings) > len(other._bindings):
            return other.compatible(self)
        for name, term in self._bindings.items():
            if name in other._bindings and other._bindings[name] != term:
                return False
        return True

    def merge(self, other: "Solution") -> "Solution":
        merged = dict(self._bindings)
        merged.update(other._bindings)
        return Solution(merged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Solution) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            "?%s=%s" % (k, v.n3()) for k, v in sorted(self._bindings.items())
        )
        return "{%s}" % inner


class SolutionSet:
    """A multiset of solutions: a header of projected variables and, per
    solution, one tuple of terms over it (``None`` where unbound)."""

    def __init__(
        self,
        variables: Iterable,
        solutions: Iterable[Solution] = (),
    ) -> None:
        self.variables: List[str] = [
            v.name if isinstance(v, Variable) else v for v in variables
        ]
        #: The solutions, each read at the header's variables.
        self.rows: List[Tuple[Optional[Term], ...]] = []
        for solution in solutions:
            self.add(solution)

    @property
    def solutions(self) -> List[Solution]:
        """The rows as :class:`Solution` objects, built when asked for."""
        names = self.variables
        return [
            Solution({n: t for n, t in zip(names, row) if t is not None})
            for row in self.rows
        ]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def add(self, solution: Solution) -> None:
        self.rows.append(tuple([solution.get(n) for n in self.variables]))

    def as_multiset(self) -> Counter:
        names = self.variables
        return Counter(
            frozenset((n, t) for n, t in zip(names, row) if t is not None)
            for row in self.rows
        )

    def same_as(self, other: "SolutionSet") -> bool:
        """Multiset equality, ignoring solution order."""
        return self.as_multiset() == other.as_multiset()

    def distinct(self) -> "SolutionSet":
        """Each row once, where it first stood."""
        out = SolutionSet(self.variables)
        out.rows = list(dict.fromkeys(self.rows))
        return out

    def to_table(self) -> List[Tuple]:
        """Rows of n3-rendered strings, ordered by the header: each term
        as it renders once (``Term._n3``), an unbound cell ``""``."""
        cells = ["c%d" % column for column in range(len(self.variables))]
        render = comprehension(
            "table",
            "(%s)" % "".join(
                '"" if %s is None else (%s._n3 or %s.n3()),' % (c, c, c)
                for c in cells
            ),
            target="(%s)" % "".join(c + "," for c in cells),
        )
        return render(self.rows)

    def __repr__(self) -> str:
        return "SolutionSet(vars=%r, size=%d)" % (self.variables, len(self))
