"""Solutions and solution sets (bag semantics).

A :class:`Solution` is a partial mapping from variables to RDF terms; a
:class:`SolutionSet` is a multiset of solutions with a header of projected
variables.  Cross-engine correctness checks compare solution sets as
multisets, which is what SPARQL's bag semantics requires.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.rdf.terms import Term
from repro.sparql.ast import Variable


class Solution:
    """An immutable variable -> term binding."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Dict[str, Term]] = None) -> None:
        object.__setattr__(self, "_bindings", dict(bindings or {}))

    @classmethod
    def _over(cls, bindings: Dict[str, Term]) -> "Solution":
        """The solution over *bindings* itself, not a copy: for a dict
        built here, which nobody else holds."""
        solution = cls.__new__(cls)
        object.__setattr__(solution, "_bindings", bindings)
        return solution

    def __setattr__(self, name, value):
        raise AttributeError("Solution is immutable")

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

    def project(self, variables: Iterable) -> "Solution":
        names = [
            v.name if isinstance(v, Variable) else v for v in variables
        ]
        bindings = self._bindings
        return Solution._over(
            {n: bindings[n] for n in names if n in bindings}
        )

    def frozen(self) -> frozenset:
        return frozenset(self._bindings.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Solution) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(self.frozen())

    def __repr__(self) -> str:
        inner = ", ".join(
            "?%s=%s" % (k, v.n3()) for k, v in sorted(self._bindings.items())
        )
        return "{%s}" % inner


class SolutionSet:
    """A multiset of solutions plus the projected variable header."""

    def __init__(
        self,
        variables: Iterable,
        solutions: Iterable[Solution] = (),
    ) -> None:
        self.variables: List[str] = [
            v.name if isinstance(v, Variable) else v for v in variables
        ]
        self.solutions: List[Solution] = list(solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __bool__(self) -> bool:
        return bool(self.solutions)

    def add(self, solution: Solution) -> None:
        self.solutions.append(solution)

    def as_multiset(self) -> Counter:
        return Counter(s.frozen() for s in self.solutions)

    def same_as(self, other: "SolutionSet") -> bool:
        """Multiset equality, ignoring solution order."""
        return self.as_multiset() == other.as_multiset()

    def distinct(self) -> "SolutionSet":
        seen = set()
        out = []
        for solution in self.solutions:
            key = solution.frozen()
            if key not in seen:
                seen.add(key)
                out.append(solution)
        return SolutionSet(self.variables, out)

    def to_table(self) -> List[Tuple]:
        """Rows of n3-rendered strings, ordered by the header."""
        names = self.variables
        rows = []
        for solution in self.solutions:
            bound = solution._bindings.get  # the row's mapping, read once
            rows.append(
                tuple(
                    [
                        term.n3() if (term := bound(name)) is not None else ""
                        for name in names
                    ]
                )
            )
        return rows

    def __repr__(self) -> str:
        return "SolutionSet(vars=%r, size=%d)" % (self.variables, len(self))
