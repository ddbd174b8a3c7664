"""The tuple exit path against the row-wise one it replaced, byte for byte.

``apply_solution_modifiers`` cuts tuples over the header and
``canonical_result`` hands them to the encoder; until PR 23 every binding
was wrapped in a ``Solution``, projected into a second dict, rendered row
by row and copied into a list.  That path is kept below, as an oracle, the
way the parent commit had it (its ``Solution`` methods written out over
plain dicts), and the canonical wire text of both must be equal.
"""

from hypothesis import example, given, settings, strategies as st

from repro.rdf.terms import BNode, Literal, URI
from repro.server.protocol import canonical_json, canonical_result
from repro.sparql.algebra import apply_solution_modifiers
from repro.sparql.ast import GroupGraphPattern, SelectQuery, Variable
from repro.sparql.results import Solution


def parent_modifiers(query, bindings):
    """``apply_solution_modifiers`` at the parent: rows of ``Solution``s
    (dicts here), ``Solution.project`` and the ``frozen``-keyed DISTINCT.
    An ORDER BY tie between unequal terms is broken by their N3, the
    rule ``test_an_order_by_tie_between_unequal_terms_is_pinned`` pins."""
    ordered = [dict(b) for b in bindings]  # Solution(b)
    if query.order_by:
        ordered.sort(
            key=lambda s: tuple(
                (name, term.sort_key(), term.n3())
                for name, term in sorted(s.items(), key=lambda kv: kv[0])
            )
        )
    for variable, ascending in reversed(query.order_by):
        ordered.sort(
            key=lambda s: (
                s.get(variable.name) is not None,
                s.get(variable.name).sort_key()
                if s.get(variable.name) is not None
                else None,
            ),
            reverse=not ascending,
        )
    names = [v.name for v in query.projected()]
    solutions = [{n: s[n] for n in names if n in s} for s in ordered]
    if query.distinct:
        seen = set()
        out = []
        for solution in solutions:
            key = frozenset(solution.items())
            if key not in seen:
                seen.add(key)
                out.append(solution)
        solutions = out
    if query.offset:
        solutions = solutions[query.offset :]
    if query.limit is not None:
        solutions = solutions[: query.limit]
    return names, solutions


def parent_wire_text(query, bindings):
    """``to_table`` and ``canonical_result`` at the parent."""
    names, solutions = parent_modifiers(query, bindings)
    table = []
    for solution in solutions:
        bound = solution.get
        table.append(
            tuple(
                [
                    term.n3() if (term := bound(name)) is not None else ""
                    for name in names
                ]
            )
        )
    ordered = bool(query.order_by)
    if not ordered:
        table.sort()
    return canonical_json(
        {
            "type": "bindings",
            "vars": list(names),
            "rows": [list(row) for row in table],
            "ordered": ordered,
        }
    )


#: Quotes, backslashes, newlines and non-ASCII: what N3 and JSON escape.
text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from("\\\"'\n\r\té日 \U0001d11e"),
    ),
    max_size=6,
)
terms = st.one_of(
    st.builds(URI, text.filter(bool)),
    st.builds(BNode, st.sampled_from(["b0", "b1", "b2"])),
    st.builds(Literal, text),
    st.builds(Literal, st.integers(-3, 3)),
    st.builds(Literal, text, datatype=st.just(URI("http://x/dt"))),
    st.builds(Literal, text, language=st.sampled_from(["en", "fr"])),
)
NAMES = ["a", "b", "c", "d"]
variables = st.sampled_from(NAMES).map(Variable)
# Few distinct terms a draw, so duplicate rows and ORDER BY ties happen.
bindings = st.lists(terms, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(
        st.dictionaries(st.sampled_from(NAMES), st.sampled_from(pool)),
        max_size=40,
    )
)
queries = st.builds(
    SelectQuery,
    variables=st.lists(variables, min_size=1, max_size=4, unique=True),
    where=st.just(GroupGraphPattern()),
    distinct=st.booleans(),
    order_by=st.lists(st.tuples(variables, st.booleans()), max_size=2),
    limit=st.none() | st.integers(0, 45),
    offset=st.integers(0, 12),
)


@settings(max_examples=300, deadline=None)
@given(queries, bindings)
# Two rows whose keys tie and whose item counts differ: the oracle once
# sorted them by (name, sort_key) alone, and they came out swapped.
@example(
    query=SelectQuery(
        variables=[Variable("a")],
        where=GroupGraphPattern(),
        order_by=[(Variable("a"), False)],
    ),
    rows=[
        {"a": Literal("\\00\\'0"), "b": Literal("\\00\\'0")},
        {"a": Literal("\\00\\'0", datatype=URI("http://x/dt"))},
    ],
)
def test_tuple_path_equals_row_path(query, rows):
    expected = parent_wire_text(query, rows)
    for collected in (rows, [Solution(row) for row in rows]):
        answer = apply_solution_modifiers(query, collected)
        assert canonical_json(canonical_result(answer, query)) == expected
