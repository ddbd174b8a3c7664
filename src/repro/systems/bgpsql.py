"""A basic graph pattern as one Spark SQL query over encoded tables.

S2RDF [24] and the SPARK_SQL strategy of the hybrid study [21] both hand
Catalyst one self-join per triple pattern over dictionary-encoded
tables; they differ in *which* table a pattern reads (the smallest
VP/ExtVP reduction vs. the one triples table) and in the pattern order.
Both are arguments here; the SQL text has this one home.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.rdf.encoding import Dictionary
from repro.rdf.terms import Term
from repro.spark.kernels import comprehension
from repro.spark.rdd import RDD
from repro.spark.sql.session import SparkSession
from repro.sparql.ast import TriplePattern, Variable


def bgp_to_sql(
    patterns: Sequence[TriplePattern],
    tables: Sequence[str],
    triples_table: str,
    encode: Callable[[Term], Optional[int]],
) -> Optional[Tuple[str, List[str]]]:
    """The Spark SQL text joining *patterns* in the order given, plus the
    variable names it projects (first-seen order).

    Pattern *k* reads ``tables[k]`` under the alias ``t<k>``.  The table
    named *triples_table* has the columns ``(s, p, o)``; any other is a
    vertical partition ``(s, o)`` that holds one predicate, so the
    pattern's (constant) predicate needs no condition.  *encode* maps a
    constant to its id; when it returns None the constant occurs in no
    triple, the result is empty for certain, and so is this one: None.
    """
    variables: List[str] = []
    var_source: Dict[str, str] = {}
    from_parts: List[str] = []
    where_parts: List[str] = []
    for k, (pattern, table) in enumerate(zip(patterns, tables)):
        alias = "t%d" % k
        conditions: List[str] = []
        for column, value in zip("spo", pattern.positions()):
            if column == "p" and table != triples_table:
                continue
            qualified = "%s.%s" % (alias, column)
            if isinstance(value, Variable):
                if value.name in var_source:
                    conditions.append(
                        "%s = %s" % (qualified, var_source[value.name])
                    )
                else:
                    var_source[value.name] = qualified
                    variables.append(value.name)
            else:
                encoded = encode(value)
                if encoded is None:
                    return None
                where_parts.append("%s = %d" % (qualified, encoded))
        if k == 0:
            from_parts.append("%s AS %s" % (table, alias))
            # A variable repeated inside the first pattern (?x p ?x) has
            # no earlier table to join: the equality goes to WHERE.
            where_parts.extend(conditions)
        elif conditions:
            from_parts.append(
                "JOIN %s AS %s ON %s" % (table, alias, " AND ".join(conditions))
            )
        else:
            from_parts.append("CROSS JOIN %s AS %s" % (table, alias))
    select_list = ", ".join(
        "%s AS %s" % (var_source[name], name) for name in variables
    ) or "t0.s AS one"
    sql = "SELECT %s FROM %s" % (select_list, " ".join(from_parts))
    if where_parts:
        sql += " WHERE %s" % " AND ".join(where_parts)
    return sql, variables


def run_bgp_sql(
    session: SparkSession,
    dictionary: Dictionary,
    sql: str,
    variables: Sequence[str],
) -> RDD:
    """Run :func:`bgp_to_sql`'s text; the rows as bindings of terms, each
    decoded by one generated dict display with the positions fixed."""
    result = session.sql(sql)
    binding = ", ".join(
        "%r: t[v[%d]]" % (name, index)
        for index, name in enumerate(result.columns)
        if name in variables
    )
    decode = comprehension(
        "decode", "{%s}" % binding, namespace={"t": dictionary.terms}
    )
    return result.rdd.mapPartitions(decode)
