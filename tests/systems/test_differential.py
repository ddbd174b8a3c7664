"""Every engine on the shared star/linear/snowflake/complex workload --
the matrix the CLI's ``assess`` command runs -- against the reference.

A named slice of the differential matrix (tests/differential/matrix.py).
"""

import pytest

from repro.systems import ALL_ENGINE_CLASSES
from tests.differential.matrix import Cell, check

WORKLOAD = ("star", "linear", "snowflake", "complex")


def test_naive_supports_the_whole_workload():
    assert all(check(Cell.of("Naive"), "lubm", name).wire for name in WORKLOAD)


@pytest.mark.parametrize(
    "engine_class", ALL_ENGINE_CLASSES, ids=lambda cls: cls.profile.name
)
@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
def test_engines_agree_on_workload(engine_class, query_name):
    check(Cell.of(engine_class.profile.name), "lubm", query_name)


def test_answers_are_nonempty():
    # An all-engines-return-nothing workload would make the suite vacuous.
    assert all(check(Cell.of("Naive"), "lubm", name).nonempty for name in WORKLOAD)
