"""Every knob flag is built from its config field, and fails like one.

The flag cases are computed from the :class:`RuntimeConfig` /
:class:`ServiceConfig` declarations and the parser, so a knob added to
either config is covered here without editing this file.
"""

import argparse
import ast
import dataclasses
import inspect

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.runtime import RuntimeConfig, ServiceConfig, cli_flag

KNOBS = {
    cli_flag(declared): declared
    for cls in (RuntimeConfig, ServiceConfig)
    for declared in dataclasses.fields(cls)
    if cli_flag(declared)
}

#: Options spelled like a knob that mean something else to one
#: subcommand: engines to compare, a lint budget.
OVERRIDDEN = {
    ("explain", "--engine"),
    ("route", "--engine"),
    ("lint", "--deadline"),
}


def subcommands():
    """(name, subparser) of every subcommand."""
    action = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sorted(action.choices.items())


def knob_actions():
    """(subcommand, subparser, flag, field, action) of every knob flag."""
    return [
        (command, parser, flag, KNOBS[flag], action)
        for command, parser in subcommands()
        for action in parser._actions
        for flag in action.option_strings
        if flag in KNOBS
    ]


def test_each_knob_flag_has_its_field_help():
    differing = set()
    for command, _, flag, declared, action in knob_actions():
        assert action.help, (command, flag)
        if action.help != declared.metadata["help"]:
            differing.add((command, flag))
    assert differing == OVERRIDDEN


def test_no_knob_flag_is_added_outside_add_knobs():
    """Every ``add_argument`` call in cli.py naming a knob flag is the
    one inside ``_add_knobs``, which names none literally."""
    tree = ast.parse(inspect.getsource(repro.cli))
    named = [
        (node.lineno, arg.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and arg.value in KNOBS
    ]
    assert named == []


def rejects(kind, value: str) -> bool:
    try:
        kind(value)
    except argparse.ArgumentTypeError:
        return True
    return False


def bad_values(declared):
    """Values the field's declaration refuses: non-numeric for a numeric
    type, an unknown name for choices, out of range for a range type.
    Never a huge number: --workers, --pool and --parallelism size
    process and engine pools."""
    kind = declared.metadata.get("type")
    if declared.metadata.get("choices"):
        yield "zz"
    if kind is not None:
        yield "x"
    if kind not in (None, int, float):
        yield from (v for v in ("-1", "0", "2") if rejects(kind, v))


def positionals(parser):
    """A placeholder for every positional: its first choice, else "x"."""
    return [
        action.choices[0] if action.choices else "x"
        for action in parser._actions
        if not action.option_strings
    ]


CASES = [
    (command, positionals(parser), flag, value)
    for command, parser, flag, declared, _ in knob_actions()
    for value in bad_values(declared)
]


def test_every_typed_knob_has_cases():
    typed = {
        flag
        for flag, declared in KNOBS.items()
        if {"type", "choices"} & set(declared.metadata)
    }
    assert typed == {flag for _, _, flag, _ in CASES}


@pytest.mark.parametrize(
    "command, places, flag, value",
    CASES,
    ids=["%s%s=%s" % (case[0], case[2], case[3]) for case in CASES],
)
def test_bad_knob_value_is_a_usage_error(command, places, flag, value, capsys):
    """Exit 2 from the parser: one ``error:`` line naming the flag,
    nothing on stdout, no traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main([command] + places + [flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "error: argument %s" % flag in errors[0]
    assert "Traceback" not in captured.err
