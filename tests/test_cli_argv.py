"""Every non-knob flag and file argument fails as README's exit-code
table says: exit 2, one ``error:`` line, no traceback.

The cases are computed from ``build_parser()``, as tests/test_cli_knobs.py
computes the knob cases: a typed flag gets the values its type refuses,
a file argument (known by its ``dest``) a missing path, a directory and
a malformed file, an output argument a directory.  A subcommand or flag
added with one of these dests is covered without editing this file.
"""

import argparse
import json

import pytest

from repro.cli import main
from repro.rdf.ntriples import save_ntriples_file
from repro.stats import StatsCatalog

from tests.test_cli_knobs import KNOBS, positionals, subcommands

SELECT_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }"
)
CONSTRUCT_QUERY = (
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " CONSTRUCT { ?s lubm:memberOf ?d } WHERE { ?s lubm:memberOf ?d }"
)
SHAPES = "examples/shapes/lubm_clean.json"

#: Input files by dest, each with the malformed contents it is given.
INPUTS = {
    "data": {
        "bad.nt": "<a> <b> this is not N-Triples\n",
        "bad.ttl": "@prefix : <x> .\n:a :b ;;; ] .\n",
    },
    "shapes": {"bad.json": "{not json\n"},
    "stats": {"bad.json": "{not json\n"},
    "input": {"bad.jsonl": "{not json\n"},
}
#: Output files by dest (``--json`` is an output where it takes a value).
OUTPUTS = {"json", "report", "trace", "output", "path"}
#: What a subcommand needs beyond its positionals to finish quickly.
EXTRA = {"loadtest": ["--smoke"]}


def refuses(kind, value: str) -> bool:
    try:
        kind(value)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return True
    return False


def options():
    """(subcommand, subparser, flag, action) of every non-knob option."""
    return [
        (command, parser, action.option_strings[0], action)
        for command, parser in subcommands()
        for action in parser._actions
        if action.option_strings
        and not set(action.option_strings) & set(KNOBS)
    ]


def typed_cases():
    """A non-numeric value, 0 and -1, each where the flag's type refuses
    it.  Never a huge number: no count here may size a pool."""
    return [
        (command, flag, value)
        for command, _, flag, action in options()
        if action.type is not None
        for value in ("x", "0", "-1")
        if refuses(action.type, value)
    ]


def file_arguments(dests):
    """(subcommand, dest, flag or None for a positional) of every
    argument whose dest is in *dests* and that takes a value."""
    return [
        (command, action.dest, (action.option_strings or [None])[0])
        for command, parser in subcommands()
        for action in parser._actions
        if action.dest in dests and action.nargs != 0
    ]


@pytest.fixture(scope="module")
def files(tmp_path_factory, lubm_graph):
    """Valid and broken files in one directory, by name."""
    root = tmp_path_factory.mktemp("argv")
    save_ntriples_file(str(root / "data.nt"), lubm_graph)
    for contents in INPUTS.values():
        for name, text in contents.items():
            (root / name).write_text(text)
    (root / "dir").mkdir()
    return root


def argv_for(command, files, dest=None, flag=None, value=None):
    """A runnable argv of *command* over the valid files, with *dest*'s
    positional, or else the option *flag*, set to *value*."""
    parser = dict(subcommands())[command]
    valid = {
        "data": str(files / "data.nt"),
        "query": CONSTRUCT_QUERY if command == "harvest" else SELECT_QUERY,
        "queries": SELECT_QUERY,
        "shapes": SHAPES,
        "path": str(files / "out.nt"),
    }
    argv = [command]
    for action in parser._actions:
        if not action.option_strings:
            if action.dest == dest:
                argv.append(value)
            else:
                argv.append(valid.get(action.dest) or action.choices[0])
    argv += EXTRA.get(command, [])
    if flag is not None:
        argv += [flag, value]
    return argv


def run(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``; a parser error
    exits through ``SystemExit``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, err):
    assert code == 2
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


TYPED = typed_cases()


def test_every_typed_option_has_cases():
    typed = {
        (command, flag)
        for command, _, flag, action in options()
        if action.type is not None
    }
    assert typed == {(command, flag) for command, flag, _ in TYPED}
    # The counts refuse what is not positive; --think allows 0.
    assert ("loadtest", "--clients", "0") in TYPED
    assert ("loadtest", "--think", "0") not in TYPED
    assert ("loadtest", "--think", "-1") in TYPED


@pytest.mark.parametrize(
    "command, flag, value",
    TYPED,
    ids=["%s%s=%s" % case for case in TYPED],
)
def test_bad_option_value_is_a_usage_error(command, flag, value, capsys):
    """The parser's own error, naming the flag; nothing on stdout."""
    places = positionals(dict(subcommands())[command])
    code, out, err = run([command] + places + [flag, value], capsys)
    assert_usage_error(code, err)
    assert "error: argument %s" % flag in err
    assert out == ""


INPUT_CASES = [
    (command, dest, flag, bad)
    for command, dest, flag in file_arguments(INPUTS)
    for bad in ["missing-" + min(INPUTS[dest]), "dir"] + sorted(INPUTS[dest])
]


def test_every_input_argument_has_cases():
    """The data, shapes, stats and request-file arguments of every
    subcommand that reads one."""
    covered = {(command, dest) for command, dest, _, _ in INPUT_CASES}
    assert {dest for _, dest in covered} == set(INPUTS)
    assert ("lint", "data") in covered and ("serve", "input") in covered


@pytest.mark.parametrize(
    "command, dest, flag, bad",
    INPUT_CASES,
    ids=["%s-%s-%s" % (c, d, b) for c, d, _, b in INPUT_CASES],
)
def test_unusable_input_file_is_a_usage_error(
    command, dest, flag, bad, files, capsys
):
    argv = argv_for(command, files, dest, flag, str(files / bad))
    code, out, err = run(argv, capsys)
    if (dest, bad) == ("input", "bad.jsonl"):
        # A malformed request line is answered, and the loop reads on
        # (docs/SERVER.md): one error response, exit 0.
        assert code == 0 and "error:" not in err and "Traceback" not in err
        assert [json.loads(line)["status"] for line in out.splitlines()] == [
            "error"
        ]
        return
    assert_usage_error(code, err)


OUTPUT_CASES = file_arguments(OUTPUTS)


def test_every_output_argument_has_cases():
    assert {dest for _, dest, _ in OUTPUT_CASES} == OUTPUTS
    assert len(OUTPUT_CASES) >= 8


@pytest.mark.parametrize(
    "command, dest, flag",
    OUTPUT_CASES,
    ids=["%s-%s" % (c, d) for c, d, _ in OUTPUT_CASES],
)
def test_output_to_a_directory_is_a_usage_error(
    command, dest, flag, files, capsys
):
    argv = argv_for(command, files, dest, flag, str(files / "dir"))
    code, _, err = run(argv, capsys)
    assert_usage_error(code, err)
    assert "cannot write" in err


STATS_SHAPES = {
    "list": lambda payload: [],
    "null": lambda payload: None,
    "string": lambda payload: "catalog",
    "totals-list": lambda payload: {**payload, "totals": []},
    "predicates-list": lambda payload: {**payload, "predicates": [1]},
    "sets-of-ints": lambda payload: {**payload, "characteristic_sets": [1]},
}


@pytest.mark.parametrize("shape", sorted(STATS_SHAPES))
def test_a_stats_file_that_is_no_catalog_is_a_usage_error(
    shape, lubm_graph, tmp_path, capsys
):
    """Valid JSON of the wrong shape: a non-object raised AttributeError
    in ``StatsCatalog.from_payload`` and a wrong member type TypeError or
    AttributeError, both out of ``lint --stats`` as a traceback."""
    path = tmp_path / "stats.json"
    catalog = StatsCatalog.from_graph(lubm_graph)
    payload = STATS_SHAPES[shape](catalog.to_payload())
    path.write_text(json.dumps(payload))
    code, _, err = run(["lint", SELECT_QUERY, "--stats", str(path)], capsys)
    assert_usage_error(code, err)
    assert err.startswith("error: cannot load stats catalog: ")
