"""The run-time knob set is declared once: RuntimeConfig / ServiceConfig.

Pins the three promises of that declaration: the CLI and the API share
every default, each cross-field rule is a typed error raised where the
config is built, and the keyword and config spellings of the public
boundaries construct the same thing.
"""

import argparse
import dataclasses
import json

import pytest

from repro.cli import build_parser
from repro.runtime import (
    RuntimeConfig,
    RuntimeConfigError,
    ServiceConfig,
    build_context,
    cli_flag,
    config_reference,
)
from repro.server import QueryRequest, QueryService
from repro.server.protocol import canonical_json
from repro.spark.faults import FaultRule, FaultScheduler


def exposed_knobs():
    """(subcommand, config class, field, argparse action) for every knob
    some subcommand exposes as a flag."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    found = []
    for command, parser in subparsers.choices.items():
        by_flag = {
            flag: action
            for action in parser._actions
            for flag in action.option_strings
        }
        configs = [RuntimeConfig]
        if "--pool" in by_flag:  # the serving subcommands
            configs.append(ServiceConfig)
        for cls in configs:
            for knob in dataclasses.fields(cls):
                if cli_flag(knob) in by_flag:
                    found.append((command, cls, knob, by_flag[cli_flag(knob)]))
    return found


EXPOSED = exposed_knobs()


@pytest.mark.parametrize(
    "cls, knob, action",
    [case[1:] for case in EXPOSED],
    ids=["%s%s" % (case[0], cli_flag(case[2])) for case in EXPOSED],
)
def test_cli_default_equals_config_default(cls, knob, action):
    default = action.default
    if cli_flag(knob).startswith("--no-"):
        default = not default
    assert default == getattr(cls(), knob.name)


def test_every_flagged_knob_is_exposed_somewhere():
    flagged = {
        cli_flag(knob)
        for cls in (RuntimeConfig, ServiceConfig)
        for knob in dataclasses.fields(cls)
        if cli_flag(knob)
    }
    assert flagged == {cli_flag(case[2]) for case in EXPOSED}


class TestCrossFieldRules:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RuntimeConfig(views=True),
            lambda: RuntimeConfig(route_engines=["SPARQLGX"]),
            lambda: ServiceConfig(pool_size=0),
            lambda: ServiceConfig(default_deadline=0),
            lambda: ServiceConfig.from_knobs(enable_views=True),
        ],
        ids=[
            "views-need-optimize",
            "route-engines-need-route",
            "pool-positive",
            "deadline-positive",
            "enable-views-is-views",
        ],
    )
    def test_rule_raises_typed_error(self, build):
        with pytest.raises(RuntimeConfigError):
            build()

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (
                dict(optimize=True, optimizer_mode="zz"),
                "--optimizer-mode must be one of dp, greedy, parse, not 'zz'",
            ),
            (
                dict(backend="gpu"),
                "--backend must be one of inprocess, parallel, not 'gpu'",
            ),
            (
                dict(optimize=True, views=True, view_threshold=2.0),
                "--view-threshold must be a selectivity factor between 0 "
                "and 1",
            ),
            (
                dict(view_threshold=-0.5),
                "--view-threshold must be a selectivity factor between 0 "
                "and 1",
            ),
        ],
        ids=[
            "unknown-mode",
            "unknown-backend",
            "threshold-over",
            "threshold-under",
        ],
    )
    def test_declared_choices_and_ranges_bind_the_api(self, knobs, message):
        """What the parser refuses, an API-built config refuses too,
        naming the flag -- not a bare ValueError from the planner or the
        view catalog later."""
        with pytest.raises(RuntimeConfigError) as excinfo:
            RuntimeConfig(**knobs)
        assert str(excinfo.value) == message

    def test_valid_combinations_construct(self):
        config = RuntimeConfig(
            optimize=True, views=True, route=True, route_engines=["S2RDF"]
        )
        assert config.route_engines == ("S2RDF",)
        assert RuntimeConfig(route=True, route_engines=[]).route_engines is None

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeConfig().parallelism = 8

    @pytest.mark.parametrize(
        "call",
        [
            lambda graph: build_context(paralelism=2),
            lambda graph: ServiceConfig.from_knobs(pool=3),
            lambda graph: QueryService(graph, no_such_knob=1),
            lambda graph: QueryService(graph, ServiceConfig(), pool_size=1),
        ],
        ids=["build_context", "from_knobs", "service", "config-and-knobs"],
    )
    def test_unknown_or_doubled_knobs_are_type_errors(self, call, lubm_graph):
        with pytest.raises(TypeError):
            call(lubm_graph)


class TestFaultSchedules:
    def test_build_context_uses_a_passed_scheduler_as_is(self):
        scheduler = FaultScheduler([FaultRule("fail", times=1)])
        assert build_context(faults=scheduler).faults is scheduler

    def test_fresh_contexts_get_equivalent_forks(self):
        scheduler = FaultScheduler([FaultRule("fail", times=1)])
        config = RuntimeConfig(faults=scheduler)
        first, second = config.context(fresh=True), config.context(fresh=True)
        assert first.faults is not scheduler
        assert first.faults is not second.faults
        assert RuntimeConfig().fresh_faults() is None
        assert RuntimeConfig(faults="fail:p=0.5;seed=3").fresh_faults()


SCRIPT = [
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }",
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?p WHERE { ?s lubm:advisor ?p . ?p lubm:worksFor ?d }",
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?d WHERE { ?s lubm:memberOf ?d }",
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?t WHERE { ?s lubm:memberOf ?d . ?t lubm:teacherOf ?c }",
    "SELECT ?s WHERE { ?s ?p",
    "PREFIX lubm: <http://repro.example.org/lubm#>"
    " SELECT ?s ?n WHERE { ?s lubm:memberOf ?d . ?s lubm:name ?n }",
]


def replay(service):
    responses = [
        service.submit(QueryRequest(text, id="q%d" % index)).to_response()
        for index, text in enumerate(SCRIPT)
    ]
    return canonical_json(responses), json.dumps(service.stats(), sort_keys=True)


def test_keyword_and_config_spellings_serve_identically(lubm_graph):
    by_knobs = QueryService(
        lubm_graph,
        engine="S2RDF",
        pool_size=1,
        default_deadline=10**9,
        optimize=True,
        enable_views=True,
        route=True,
    )
    by_config = QueryService(
        lubm_graph,
        ServiceConfig(
            engine="S2RDF",
            pool_size=1,
            default_deadline=10**9,
            runtime=RuntimeConfig(optimize=True, views=True, route=True),
        ),
    )
    assert by_knobs.config == by_config.config
    assert replay(by_knobs) == replay(by_config)


def test_docs_configuration_table_is_generated_from_the_fields():
    with open("docs/ARCHITECTURE.md", "r", encoding="utf-8") as handle:
        assert config_reference() in handle.read()
