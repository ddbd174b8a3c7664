"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Print the regenerated Figure 1 taxonomy and Tables I/II.
``survey``
    Print the per-system survey report (Section IV, generated from the
    engine profiles).
``query DATA QUERY [--engine NAME] [--trace FILE]``
    Run a SPARQL query file (or literal) against an RDF file (N-Triples
    ``.nt`` or Turtle ``.ttl``) on a chosen engine; prints the solutions
    and the measured cost.  ``--trace FILE`` writes the execution trace
    (per-span metric deltas) as JSON.
``explain DATA QUERY [--engine NAME ...]``
    Print a per-operator cost tree for the query on each engine (three
    engines with distinct cost profiles by default).
``assess DATA [--trace FILE]``
    Run the cross-system assessment matrix on an RDF file.
``generate {lubm,watdiv} PATH``
    Write a synthetic dataset to an N-Triples file.
``serve DATA [--engine NAME] [--pool N] [--input FILE]``
    Run the query service as a JSON-lines request loop (stdin by
    default): plan/result caching, graph-version commits, per-query
    cost-unit deadlines.  See docs/SERVER.md for the protocol.
``loadtest DATA [--clients N] [--seed N] [--report FILE] [--smoke]``
    Drive the service with the closed-loop load generator and print the
    byte-reproducible throughput/latency/cache report.
``stats DATA [--json FILE]``
    Compute the statistics catalog (per-predicate counts, characteristic
    sets, pair selectivities) for an RDF file; print a summary and
    optionally write the deterministic catalog JSON.
``lint QUERY... [--data FILE | --stats FILE] [--deadline UNITS] [--json]``
    Statically analyze SPARQL queries without executing them
    (:mod:`repro.analysis.query`): cartesian products, never-bound
    projections, unsatisfiable filters, and -- when statistics are
    supplied via ``--data`` or ``--stats`` -- unknown predicates,
    cost-over-deadline, and broadcast-threshold misuse.
    ``lint --closures PATH...`` instead treats the positional arguments
    as Python sources and runs the closure analyzer (same as
    ``analyze``).
``analyze PATH... [--json]``
    Statically analyze Python sources for worker-boundary closure
    violations (:mod:`repro.analysis.closures`, rules CL000..CL007):
    driver-object capture, shared-state mutation inside worker code,
    accumulator reads in transformations, broadcast mutation, unpickled
    exception types, loop-variable capture, global writes, and calls
    into guilty helpers.  Exit 0 clean / 4 warnings / 5 errors.
``views DATA {build,list,stats} [--view-threshold F] [--json FILE]``
    Materialize the ExtVP view catalog for an RDF file (S2RDF semi-join
    reduction tables, selected by selectivity threshold): print its
    headline numbers (``build``/``stats``), the per-view table
    (``list``), and optionally write the deterministic catalog JSON.
    See docs/VIEWS.md.
``route DATA QUERY [--engine NAME ...] [--json]``
    Show where the adaptive routing policy (:mod:`repro.routing`) would
    dispatch a query without executing it: its shape, the priced bid of
    every fragment-eligible candidate engine, and the exclusions.  See
    docs/ROUTING.md.
``validate DATA SHAPES [--remote] [--json] [--report FILE]``
    Validate an RDF file against a SHACL-lite shapes file (JSON): the
    shape set compiles to SPARQL target/constraint queries, each
    submitted to the query service as its own billed request, folded
    into a byte-deterministic conformance report.  ``--remote`` runs
    remote-first: harvest the shape-relevant subgraph through the wire
    protocol, validate the local copy.  Exit 0 when the data conforms,
    1 when it does not.  See docs/SHACL.md.
``harvest DATA QUERY [--page-size N] [--output FILE] [--json]``
    Page a CONSTRUCT query out of an in-process wire endpoint (LIMIT/
    OFFSET over the protocol's totally-ordered graph wire form) into a
    local version-tagged subgraph; print the triples or the harvest
    record.  See docs/FEDERATION.md.

``serve`` and ``loadtest`` accept ``--route`` (plus ``--route-engines``)
to replace the fixed ``--engine`` with the adaptive per-shape ensemble:
each admitted query is dispatched to the engine the calibrated policy
prices cheapest, and observed cost units feed the calibration back.
``explain`` accepts the same pair to prepend the ``routing:`` decision
block, and ``--shapes FILE`` to prepend the ``shacl:`` compiled-query
inventory.  ``loadtest --shape-mix`` swaps the uniform workload for the
shape-stratified one (plus per-tenant shape emphasis);
``loadtest --workload {uniform,shape,shacl,federated}`` also offers the
validation fan-out and paged-harvest workload families.

Every knob flag (``--optimize``, ``--backend``, ``--faults``, ``--pool``
...) is declared by its :class:`~repro.runtime.RuntimeConfig` or
:class:`~repro.runtime.ServiceConfig` field, meaning included, and added
here by ``_add_knobs``; README.md's generated CLI reference lists which
subcommand takes which.

Exit codes (the full table lives in README.md): 0 success / clean lint
/ conformant ``validate``; 1 failed ``assess``/``claims`` checks or a
non-conformant ``validate``; 2 unusable inputs (bad ``--faults`` spec,
unknown engine, unreadable data/query/stats/shapes file, malformed or
unsupported query); 3 when a
fault schedule exhausts ``--max-task-attempts``; 4 lint/``analyze``
found warnings only, or ``--verify-closures`` rejected a submitted
closure; 5 lint/``analyze`` found errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from repro._gc import paused_collector
from repro.bench.reporting import format_table
from repro.defaults import DEFAULT_PAGE_SIZE, DEFAULT_VIEW_THRESHOLD
from repro.runtime import (
    RuntimeConfig,
    RuntimeConfigError,
    ServiceConfig,
    cli_flag,
    load_graph,
    write_text,
)


def _config_from_args(cls, args, **fixed):
    """A config of type *cls* from the argparse namespace.

    Every knob is read under the ``dest`` of its CLI flag
    (:func:`repro.runtime.cli_flag`; ``--no-X`` flags store the knob
    inverted); knobs the subcommand does not expose keep their default.
    """
    values = dict(fixed)
    for knob in dataclasses.fields(cls):
        flag = cli_flag(knob)
        dest = flag[2:].replace("-", "_") if flag else None
        if dest is not None and hasattr(args, dest):
            value = getattr(args, dest)
            values[knob.name] = (
                not value if flag.startswith("--no-") else value
            )
    return cls(**values)


def _write_ntriples(path: str, triples) -> int:
    """``save_ntriples_file``'s bytes, streamed through ``write_text`` so
    an unwritable path is a typed error; returns the number written."""
    items = sorted(triples)
    write_text(path, (triple.n3() + "\n" for triple in items))
    return len(items)


def cmd_tables(_args) -> int:
    from repro.core import render_table_i, render_table_ii, render_taxonomy

    print(render_taxonomy())
    print()
    print(render_table_i())
    print()
    print(render_table_ii())
    return 0


def cmd_survey(_args) -> int:
    from repro.core.survey import render_survey

    print(render_survey())
    return 0


def cmd_claims(_args) -> int:
    from repro.core.claims import build_default_assessment

    assessment = build_default_assessment()
    report = assessment.report()
    print(report)
    return 0 if "DOES NOT HOLD" not in report else 1


def _read_query_arg(query_arg: str) -> str:
    if os.path.exists(query_arg):
        try:
            with open(query_arg, "r", encoding="utf-8") as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise RuntimeConfigError(
                "cannot read query file %r: %s" % (query_arg, exc)
            ) from exc
    return query_arg


@paused_collector()
def cmd_query(args) -> int:
    """Load, build, execute and render as one unit of work, the
    collector paused throughout (docs/ARCHITECTURE.md, "The cyclic
    collector"); the pauses of ``load`` and ``execute`` nest inside."""
    from repro.sparql.results import SolutionSet

    config = _config_from_args(RuntimeConfig, args)
    engine = config.engine(args.engine, load_graph(args.data))
    text = _read_query_arg(args.query)
    try:
        run = engine.measure(text, trace=bool(args.trace))
    except Exception as exc:
        code = _report_typed(exc)
        if code is not None:
            return code
        # Anything else is a fault of the engine's own: one line, exit 3.
        print(
            "error: %s raised %s: %s"
            % (engine.profile.name, type(exc).__name__, exc),
            file=sys.stderr,
        )
        return 3
    result, cost, sc = run.answer, run.cost, engine.ctx
    if args.trace:
        from repro.explain import run_record, write_trace_file

        record = run_record(engine.profile.name, "query", cost, run.spans)
        write_trace_file(args.trace, [record])
    if isinstance(result, SolutionSet):
        headers = ["?" + v for v in result.variables]
        print(format_table(headers, result.to_table()))
        print("%d solution(s)" % run.rows)
    elif isinstance(result, bool):
        print("yes" if result else "no")
    else:  # CONSTRUCT / DESCRIBE -> a graph
        for triple in result.to_list():
            print(triple.n3())
        print("%d triple(s)" % run.rows)
    print(
        "cost: scanned=%d shuffled=%d remote=%d comparisons=%d"
        % (
            cost.records_scanned,
            cost.shuffle_records,
            cost.shuffle_remote_records,
            cost.join_comparisons,
        )
    )
    if sc.faults is not None:
        total = sc.metrics.snapshot()
        print(
            "recovery: failed=%d retried=%d recomputed=%d speculative=%d"
            % (
                total.tasks_failed,
                total.tasks_retried,
                total.partitions_recomputed,
                total.speculative_launches,
            )
        )
    if args.trace:
        print("trace written to %s" % args.trace)
    return 0


def cmd_explain(args) -> int:
    from repro.explain import DEFAULT_EXPLAIN_ENGINES, explain

    config = _config_from_args(RuntimeConfig, args)
    graph = load_graph(args.data)
    query_text = _read_query_arg(args.query)
    shapes = _load_shapes_arg(args.shapes) if args.shapes else None
    engines = args.engine or DEFAULT_EXPLAIN_ENGINES
    print(explain(graph, query_text, engines, config, shapes=shapes))
    return 0


def _load_shapes_arg(path: str):
    """Load a shapes file (ShaclError -> exit 2, like other bad inputs)."""
    from repro.shacl import load_shapes_file

    return load_shapes_file(path)


def cmd_validate(args) -> int:
    from repro.shacl import ShaclValidator, ServiceExecutor

    shapes = _load_shapes_arg(args.shapes)
    if args.remote:
        from repro.federation import WireEndpoint, validate_remote_first

        endpoint = WireEndpoint(_build_service(args))
        report, subgraph = validate_remote_first(
            endpoint, shapes, page_size=args.page_size
        )
    else:
        service = _build_service(args)
        report = ShaclValidator(ServiceExecutor(service)).validate(shapes)
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.render())
    if args.report:
        write_text(args.report, report.to_json())
        print("report written to %s" % args.report)
    return 0 if report.conforms else 1


def cmd_harvest(args) -> int:
    from repro.federation import HarvestError, Subgraph, WireEndpoint

    endpoint = WireEndpoint(_build_service(args))
    subgraph = Subgraph(endpoint, page_size=args.page_size)
    query_text = _read_query_arg(args.query)
    try:
        record = subgraph.harvest(query_text, id="cli")
    except ValueError as exc:
        raise RuntimeConfigError(str(exc))
    except HarvestError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(record.to_payload(), indent=2, sort_keys=True))
    else:
        print(
            "harvested %d triple(s) (%d new) in %d page(s) of %d "
            "at remote version %d (%d remote unit(s))"
            % (
                record.triples,
                record.new_triples,
                record.pages,
                subgraph.page_size,
                record.remote_version,
                record.units,
            )
        )
    if args.output:
        written = _write_ntriples(args.output, subgraph.head())
        print("wrote %d triple(s) to %s" % (written, args.output))
    elif not args.json:
        for line in sorted(t.n3() for t in subgraph.head().to_list()):
            print(line)
    return 0


def cmd_route(args) -> int:
    import json

    from repro.routing import RoutingPolicy

    config = _config_from_args(RuntimeConfig, args)
    graph = load_graph(args.data)
    query_text = _read_query_arg(args.query)
    policy = RoutingPolicy.for_graph(
        graph,
        engines=args.engine or None,
        mode=config.optimizer_mode,
        broadcast_threshold=config.broadcast_threshold,
    )
    decision = policy.decide(query_text)
    if args.json:
        print(json.dumps(decision.to_payload(), indent=2, sort_keys=True))
    else:
        print(decision.render())
    return 0


def cmd_stats(args) -> int:
    from repro.stats import StatsCatalog

    graph = load_graph(args.data)
    catalog = StatsCatalog.from_graph(graph)
    summary = catalog.summary()
    rows = [[name, summary[name]] for name in sorted(summary)]
    print(format_table(["statistic", "value"], rows))
    top = sorted(
        catalog.predicates.items(), key=lambda item: (-item[1].count, item[0])
    )[:10]
    print()
    print(
        format_table(
            ["predicate", "count", "distinct subj", "distinct obj"],
            [
                [n3, stats.count, stats.distinct_subjects, stats.distinct_objects]
                for n3, stats in top
            ],
        )
    )
    if args.json:
        write_text(args.json, catalog.to_json())
        print("catalog written to %s" % args.json)
    return 0


def cmd_assess(args) -> int:
    from repro.bench import BenchRun
    from repro.data.lubm import LubmGenerator
    from repro.systems import ALL_ENGINE_CLASSES, NaiveEngine

    bench = BenchRun(
        load_graph(args.data), _config_from_args(RuntimeConfig, args)
    )
    queries = {
        "star": LubmGenerator.query_star(),
        "linear": LubmGenerator.query_linear(),
        "snowflake": LubmGenerator.query_snowflake(),
        "complex": LubmGenerator.query_complex(),
    }
    results = bench.run(
        (NaiveEngine,) + ALL_ENGINE_CLASSES, queries, trace=bool(args.trace)
    )
    if args.trace:
        from repro.explain import run_record, write_trace_file

        write_trace_file(
            args.trace,
            [
                run_record(r.engine, r.query, r.metrics, r.trace or [])
                for r in results
            ],
        )
        print("trace written to %s" % args.trace)
    rows = [
        [
            r.engine,
            r.query,
            r.rows,
            "ok" if r.correct else ("-" if r.correct is None else "WRONG"),
            r.cost_summary()["records_scanned"],
            r.cost_summary()["shuffle_records"],
        ]
        for r in results
    ]
    print(
        format_table(
            ["engine", "query", "rows", "answers", "scanned", "shuffled"],
            rows,
        )
    )
    return 1 if bench.incorrect() else 0


def cmd_analyze(args) -> int:
    from repro.analysis.closures import check_paths

    for path in args.paths:
        if not os.path.exists(path):
            print("error: cannot read path: %s" % path, file=sys.stderr)
            return 2
    try:
        report = check_paths(args.paths)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.render())
    return report.exit_code()


def cmd_lint(args) -> int:
    from repro.analysis import lint_text, merge_reports
    from repro.stats import StatsCatalog

    config = _config_from_args(RuntimeConfig, args)
    if args.closures:
        if args.data or args.stats or args.deadline is not None:
            print(
                "error: --closures takes Python paths only (no --data, "
                "--stats, or --deadline)",
                file=sys.stderr,
            )
            return 2
        args.paths = args.queries
        return cmd_analyze(args)
    catalog = None
    if args.data and args.stats:
        print(
            "error: --data and --stats are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.data:
        catalog = StatsCatalog.from_graph(load_graph(args.data))
    elif args.stats:
        try:
            with open(args.stats, "r", encoding="utf-8") as handle:
                catalog = StatsCatalog.from_json(handle.read())
        except (OSError, ValueError) as exc:
            print(
                "error: cannot load stats catalog: %s" % exc, file=sys.stderr
            )
            return 2
    reports = []
    for position, query_arg in enumerate(args.queries):
        if os.path.exists(query_arg):
            subject, text = query_arg, _read_query_arg(query_arg)
        elif query_arg.endswith((".rq", ".sparql")):
            # A query *file* that is missing is an input error, not a
            # parse error in a literal query.
            print(
                "error: cannot read query file: %s" % query_arg,
                file=sys.stderr,
            )
            return 2
        else:
            subject, text = "arg%d" % (position + 1), query_arg
        reports.append(
            lint_text(
                text,
                subject=subject,
                catalog=catalog,
                deadline=args.deadline,
                broadcast_threshold=config.broadcast_threshold,
                mode=config.optimizer_mode,
            )
        )
    merged = merge_reports("query-lint", reports)
    if args.json:
        sys.stdout.write(merged.to_json())
    else:
        print(merged.render())
    return merged.exit_code()


def _build_service(args):
    """Construct the QueryService every serving subcommand shares."""
    from repro.server import QueryService

    config = _config_from_args(
        ServiceConfig, args, runtime=_config_from_args(RuntimeConfig, args)
    )
    return QueryService(load_graph(args.data), config)


def cmd_serve(args) -> int:
    from repro.server import serve_lines

    service = _build_service(args)
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                processed = serve_lines(service, handle, sys.stdout)
        except (OSError, UnicodeDecodeError) as exc:
            print(
                "error: cannot read request file: %s" % exc, file=sys.stderr
            )
            return 2
    else:
        processed = serve_lines(service, sys.stdin, sys.stdout)
    print(
        "served %d request(s) on %s (version %d)"
        % (processed, service.config.engine, service.version),
        file=sys.stderr,
    )
    return 0


def cmd_loadtest(args) -> int:
    from repro.server import (
        LoadGenerator,
        build_federated_workload,
        build_shacl_workload,
        build_shape_workload,
        build_workload,
        grouped_tenant_profiles,
    )

    workload_kind = args.workload
    if args.shape_mix:
        if args.workload != "uniform":
            raise RuntimeConfigError(
                "--shape-mix conflicts with --workload; "
                "use --workload shape instead"
            )
        workload_kind = "shape"
    if args.smoke:
        args.clients = min(args.clients, 4)
        args.requests = min(args.requests, 2)
        args.queries = min(args.queries, 4)
    service = _build_service(args)
    graph = service.versions.head()
    if workload_kind == "shape":
        workload = build_shape_workload(
            graph, per_shape=max(1, args.queries // 5), seed=args.seed
        )
    elif workload_kind == "shacl":
        workload = build_shacl_workload(graph, seed=args.seed)
    elif workload_kind == "federated":
        workload = build_federated_workload(graph, seed=args.seed)
    else:
        workload = build_workload(graph, size=args.queries, seed=args.seed)
    profiles = None
    if workload_kind != "uniform":  # which has no families to prefer
        profiles = grouped_tenant_profiles(workload, args.tenants)
    generator = LoadGenerator(
        service,
        workload,
        clients=args.clients,
        tenants=args.tenants,
        requests_per_client=args.requests,
        think_units=args.think,
        seed=args.seed,
        deadline=args.deadline,
        tenant_profiles=profiles,
    )
    report = generator.run()
    payload = report.to_payload()
    rows = [
        ["submitted", payload["totals"]["submitted"]],
        ["completed", payload["totals"]["completed"]],
        ["ok", payload["totals"]["ok"]],
        ["rejected", payload["totals"]["rejected"]],
        ["lint rejected", payload["totals"]["lint_rejected"]],
        ["deadline aborts", payload["totals"]["deadline_aborts"]],
        ["p50 latency (units)", payload["latency_units"]["p50"]],
        ["p95 latency (units)", payload["latency_units"]["p95"]],
        ["p99 latency (units)", payload["latency_units"]["p99"]],
        ["throughput (/kilounit)", payload["throughput_per_kilounit"]],
        ["result-cache hit rate", payload["cache"]["result_hit_rate"]],
        ["max queue depth", payload["queue"]["max_depth"]],
    ]
    print(format_table(["metric", "value"], rows))
    if payload["totals"]["rejected"]:
        print(
            "queue rejections by tenant: "
            + ", ".join(
                "%s=%d" % (tenant, entry["queue_rejected"])
                for tenant, entry in sorted(payload["tenants"].items())
                if entry["queue_rejected"]
            )
        )
    if args.report:
        write_text(args.report, report.to_json())
        print("report written to %s" % args.report)
    return 0


def cmd_generate(args) -> int:
    if args.kind == "lubm":
        from repro.data.lubm import LubmGenerator

        graph = LubmGenerator(
            num_universities=args.scale, seed=args.seed
        ).generate()
    else:
        from repro.data.watdiv import WatdivGenerator

        graph = WatdivGenerator(
            num_users=30 * args.scale,
            num_products=15 * args.scale,
            seed=args.seed,
        ).generate()
    written = _write_ntriples(args.path, graph)
    print("wrote %d triples to %s" % (written, args.path))
    return 0


def cmd_views(args) -> int:
    from repro.stats import StatsCatalog
    from repro.views import ViewCatalog

    graph = load_graph(args.data)
    threshold = (
        DEFAULT_VIEW_THRESHOLD
        if args.view_threshold is None
        else args.view_threshold
    )
    catalog = ViewCatalog.build(
        graph, StatsCatalog.from_graph(graph), threshold=threshold
    )
    if args.action == "list":
        shown = catalog.sorted_views()[: args.limit]
        print(
            format_table(
                ["view", "kind", "rows", "factor"],
                [
                    [view.name, view.kind, len(view), round(view.factor, 6)]
                    for view in shown
                ],
            )
        )
        remaining = len(catalog) - len(shown)
        if remaining > 0:
            print("... and %d more view(s) (raise --limit)" % remaining)
    else:  # build | stats -- the headline numbers
        summary = catalog.summary()
        rows = [[name, summary[name]] for name in sorted(summary)]
        print(format_table(["statistic", "value"], rows))
    if args.json:
        write_text(args.json, catalog.to_json())
        print("view catalog written to %s" % args.json)
    return 0


def _add_data_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data", help="RDF file (.nt or .ttl)")


#: The knob groups several subcommands share, each in flag order.
_OPTIMIZER = (
    "optimize",
    "optimizer_mode",
    "broadcast_threshold",
    "views",
    "view_threshold",
)
_ROUTING = ("route", "route_engines")
_FAULTS = ("faults", "max_task_attempts", "speculation")
_BACKEND = ("backend", "workers", "verify_closures")
_SERVICE = (
    "pool_size",
    "queue_limit",
    "default_deadline",
    "enable_plan_cache",
    "enable_result_cache",
    "lint_admission",
)


def _add_knobs(parser: argparse.ArgumentParser, cls, *names, **override):
    """Add the flag of each knob *names* of *cls* as its field declares
    it (:func:`repro.runtime.knob`); a switch keeps argparse's ``False``
    default.  *override* replaces declared settings, for an option spelled
    like a knob that means something else to one subcommand
    (``explain --engine`` names several engines)."""
    for name in names:
        declared = cls.__dataclass_fields__[name]
        settings = dict(declared.metadata)
        settings.pop("flag", None)
        if settings.get("action") != "store_true":
            settings["default"] = declared.default
        settings.update(override)
        parser.add_argument(cli_flag(declared), **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RDF query answering on a Spark-like substrate "
        "(ICDE 2018 review & assessment, reproduced).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "tables", help="print Figure 1 and Tables I/II"
    ).set_defaults(handler=cmd_tables)
    sub.add_parser(
        "survey", help="print the per-system survey report"
    ).set_defaults(handler=cmd_survey)
    sub.add_parser(
        "claims", help="check every performance claim of the paper"
    ).set_defaults(handler=cmd_claims)

    query = sub.add_parser("query", help="run a SPARQL query on a data file")
    query.set_defaults(handler=cmd_query)
    _add_data_argument(query)
    query.add_argument("query", help="SPARQL file or literal query text")
    _add_knobs(query, ServiceConfig, "engine")
    _add_knobs(query, RuntimeConfig, "parallelism")
    query.add_argument(
        "--trace",
        metavar="FILE",
        help="write the execution trace (JSON span tree) to FILE",
    )
    _add_knobs(query, RuntimeConfig, *_OPTIMIZER, *_FAULTS, *_BACKEND)

    explain = sub.add_parser(
        "explain",
        help="print a per-operator cost tree for a query on several engines",
    )
    explain.set_defaults(handler=cmd_explain)
    _add_data_argument(explain)
    explain.add_argument("query", help="SPARQL file or literal query text")
    _add_knobs(
        explain,
        ServiceConfig,
        "engine",
        action="append",
        default=None,
        help="engine to explain (repeatable; default: SPARQLGX, S2RDF, HAQWA)",
    )
    _add_knobs(explain, RuntimeConfig, "parallelism")
    explain.add_argument(
        "--shapes",
        metavar="FILE",
        help="SHACL-lite shapes file (JSON); prepends a 'shacl:' block "
        "inventorying the shape set's compiled validation queries and "
        "marking the explained query if it is one of them",
    )
    _add_knobs(
        explain, RuntimeConfig, *_OPTIMIZER, *_ROUTING, "verify_closures"
    )

    route = sub.add_parser(
        "route",
        help="show the adaptive routing decision for a query without "
        "executing it (see docs/ROUTING.md)",
    )
    route.set_defaults(handler=cmd_route)
    _add_data_argument(route)
    route.add_argument("query", help="SPARQL file or literal query text")
    _add_knobs(
        route,
        ServiceConfig,
        "engine",
        action="append",
        default=None,
        help="candidate engine for the pool (repeatable; default: the "
        "survey preference pool)",
    )
    route.add_argument(
        "--json",
        action="store_true",
        help="print the decision as deterministic JSON instead of text",
    )
    _add_knobs(route, RuntimeConfig, "optimizer_mode", "broadcast_threshold")

    assess = sub.add_parser(
        "assess", help="run the cross-system assessment on a data file"
    )
    assess.set_defaults(handler=cmd_assess)
    _add_data_argument(assess)
    _add_knobs(assess, RuntimeConfig, "parallelism")
    assess.add_argument(
        "--trace",
        metavar="FILE",
        help="write every run's execution trace (JSON) to FILE",
    )
    _add_knobs(assess, RuntimeConfig, *_FAULTS, *_BACKEND)

    generate = sub.add_parser(
        "generate", help="write a synthetic dataset to N-Triples"
    )
    generate.set_defaults(handler=cmd_generate)
    generate.add_argument("kind", choices=["lubm", "watdiv"])
    generate.add_argument("path")
    generate.add_argument("--scale", type=_positive_int, default=1)
    generate.add_argument("--seed", type=int, default=42)

    stats = sub.add_parser(
        "stats",
        help="compute the statistics catalog for a data file",
    )
    stats.set_defaults(handler=cmd_stats)
    _add_data_argument(stats)
    stats.add_argument(
        "--json",
        metavar="FILE",
        help="write the deterministic catalog JSON to FILE",
    )

    views = sub.add_parser(
        "views",
        help="materialize the ExtVP view catalog for a data file "
        "(see docs/VIEWS.md)",
    )
    views.set_defaults(handler=cmd_views)
    _add_data_argument(views)
    views.add_argument(
        "action",
        choices=["build", "list", "stats"],
        help="build/stats print the catalog's headline numbers, "
        "list the per-view table",
    )
    _add_knobs(views, RuntimeConfig, "view_threshold")
    views.add_argument(
        "--limit",
        type=_positive_int,
        default=20,
        metavar="N",
        help="views shown by the list action (default 20)",
    )
    views.add_argument(
        "--json",
        metavar="FILE",
        help="write the deterministic view-catalog JSON to FILE",
    )

    lint = sub.add_parser(
        "lint",
        help="statically analyze SPARQL queries without executing them",
    )
    lint.set_defaults(handler=cmd_lint)
    lint.add_argument(
        "queries",
        nargs="+",
        metavar="QUERY",
        help="SPARQL file or literal query text (repeatable)",
    )
    lint.add_argument(
        "--data",
        metavar="FILE",
        help="RDF file to derive a statistics catalog from (enables the "
        "statistics-backed rules QL004-QL006)",
    )
    lint.add_argument(
        "--stats",
        metavar="FILE",
        help="precomputed catalog JSON (from `repro stats --json`) "
        "instead of --data",
    )
    _add_knobs(
        lint,
        ServiceConfig,
        "default_deadline",
        help="cost-unit budget for the cost-over-deadline rule QL005",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="print the report as deterministic JSON instead of text",
    )
    lint.add_argument(
        "--closures",
        action="store_true",
        help="treat the positional arguments as Python files/directories "
        "and run the closure analyzer (CL000..CL007) instead of the "
        "SPARQL linter; equivalent to `repro analyze`",
    )
    _add_knobs(lint, RuntimeConfig, "optimizer_mode", "broadcast_threshold")

    analyze = sub.add_parser(
        "analyze",
        help="statically analyze Python sources for worker-boundary "
        "closure violations (CL000..CL007; see docs/ANALYSIS.md)",
    )
    analyze.set_defaults(handler=cmd_analyze)
    analyze.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="Python file or directory to check (repeatable)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the report as deterministic JSON instead of text",
    )

    serve = sub.add_parser(
        "serve",
        help="run the query service over JSON-lines requests "
        "(see docs/SERVER.md)",
    )
    serve.set_defaults(handler=cmd_serve)
    _add_data_argument(serve)
    serve.add_argument(
        "--input",
        metavar="FILE",
        help="read request lines from FILE instead of stdin",
    )
    _add_service_arguments(serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="drive the service with the closed-loop load generator",
    )
    loadtest.set_defaults(handler=cmd_loadtest)
    _add_data_argument(loadtest)
    for flag, default, text in (
        ("--clients", 8, "closed-loop clients"),
        ("--tenants", 2, "tenants clients spread over"),
        ("--requests", 8, "requests per client"),
        ("--queries", 6, "distinct workload queries"),
    ):
        loadtest.add_argument(
            flag, type=_positive_int, default=default, help=text
        )
    loadtest.add_argument(
        "--think",
        type=_non_negative_int,
        default=50,
        metavar="UNITS",
        help="max client think time between requests (cost units)",
    )
    loadtest.add_argument("--seed", type=int, default=42)
    loadtest.add_argument(
        "--report",
        metavar="FILE",
        help="write the full JSON report (BENCH_server.json style) to FILE",
    )
    loadtest.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fixed-size run for CI (caps clients/requests/queries)",
    )
    loadtest.add_argument(
        "--shape-mix",
        action="store_true",
        help="drive the shape-stratified workload (one batch of queries "
        "per shape) with per-tenant shape emphasis instead of the "
        "uniform workload (shorthand for --workload shape)",
    )
    loadtest.add_argument(
        "--workload",
        choices=["uniform", "shape", "shacl", "federated"],
        default="uniform",
        help="workload family: 'uniform' draws --queries mixed queries; "
        "'shape' is the shape-stratified mix; 'shacl' replays a "
        "validation fan-out (compiled shape queries + class probes); "
        "'federated' replays a harvester's paged CONSTRUCT pages "
        "(default uniform)",
    )
    _add_service_arguments(loadtest)

    validate = sub.add_parser(
        "validate",
        help="validate an RDF file against a SHACL-lite shapes file "
        "(see docs/SHACL.md)",
    )
    validate.set_defaults(handler=cmd_validate)
    _add_data_argument(validate)
    validate.add_argument(
        "shapes", help="SHACL-lite shapes file (JSON; see docs/SHACL.md)"
    )
    validate.add_argument(
        "--remote",
        action="store_true",
        help="remote-first: pair the data behind an in-process wire "
        "endpoint, harvest the shape-relevant subgraph page by page, "
        "and validate the local copy (see docs/FEDERATION.md)",
    )
    validate.add_argument(
        "--page-size",
        type=_positive_int,
        default=DEFAULT_PAGE_SIZE,
        metavar="N",
        help="triples per harvested CONSTRUCT page under --remote "
        "(default %d)" % DEFAULT_PAGE_SIZE,
    )
    validate.add_argument(
        "--json",
        action="store_true",
        help="print the byte-deterministic report JSON instead of text",
    )
    validate.add_argument(
        "--report",
        metavar="FILE",
        help="write the report JSON to FILE",
    )
    _add_service_arguments(validate)

    harvest = sub.add_parser(
        "harvest",
        help="page a CONSTRUCT query out of a paired wire endpoint into "
        "a local subgraph (see docs/FEDERATION.md)",
    )
    harvest.set_defaults(handler=cmd_harvest)
    _add_data_argument(harvest)
    harvest.add_argument(
        "query", help="CONSTRUCT query file or literal query text"
    )
    harvest.add_argument(
        "--page-size",
        type=_positive_int,
        default=DEFAULT_PAGE_SIZE,
        metavar="N",
        help="triples per CONSTRUCT page (default %d)" % DEFAULT_PAGE_SIZE,
    )
    harvest.add_argument(
        "--output",
        metavar="FILE",
        help="write the harvested triples as N-Triples to FILE "
        "(default: print them)",
    )
    harvest.add_argument(
        "--json",
        action="store_true",
        help="print the harvest record (pages, triples, version, units) "
        "as deterministic JSON instead of the triples",
    )
    _add_service_arguments(harvest)

    return parser


def _positive_int(value: str) -> int:
    """argparse type: a strictly positive integer."""
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def _non_negative_int(value: str) -> int:
    """argparse type: an integer that is zero or more."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return number


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Every knob of a served pool (``serve``, ``loadtest``, ``validate``,
    ``harvest``): the service's own, then the routing, optimizer, fault
    and backend groups."""
    _add_knobs(parser, ServiceConfig, "engine")
    _add_knobs(parser, RuntimeConfig, "parallelism")
    _add_knobs(parser, ServiceConfig, *_SERVICE)
    _add_knobs(
        parser, RuntimeConfig, *_ROUTING, *_OPTIMIZER, *_FAULTS, *_BACKEND
    )


def _raised(*names: str) -> tuple:
    """The typed errors called *names* (``module.Class``), for an
    ``isinstance`` test, read when a failure is being handled.  A class
    whose module was never imported is left out -- nothing can have
    raised it -- so no subsystem is loaded merely to name its errors.
    """
    homes = (name.rpartition(".") for name in names)
    return tuple(
        getattr(sys.modules[module], cls)
        for module, _dot, cls in homes
        if module in sys.modules
    )


def _report_typed(exc: Exception) -> Optional[int]:
    """Report a typed error on stderr, in a line or two, and return its
    exit code; None, reporting nothing, for any other exception."""
    closure = _raised("repro.analysis.closures.ClosureAnalysisError")
    if isinstance(exc, closure):
        print("error: closure rejected at job submission:", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 4
    if isinstance(exc, _raised("repro.shacl.shapes.ShaclError")):
        print("error: bad shapes file: %s" % exc, file=sys.stderr)
        return 2
    if isinstance(exc, _raised("repro.spark.faults.FaultSpecError")):
        print("error: invalid --faults spec: %s" % exc, file=sys.stderr)
        return 2
    if isinstance(
        exc,
        (
            RuntimeConfigError,
            *_raised(
                "repro.sparql.tokenizer.SparqlParseError",
                "repro.systems.base.UnsupportedQueryError",
            ),
        ),
    ):
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if isinstance(exc, _raised("repro.spark.faults.TaskFailedError")):
        print("error: %s" % exc, file=sys.stderr)
        print(
            "the fault schedule exhausted --max-task-attempts; raise the "
            "limit or relax --faults",
            file=sys.stderr,
        )
        return 3
    if isinstance(exc, _raised("repro.spark.parallel.WorkerCrashError")):
        # The first line names the worker and how it ended; the rest is
        # the worker's own traceback, when it lived to send one.
        print("error: %s" % str(exc).splitlines()[0], file=sys.stderr)
        return 3
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except Exception as exc:
        code = _report_typed(exc)
        if code is None:
            raise
        return code


if __name__ == "__main__":
    sys.exit(main())
