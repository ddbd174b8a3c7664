"""``cmd_query``'s call sequence in a fresh interpreter, timed call by call.

    python benchmarks/wallclock/replay.py FILE QUERY      (PYTHONPATH=src)

The CLI is one opaque process from outside.  This script makes the same
calls in the same order -- import, ``load_graph``, ``build_context``,
``load``, ``execute``, ``format_table`` -- in a process as fresh as the
CLI's own, so the garbage collector sees the heap the CLI's would, and
clocks each call from outside.  It prints ``[[name, start, end], ...]``
in ``time.perf_counter`` seconds; on Linux that clock is the same in the
parent, which files the phases as spans under its own ``replay`` span.
"""

import json
import sys
import time


def main(path, text):
    phases = []

    def phase(name, func):
        start = time.perf_counter()
        value = func()
        phases.append((name, start, time.perf_counter()))
        return value

    phase("replay.import", lambda: __import__("repro.cli"))
    from repro.bench import format_table
    from repro.runtime import build_context, load_graph, resolve_engine

    graph = phase("runtime.load_graph", lambda: load_graph(path))
    ctx = phase("runtime.build_context", lambda: build_context(parallelism=4))
    engine = phase(
        "systems.SPARQLGX.build", lambda: resolve_engine("SPARQLGX")(ctx).load(graph)
    )
    result = phase("systems.SPARQLGX.first_execute", lambda: engine.execute(text))
    phase(
        "cli.render",
        lambda: format_table(["?" + v for v in result.variables], result.to_table()),
    )
    print(json.dumps(phases))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
