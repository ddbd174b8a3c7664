"""Plain-text tables and series for benchmark output."""

from __future__ import annotations

import argparse
import json
from typing import Callable, Dict, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """An aligned ASCII table: one row format for the whole table, each
    cell left-justified to its column's widest text."""
    cells = [tuple(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for column, texts in enumerate(zip(*cells)):
        widths[column] = max(widths[column], max(map(len, texts)))
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    line = "|" + "|".join(" %%-%ds " % w for w in widths) + "|"
    lines = [sep, line % tuple(headers), sep]
    lines.extend([line % row for row in cells])
    lines.append(sep)
    return "\n".join(lines)


def format_series(
    title: str, points: Dict[object, object], unit: str = ""
) -> str:
    """A labelled x -> y series, one point per line (figure data)."""
    lines = ["%s:" % title]
    for x, y in points.items():
        suffix = " %s" % unit if unit else ""
        lines.append("  %s -> %s%s" % (x, y, suffix))
    return "\n".join(lines)


def report(title: str, body: str) -> None:
    """Print a benchmark artifact with a recognizable banner."""
    banner = "=" * 72
    print("\n%s\n%s\n%s\n%s" % (banner, title, banner, body))


def artifact_main(
    description: str,
    output: str,
    smoke_help: str,
    run_bench: Callable[..., dict],
    check_payload: Callable[[dict], object],
    table: Callable[[dict], str],
    argv: Optional[List[str]] = None,
) -> int:
    """The command line of a benchmark that commits a ``BENCH_*.json``.

    Runs the bench, prints its table and the claim summary, writes the
    payload to ``--output`` and exits 1 when the claim does not hold.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=output,
        help="where to write the JSON artifact (default %s)" % output,
    )
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    args = parser.parse_args(argv)
    payload = run_bench(smoke=args.smoke)
    result = check_payload(payload)
    print(table(payload))
    print(result.summary())
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    return 0 if result.holds else 1
