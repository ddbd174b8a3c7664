"""Compare two result files of ``run.py --out``: BASE against NEW.

    python3 benchmarks/wallclock/compare.py BASE.json NEW.json

One row per workload x end-to-end metric: each side's median over its
passes, their ratio (``new/base``, so the base is in the row), how much
worse NEW reads as a share of BASE, the bound from ``BENCHMARK.json``,
each side's spread (interquartile range / median, once a side has four
passes) and a label:

``worse``
    NEW's median is worse than BASE's by more than the bound.
``unresolved``
    Not worse, but a side's spread is wider than the bound, so "no
    change" cannot be told from noise -- unless every pass of NEW reads
    better than every pass of BASE.
``ok``
    Neither.

Exits 1 on any ``worse``.
"""

import json
import os
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def samples(document):
    """``{(workload, metric): [value per pass]}`` from a result file."""
    out = {}
    for one in document["passes"]:
        for workload, detail in one["workloads"].items():
            for metric, value in detail["metrics"].items():
                out.setdefault((workload, metric), []).append(value)
    return out


def spread(values):
    """Interquartile range as a share of the median; None under 4 values."""
    if len(values) < 4:
        return None
    low, _mid, high = quantiles(values, n=4)
    return (high - low) / median(values)


def judge(base, new, better, bound):
    """``(ratio, worse-by share, label)`` for one metric's two samples."""
    base_mid, new_mid = median(base), median(new)
    ratio = new_mid / base_mid
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return ratio, worse_by, "worse"
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if spreads and max(spreads) > bound:
        clear = (
            max(new) < min(base) if better == "lower" else min(new) > max(base)
        )
        if not clear:
            return ratio, worse_by, "unresolved"
    return ratio, worse_by, "ok"


def compare(base_doc, new_doc, manifest):
    """Rows ``(workload, metric, base, new, ratio, worse_by, bound, spreads, label)``."""
    base, new = samples(base_doc), samples(new_doc)
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            ratio, worse_by, label = judge(
                base[key], new[key], metric["better"], metric["bound"]
            )
            rows.append(
                (
                    workload, metric["name"], median(base[key]), median(new[key]),
                    ratio, worse_by, metric["bound"],
                    (spread(base[key]), spread(new[key])), label,
                )
            )
    return rows


def _share(value):
    return "   n<4" if value is None else "%5.1f%%" % (value * 100)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    rows = compare(documents[0], documents[1], manifest)
    print(
        "%-14s %-17s %12s %12s %9s %8s %6s %7s %7s  %s"
        % ("workload", "metric", "base", "new", "new/base", "worse by",
           "bound", "spr.b", "spr.n", "label")
    )
    for workload, metric, base, new, ratio, worse_by, bound, spreads, label in rows:
        print(
            "%-14s %-17s %12.4f %12.4f %9.4f %7.1f%% %5.0f%% %7s %7s  %s"
            % (workload, metric, base, new, ratio, worse_by * 100, bound * 100,
               _share(spreads[0]), _share(spreads[1]), label)
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
