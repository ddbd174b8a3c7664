"""The wall-clock benchmark: one command, every metric by name.

Driver form (one workload, in this interpreter)::

    python3 benchmarks/wallclock/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric with its unit, then one JSON object on the last
line -- ``correct``, ``attempted``, ``failed``, ``metrics`` -- and exits
1 if any operation failed.

Without ``--workload`` every workload runs, one at a time, each in a
fresh child interpreter; ``--repeats N`` makes N passes on seeds
``seed .. seed+N-1``, and ``--out FILE`` keeps every pass for
``compare.py``.  ``--smoke`` shrinks data and loops to a few seconds.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def host_info():
    """Where the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "load_1min": os.getloadavg()[0],
    }


def parse_args(argv, manifest):
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--detail", metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(manifest["run_seconds"])
    if args.seconds <= 0 or args.repeats <= 0:
        parser.error("--seconds and --repeats must be positive")
    args.workload = args.workload or names
    return args


def run_here(args, manifest):
    """One workload in this interpreter; the driver's contract."""
    sys.path.insert(0, SRC)
    import measure

    result, detail = measure.run(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke, ROOT
    )
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[kind]}
    if set(units) != set(result["metrics"]):
        raise SystemExit(
            "benchmark bug: emitted and declared metrics differ: %s"
            % sorted(set(units) ^ set(result["metrics"]))
        )
    print(
        "%s seed=%d: %d cycles, %d queries, %d commits, %d of %d operations failed%s"
        % (
            detail["workload"], args.seed, detail["cycles"], detail["queries"],
            detail["commits"], result["failed"], result["attempted"],
            ", host noisy" if detail["noisy"] else "",
        )
    )
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": units[name]} for name in units
    }
    for name, metric in result["metrics"].items():
        print("  %-40s %14.4f %s" % (name, metric["value"], metric["unit"]))
    if args.detail:
        detail["host"] = host_info()
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_children(args):
    """Every pass of every selected workload, each in its own child."""
    passes = []
    status = 0
    build_dir = os.path.join(ROOT, ".bench_build", "wallclock")
    os.makedirs(build_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as scratch:
        for repeat in range(args.repeats):
            seed = args.seed + repeat
            one = {"seed": seed, "workloads": {}}
            for name in args.workload:
                detail_file = os.path.join(scratch, "detail.json")
                argv = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--detail", detail_file,
                ] + (["--smoke"] if args.smoke else [])
                code = subprocess.run(argv).returncode
                status = status or code
                if os.path.exists(detail_file):
                    with open(detail_file, "r", encoding="utf-8") as handle:
                        one["workloads"][name] = json.load(handle)
                    os.remove(detail_file)
            passes.append(one)
    if args.out:
        document = {
            "benchmark": "wallclock", "trace": args.trace, "smoke": args.smoke,
            "seconds": args.seconds, "host": host_info(), "passes": passes,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("wallclock: no program to measure under %s\n" % SRC)
        return 2
    manifest = load_manifest()
    args = parse_args(argv, manifest)
    if len(args.workload) == 1 and args.repeats == 1 and not args.out:
        return run_here(args, manifest)
    return run_children(args)


if __name__ == "__main__":
    sys.exit(main())
