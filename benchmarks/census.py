"""Function-entry census of ``src/repro``: which kind of run enters what.

    python benchmarks/census.py record TAG -- CMD...   # run CMD, log entries
    python benchmarks/census.py report [--strict]      # print the table

``record`` runs CMD with a ``sys.setprofile`` hook in every Python
process it starts (a throwaway ``usercustomize`` found through
``PYTHONUSERBASE``, so children that reset ``PYTHONPATH`` report too).
The first entry of each ``src/repro`` code object appends ``file:line``
to ``benchmarks/.census/TAG.log`` (``$CENSUS_LOGS/TAG.log`` when set)
through an ``O_APPEND`` descriptor, which forked workers inherit.
Nothing in ``src/`` knows about it.

``report`` lists every ``def`` under ``src/repro`` once -- ``file:line``,
qualified name, body lines, one column per TAG (``x`` = entered) and a
``why`` column carried over from the committed table by file and name:
the place to say why a function only tests enter is kept (``safety``,
``doc``, ``wallclock``, ``item-N``).  So print to a new file and move it
over ``CENSUS.tsv``; a redirect onto the table empties it before it is
read.  ``--strict`` exits 1 when a function that no claim, bench, CLI
path or example enters has no reason.  Such a function reads
``referenced`` in the ``why`` column (computed, never carried over) when
its name still occurs in ``src/repro`` outside its own body: a caller in
a branch no run takes, which the census cannot see -- ``--strict`` lists
those apart from the ones nothing names.  The commands CI records are
the ``census`` job of ``ci.yml``.
"""

import ast
import collections
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading

TAGS = ("tests", "claims", "benches", "wallclock", "cli", "examples")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOGS = os.environ.get("CENSUS_LOGS") or os.path.join(HERE, ".census")
TABLE = os.path.join(HERE, "CENSUS.tsv")
MARK = os.sep + os.path.join("src", "repro", "")
REFERENCED = "referenced"


def install(log):
    """Start logging first entries of this process (and its forks)."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen = set()

    def hook(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        # Not the code object: two files with the same body on the same
        # line (the two ``TokenStream.at_keyword``) hold equal ones.
        key = (code.co_filename, code.co_firstlineno)
        if key not in seen:
            seen.add(key)
            path = os.path.abspath(code.co_filename)
            at = path.rfind(MARK)
            if at >= 0:
                name = path[at + len(MARK):].encode()
                os.write(fd, b"%s:%d\n" % (name, code.co_firstlineno))

    def setprofile(other, _set=sys.setprofile):
        # A test that profiles itself must not switch the census off.
        _set(hook if other is None else lambda *a: (hook(*a), other(*a)))

    sys.setprofile = setprofile
    threading.setprofile(hook)
    setprofile(None)


def record(tag, command):
    if tag not in TAGS or not command:
        sys.exit("usage: census.py record {%s} -- CMD..." % ",".join(TAGS))
    os.makedirs(LOGS, exist_ok=True)
    with tempfile.TemporaryDirectory() as base:
        site = sysconfig.get_path(
            "purelib", os.name + "_user", vars={"userbase": base}
        )
        os.makedirs(site)
        with open(os.path.join(site, "usercustomize.py"), "w") as handle:
            handle.write(
                "import runpy; runpy.run_path(%r)['install'](%r)\n"
                % (os.path.abspath(__file__), os.path.join(LOGS, tag + ".log"))
            )
        env = dict(os.environ, PYTHONUSERBASE=base)
        return subprocess.call(command, env=env)


def identifiers(node):
    """How often each ``Name`` id and ``Attribute`` attr occurs in *node*."""
    return collections.Counter(
        getattr(n, "id", None) or n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def referenced(node, used):
    """Whether the name of def *node* occurs beyond its own body in what
    *used* counted."""
    return used[node.name] > identifiers(node)[node.name]


def functions(used):
    """``(file, first line, qualified name, body lines, def node)`` of
    every def; *used* gains every module's :func:`identifiers`."""
    top = os.path.join(ROOT, "src", "repro")
    for folder, folders, files in os.walk(top):
        folders.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            used.update(identifiers(tree))
            stack = [("", tree)]
            while stack:
                prefix, node = stack.pop()
                for child in ast.iter_child_nodes(node):
                    inner = prefix
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        inner = prefix + child.name + "."
                        first = min(
                            [child.lineno]
                            + [d.lineno for d in child.decorator_list]
                        )
                        yield (
                            os.path.relpath(path, top),
                            first,
                            inner[:-1],
                            child.end_lineno - child.lineno + 1,
                            child,
                        )
                    elif isinstance(child, ast.ClassDef):
                        inner = prefix + child.name + "."
                    stack.append((inner, child))


def report(strict):
    entered = {}
    for tag in TAGS:
        path = os.path.join(LOGS, tag + ".log")
        if os.path.exists(path):
            with open(path) as handle:
                entered[tag] = set(handle.read().split())
    why = {}
    if os.path.exists(TABLE):
        with open(TABLE) as handle:
            for line in handle.read().splitlines()[1:]:
                cells = line.split("\t")
                if cells[-1] != REFERENCED:
                    why[cells[0].split(":")[0], cells[1]] = cells[-1]
    print("\t".join(("file:line", "name", "lines") + TAGS + ("why",)))
    used = collections.Counter()
    rows = sorted(functions(used), key=lambda row: row[:4])
    unexplained = 0
    for path, first, name, lines, node in rows:
        key = "%s:%d" % (path, first)
        marks = ["x" if key in entered.get(tag, ()) else "" for tag in TAGS]
        reason = why.get((path, name), "")
        if not any(marks[1:]) and not reason:
            unexplained += 1
            if referenced(node, used):
                reason = REFERENCED
            if strict:
                print("no claim, bench, CLI path, example or reason%s: %s %s"
                      % (" (but referenced)" if reason else "", key, name),
                      file=sys.stderr)
        print("\t".join([key, name, str(lines)] + marks + [reason]))
    return 1 if strict and unexplained else 0


def main(argv):
    if argv[:1] == ["record"] and argv[2:3] == ["--"]:
        return record(argv[1], argv[3:])
    if argv[:1] == ["report"] and argv[1:] in ([], ["--strict"]):
        return report(bool(argv[1:]))
    sys.exit(__doc__.strip())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
