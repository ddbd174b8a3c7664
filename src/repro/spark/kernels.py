"""Generated per-partition kernels: source text compiled once, then cached.

A kernel is a function whose text is decided by something known before
any record is seen -- a triple pattern, a join key, a DataFrame's column
expressions -- so its inner loop is one comprehension with the tests and
the output written inline, and no Python function is entered per record.
``repro.systems.base.compile_pattern`` and ``keyer``,
``repro.spark.column.ColumnCompiler`` and the DataFrame operators write
such text; this module turns it into functions.
"""

from __future__ import annotations

import linecache
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Generated code by (source, file name), oldest first.  A text asked for
#: again is not compiled again, and a served process that is asked ever
#: new patterns keeps at most this many compiled and filed in linecache.
_KERNELS: Dict[Tuple[str, str], Any] = {}
_KERNEL_LIMIT = 1024


def generate(
    label: str, source: str, namespace: Dict[str, object]
) -> Dict[str, Callable]:
    """What *source* -- one ``name = lambda ...`` per line -- assigns when
    run with *namespace* for globals.  The text is filed in ``linecache``,
    so a traceback shows the line, ``inspect.getsource`` finds it and the
    closure verifier reads generated code like any other."""
    filename = "<repro kernel: %s>" % label
    code = _KERNELS.get((source, filename))
    if code is None:
        if len(_KERNELS) >= _KERNEL_LIMIT:
            evicted = next(iter(_KERNELS))
            del _KERNELS[evicted]
            linecache.cache.pop(evicted[1], None)
        code = _KERNELS[source, filename] = compile(source, filename, "exec")
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
    made: Dict[str, Callable] = {}
    exec(code, namespace, made)
    return made


def comprehension(
    name: str,
    element: str,
    target: str = "v",
    condition: Optional[str] = None,
    namespace: Optional[Dict[str, object]] = None,
) -> Callable[[List[Any]], List[Any]]:
    """``lambda part: [element for target in part if condition]`` as a
    generated kernel named *name*, its globals *namespace*.  The label is
    the comprehension's own text, so equal text compiles once, whatever
    constants each caller's namespace holds."""
    text = "[%s for %s in part%s]" % (
        element, target, "" if condition is None else " if " + condition
    )
    source = "%s = lambda part: %s\n" % (name, text)
    if namespace is None:
        namespace = {}
    return generate(name + " " + text, source, namespace)[name]
