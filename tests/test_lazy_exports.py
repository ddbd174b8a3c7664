"""Every package's lazy export table, checked so that it cannot rot.

A package ``__init__`` re-exports through :func:`repro._lazy.lazy_exports`
and imports nothing for it.  A table is data, so nothing fails at import
time when a name in it goes stale; these tests resolve every entry.
"""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro import defaults

ALL_MODULES = [
    info for info in pkgutil.walk_packages(repro.__path__, "repro.")
]
PACKAGES = [info.name for info in ALL_MODULES if info.ispkg]


def test_every_module_imports():
    for info in ALL_MODULES:
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve_to_their_home_objects(name):
    package = importlib.import_module(name)
    assert sorted(set(package.__all__)) == sorted(package.__all__)
    for export in package.__all__:
        value = getattr(package, export)
        if inspect.isclass(value) or inspect.isfunction(value):
            # The very object its home module defines, under its own name.
            home = importlib.import_module(value.__module__)
            assert getattr(home, export) is value
    assert set(package.__all__) <= set(dir(package))
    namespace = {}
    exec("from %s import *" % name, namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(package.__all__)
    with pytest.raises(AttributeError, match="no attribute 'Mispelt'"):
        package.Mispelt
    with pytest.raises(ImportError):
        exec("from %s import Mispelt" % name, {})


@pytest.mark.parametrize("name", PACKAGES)
def test_importing_a_package_loads_nothing_else(name):
    """Run alone in a fresh interpreter: the package, its parents, the
    helper and the import-free defaults, plus the one eager export."""
    code = (
        "import sys, %s\n"
        "print(*sorted(m for m in sys.modules if m.startswith('repro')))" % name
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    parents = {name.rsplit(".", depth)[0] for depth in range(name.count("."))}
    allowed = parents | {name, "repro", "repro._lazy", "repro.defaults"}
    if name == "repro.spark.graphx":
        # ``pregel`` names both the export and its home submodule, so it
        # is imported eagerly (repro/_lazy.py), with what it imports; the
        # algorithm library beside it stays lazy.
        assert "repro.spark.graphx.pregel" in loaded
        allowed |= set(loaded) - {"repro.spark.graphx.lib"}
    assert set(loaded) <= allowed


def test_an_export_named_like_its_submodule_stays_the_export():
    from repro.spark.graphx import lib  # noqa: F401  (imports .pregel)
    from repro.spark.graphx import pregel

    assert callable(pregel) and pregel.__module__ == "repro.spark.graphx.pregel"


def test_engine_table_agrees_with_the_profiles():
    from repro.systems import ALL_ENGINE_CLASSES, ENGINE_HOMES, NaiveEngine
    from repro.systems import engine_class

    classes = (NaiveEngine,) + ALL_ENGINE_CLASSES
    assert [cls.profile.name for cls in classes] == list(ENGINE_HOMES)
    for cls in classes:
        assert engine_class(cls.profile.name) is cls
        assert ENGINE_HOMES[cls.profile.name] == (cls.__module__, cls.__name__)


def test_flag_defaults_live_in_a_module_that_imports_nothing():
    with open(defaults.__file__, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    from repro.federation import DEFAULT_PAGE_SIZE
    from repro.federation.subgraph import Subgraph
    from repro.optimizer import DEFAULT_BROADCAST_THRESHOLD, ORDER_MODES
    from repro.optimizer.planner import JoinPlanner
    from repro.runtime import RuntimeConfig
    from repro.views import DEFAULT_VIEW_THRESHOLD

    assert DEFAULT_BROADCAST_THRESHOLD is defaults.DEFAULT_BROADCAST_THRESHOLD
    assert ORDER_MODES is defaults.ORDER_MODES
    assert DEFAULT_VIEW_THRESHOLD is defaults.DEFAULT_VIEW_THRESHOLD
    assert DEFAULT_PAGE_SIZE is defaults.DEFAULT_PAGE_SIZE
    assert RuntimeConfig.broadcast_threshold == DEFAULT_BROADCAST_THRESHOLD
    assert RuntimeConfig.optimizer_mode in ORDER_MODES
    assert JoinPlanner.__init__.__defaults__[1] == DEFAULT_BROADCAST_THRESHOLD
    assert Subgraph.__init__.__defaults__[0] == DEFAULT_PAGE_SIZE
