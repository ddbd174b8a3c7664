"""Lazy package exports (PEP 562): the one helper behind every ``__init__``.

A package says where each public name lives, once; ``__all__`` is the
names of that table.  A name is imported from its home module on first
access and then bound in the package, so later accesses are plain
attribute reads.  Importing ``repro.spark.rdd`` therefore runs
``repro/spark/__init__.py`` without loading ``spark.sql``, ``dataframe``
or ``graphx``, while ``from repro.spark import RDD``, ``from repro.spark
import *`` and ``repro.spark.RDD`` behave exactly as with eager imports.

One case needs an eager import: a name that is also the name of its own
home submodule (``repro.spark.graphx.pregel``).  The import system binds
a submodule on its package when it first loads, which would shadow the
export before ``__getattr__`` is ever asked.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, homes: Mapping[str, Sequence[str]], eager: Sequence[str] = ()
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` triple of *package*.

    *homes* maps a home module to the names exported from it, the shape
    of the ``from module import names`` statements it replaces; *eager*
    names what the package binds or computes itself and exports too.
    """
    namespace = sys.modules[package].__dict__
    table: Dict[str, str] = {
        name: module for module, names in homes.items() for name in names
    }
    exported = sorted({*table, *eager})

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exported})

    return __getattr__, __dir__, exported
