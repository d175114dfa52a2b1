"""Every name a module lists in ``__all__`` is one of its attributes.

Python does not check ``__all__`` on import, so a name left behind by a
deletion would only fail a star import.  The package resolves its
exports on first use from one table, so a stale entry there would
likewise fail only when the name is first read.
"""

import importlib
import pkgutil

import pytest

import cyclebound

MODULES = ["cyclebound"] + [
    f"cyclebound.{info.name}" for info in pkgutil.iter_modules(cyclebound.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_the_library_modules_declare_all():
    undeclared = [
        name for name in MODULES[1:] if not hasattr(importlib.import_module(name), "__all__")
    ]
    assert undeclared == ["cyclebound.cli"]


SUBMODULES = ["bounds", "dopri", "harness", "lvroot", "model", "region4", "simulator"]


def test_each_export_is_its_submodules_object():
    stale = [
        name
        for module, names in cyclebound._EXPORTS.items()
        for name in names
        if getattr(cyclebound, name)
        is not getattr(importlib.import_module(f"cyclebound.{module}"), name)
    ]
    assert stale == []


def test_the_package_surface():
    # the 53 exports plus the seven library submodules, by star import and dir
    namespace: dict = {}
    exec("from cyclebound import *", namespace)
    del namespace["__builtins__"]
    exports = sorted(name for names in cyclebound._EXPORTS.values() for name in names)
    assert len(exports) == 53
    assert sorted(namespace) == sorted(exports + SUBMODULES)
    assert set(namespace) <= set(dir(cyclebound))
    for name in SUBMODULES:
        assert namespace[name] is importlib.import_module(f"cyclebound.{name}")
