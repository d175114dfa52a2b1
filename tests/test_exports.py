"""Every name a module lists in ``__all__`` is one of its attributes.

Python does not check ``__all__`` on import, so a name left behind by a
deletion would only fail a star import.  The package resolves its
exports on first use from one table, so a stale entry there would
likewise fail only when the name is first read.
"""

import dataclasses
import importlib
import pkgutil
from enum import Enum

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
    # the 52 exports plus the seven library submodules, by star import and dir
    namespace: dict = {}
    exec("from cyclebound import *", namespace)
    del namespace["__builtins__"]
    exports = sorted(name for names in cyclebound._EXPORTS.values() for name in names)
    assert len(exports) == 52
    assert sorted(namespace) == sorted(exports + SUBMODULES)
    assert set(namespace) <= set(dir(cyclebound))
    for name in SUBMODULES:
        assert namespace[name] is importlib.import_module(f"cyclebound.{name}")


# the records whose __post_init__ validates what a caller passes in
VALIDATING = ["Params", "RMParams", "SimConfig", "State", "SweepSpec"]


def test_a_record_is_a_dataclass_only_where_it_validates_its_input():
    # creating a frozen dataclass class costs a fresh process about 0.5 ms
    # at import, a NamedTuple class about 0.1 ms
    records = [
        value
        for name in ("model", "bounds", "simulator", "harness", "region4")
        for value in vars(importlib.import_module(f"cyclebound.{name}")).values()
        if isinstance(value, type)
        and value.__module__ == f"cyclebound.{name}"
        and not issubclass(value, (Enum, BaseException))
    ]

    def kind(cls):
        if dataclasses.is_dataclass(cls):
            return "dataclass"
        return "NamedTuple" if issubclass(cls, tuple) and hasattr(cls, "_fields") else "other"

    astray = [
        (cls.__name__, kind(cls))
        for cls in records
        if kind(cls) != ("dataclass" if hasattr(cls, "__post_init__") else "NamedTuple")
    ]
    assert astray == []
    assert sorted(cls.__name__ for cls in records if dataclasses.is_dataclass(cls)) == VALIDATING
