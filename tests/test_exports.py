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
    # the 51 exports plus the seven library submodules, by star import and dir
    namespace: dict = {}
    exec("from cyclebound import *", namespace)
    del namespace["__builtins__"]
    exports = sorted(name for names in cyclebound._EXPORTS.values() for name in names)
    assert len(exports) == 51
    assert sorted(namespace) == sorted(exports + SUBMODULES)
    assert set(namespace) <= set(dir(cyclebound))
    for name in SUBMODULES:
        assert namespace[name] is importlib.import_module(f"cyclebound.{name}")


# the records that validate what a caller passes in, on model's frozen base;
# SweepSpec validates too but stays a dataclass: the CLI, perfbench and the
# tests call dataclasses.replace on it, and the harness that defines it is
# on neither the bounds nor the cycle import path
VALIDATING = ["Params", "RMParams", "SimConfig", "State"]


def test_a_record_is_a_dataclass_only_where_it_validates_its_input():
    # a dataclass costs a fresh process `import dataclasses`, which loads
    # inspect (about 11 ms), and each frozen dataclass class about 0.5 ms;
    # a NamedTuple class costs about 0.1 ms
    base = importlib.import_module("cyclebound.model")._Record
    records = [
        value
        for name in ("model", "bounds", "simulator", "harness", "region4")
        for value in vars(importlib.import_module(f"cyclebound.{name}")).values()
        if isinstance(value, type)
        and value.__module__ == f"cyclebound.{name}"
        and value is not base
        and not issubclass(value, (Enum, BaseException))
    ]

    def kind(cls):
        if issubclass(cls, base):
            return "validating"
        if dataclasses.is_dataclass(cls):
            return "dataclass"
        return "NamedTuple" if issubclass(cls, tuple) and hasattr(cls, "_fields") else "other"

    kinds = {cls.__name__: kind(cls) for cls in records}
    assert sorted(name for name, k in kinds.items() if k == "validating") == VALIDATING
    assert [name for name, k in kinds.items() if k == "dataclass"] == ["SweepSpec"]
    others = set(kinds) - {*VALIDATING, "SweepSpec"}
    assert others and {kinds[name] for name in others} == {"NamedTuple"}
    assert [cls.__name__ for cls in records if hasattr(cls, "__post_init__")] == ["SweepSpec"]
