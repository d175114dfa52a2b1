"""Every name a module lists in ``__all__`` is one of its attributes.

Python does not check ``__all__`` on import, so a name left behind by a
deletion would only fail a star import.
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
