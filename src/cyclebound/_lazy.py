"""NumPy, loaded on its first attribute access.

Only the array paths (proof spot-checks, the closed forms called with
an ndarray as :mod:`cyclebound._arith` decides, figures and the samples
of ``integrate``) use NumPy, so a process that computes scalar bounds,
cycles or sweep rows never pays its import.  Modules bind ``np`` from
here: a plain ``import numpy`` reads the module's ``__spec__`` and so
loads it at once.  The lazy module is registered in ``sys.modules``, so
NumPy is imported once whoever asks first; after that first access it
is the real module.  LazyLoader's first load is not thread-safe before
Python 3.12; cyclebound runs in parallel only in processes.
"""

import importlib.util
import sys

__all__ = ["np"]

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
