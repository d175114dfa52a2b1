"""NumPy, loaded on its first attribute access.

An ndarray is built only where a closed form runs on it: in the proof
spot-checks and in the closed forms called with an ndarray, as
:mod:`cyclebound._arith` decides.  So a process that computes scalar
bounds, cycles, sweep rows, figures or ``integrate``'s samples never
pays NumPy's import.  Modules bind ``np`` from here: a plain
``import numpy`` reads the module's ``__spec__`` and so loads it at
once.  The lazy module is registered in ``sys.modules``, so NumPy is
imported once whoever asks first; after that first access it is the
real module.  LazyLoader's first load is not thread-safe before Python
3.12; cyclebound runs in parallel only in processes.
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
