"""Float or array arithmetic for the closed forms: the one rule.

A closed form is written once, in the functions of the namespace read
from here: ``exp``, ``log``, ``sqrt``, ``where``, ``clamp``, ``divide``
(a quotient past the double range is inf, with no warning, as a float
quotient is), ``quiet()`` (a context in which an array's overflow and
invalid operations raise no warning, as a float's raise no error) and
``first_failure(ok, *values)``, which gives the values at the first
element where ``ok`` fails (C order), or None.  An ndarray among a
call's inputs selects NumPy's namespace, built once per process on the
first array read; its ``first_failure`` tests an array ``ok`` with the
array's own ``all()``.  Any other value selects :data:`MATH` and is a
float: a float keeps its value, so a non-finite one meets the caller's
range check, and any other value is read by
:func:`cyclebound.model.finite_float`.  NumPy is imported only by the
functions that run on an ndarray, and :func:`read` tests a value against
``ndarray`` only when the value's type comes from NumPy, which is then
loaded; so a float never loads NumPy.  :func:`read` takes one input;
:func:`choose` reads each of several once and returns the namespace
with the values read, so a caller computes with what was decided and
never reads an input again.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from functools import cache
from operator import truediv
from types import SimpleNamespace

from .model import finite_float

__all__ = ["MATH", "read", "choose"]

# where and clamp are conditional expressions: a builtin max costs a call
MATH = SimpleNamespace(
    exp=math.exp, log=math.log, sqrt=math.sqrt,
    where=lambda condition, x, y: x if condition else y,
    clamp=lambda x, lo: lo if lo > x else x, divide=truediv, quiet=nullcontext,
    first_failure=lambda ok, *values: None if ok else values,
)


@cache
def _numpy() -> SimpleNamespace:
    import numpy as np

    def first_failure(ok, *values) -> tuple | None:
        # ok is an array, or a bool where every input it tests is a float
        if ok.all() if isinstance(ok, np.ndarray) else ok:
            return None
        ok, *values = np.broadcast_arrays(ok, *values)
        i = int(np.argmin(ok))  # the first False in C order
        return tuple(float(v.flat[i]) for v in values)

    def divide(x, y):
        with np.errstate(over="ignore"):
            return np.divide(x, y)

    def quiet():
        return np.errstate(over="ignore", invalid="ignore")

    return SimpleNamespace(exp=np.exp, log=np.log, sqrt=np.sqrt, where=np.where,
                           clamp=np.maximum, divide=divide, quiet=quiet,
                           first_failure=first_failure)


def read(name: str, value) -> tuple[SimpleNamespace, float | np.ndarray]:
    """The namespace for ``value``, and the value to compute with; a
    value that is no number raises ValueError naming ``name``."""
    if type(value) is float:
        return MATH, value
    if type(value).__module__ == "numpy":
        import numpy as np  # loaded already: value's type comes from it
        if isinstance(value, np.ndarray):
            return _numpy(), value
    return MATH, float(value) if isinstance(value, float) else finite_float(name, value)


def choose(**inputs) -> tuple[SimpleNamespace, dict]:
    """The namespace for several inputs, and each input as :func:`read`
    gave it, by name."""
    arith, values = MATH, {}
    for name, value in inputs.items():
        found, values[name] = read(name, value)
        if found is not MATH:
            arith = found
    return arith, values
