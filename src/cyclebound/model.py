"""Nondimensional predator-prey model: parameters and vector fields.

The dynamics are

    ds/dtau = (h(s) - x) s,        h(s) = (1 - s)(s + a),
    dx/dtau = m (s - lam) x,

with prey density s, predator density x and positive parameters
(a, lam, m).  A unique attracting limit cycle surrounds the interior
equilibrium whenever 2*lam + a < 1.  Everything downstream (closed-form
bounds, simulation, sweeps) works on this nondimensional form; the
dimensional six-parameter model enters only through
:func:`nondimensionalize`.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping, NamedTuple, Union

__all__ = [
    "PROVEN_BOXES",
    "Params",
    "RMParams",
    "State",
    "LogState",
    "h",
    "hopf_margin",
    "require_cycle",
    "finite_float",
    "integer",
    "positive_float",
    "positive_int",
    "log_vector_field",
    "log_gap_vector_field",
    "log1m_exp",
    "nondimensionalize",
    "params_from_json",
]

# exp() arguments are clipped here so the log-space field stays finite for
# any float input (adaptive solvers probe far outside the invariant region).
# The cycle stays below the clip only while ln x_max_upper(p) < 150, that is
# for m below about 1e65; at larger m the clip cuts the field on the cycle too
_EXP_CLIP = 150.0


def _exp_clipped(w: float) -> float:
    return math.exp(w if w < _EXP_CLIP else _EXP_CLIP)


# (a_max, lam_max) of the two boxes whose union is where the bounds are
# proved: case A is a, lam <= 1/20 and case B is a <= 1/10, lam <= 1/100
PROVEN_BOXES = {"A": (0.05, 0.05), "B": (0.1, 0.01)}
# unpacked once, so the Params constructor compares against plain floats
_A_MAX_A, _LAM_MAX_A = PROVEN_BOXES["A"]
_A_MAX_B, _LAM_MAX_B = PROVEN_BOXES["B"]


def finite_float(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a
    finite int or float.

    This is the one type rule for every number from outside.  A bool is an
    int, but True is no number here; NumPy's float64 is a float, so it
    passes, while float32, int64 or a Fraction does not.  An int beyond the
    float range is not finite.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite int or float, got {value!r}")


def integer(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer (a :class:`numbers.Integral`, NumPy's too) other than a bool:
    the rule of :func:`finite_float` for counts, so 2.0, "3" and True fail."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def positive_float(name: str, value) -> float:
    """:func:`finite_float`, > 0: the rule of every positive number from
    outside, so 0 fails as ``{name} must be > 0, got 0.0``."""
    x = finite_float(name, value)
    if not x > 0.0:
        raise ValueError(f"{name} must be > 0, got {x!r}")
    return x


def positive_int(name: str, value) -> int:
    """:func:`integer`, >= 1: the rule of every count from outside, so 0
    fails as ``{name} must be >= 1, got 0``."""
    n = integer(name, value)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n!r}")
    return n


class _Record:
    """Base of the records that validate their input: a frozen value.

    A subclass names its compared fields in ``_fields`` and sets them, and
    any derived attributes, with ``object.__setattr__`` in an ``__init__``
    that validates.  As the frozen dataclasses these records were, an
    instance equals only an instance of its own class with equal fields,
    hashes as the tuple of those, prints them by name, is not iterable
    and refuses assignment and deletion.  It keeps its
    ``__dict__``, so pickle and :mod:`copy` restore it without calling
    ``__setattr__``.  Unlike a dataclass, it costs a fresh process no
    ``import dataclasses`` (which loads ``inspect``).
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Params(_Record):
    """Nondimensional parameter triple.

    a: half-saturation prey density relative to carrying capacity.
    lam: prey density at which the predator breaks even.
    m: predator-to-prey time-scale ratio.

    All three must be strictly positive unless ``limit=True``, which
    admits zeros so that closed-form bounds can be evaluated in the
    m -> 0 and a, lam -> 0 limits.  Limit-mode parameter sets are
    rejected by the simulator.

    The constructor caches the quantities that gate everything
    downstream: h(lam), the Hopf margin 1 - 2*lam - a, the cycle-regime
    flag, and whether (a, lam) lies in the box where the full set of
    bounds is proved.  They stay out of ``==``, ``hash`` and ``repr``.
    """

    _fields = ("a", "lam", "m", "limit")
    # set by the constructor, from the fields
    h_lam: float
    hopf_margin: float
    cycle_regime: bool
    proven_region: bool

    def __init__(self, a: float, lam: float, m: float, limit: bool = False) -> None:
        object.__setattr__(self, "limit", limit)
        for name, value in (("a", a), ("lam", lam), ("m", m)):
            val = finite_float(name, value)
            if limit and val < 0.0:
                raise ValueError(f"{name} must be >= 0, got {val!r}")
            if not limit and val <= 0.0:
                raise ValueError(
                    f"{name} must be > 0 (use limit=True to evaluate "
                    f"closed forms at {name} = 0), got {val!r}"
                )
            # a NumPy float64 would turn every downstream evaluation into
            # NumPy scalar arithmetic
            object.__setattr__(self, name, val)
        object.__setattr__(self, "h_lam", h(self.lam, self))
        object.__setattr__(self, "hopf_margin", hopf_margin(self))
        object.__setattr__(self, "cycle_regime", self.hopf_margin > 0.0)
        object.__setattr__(
            self,
            "proven_region",
            (self.a <= _A_MAX_A and self.lam <= _LAM_MAX_A)
            or (self.a <= _A_MAX_B and self.lam <= _LAM_MAX_B),
        )

    def as_dict(self) -> dict:
        return {"a": self.a, "lambda": self.lam, "m": self.m}


class RMParams(_Record):
    """Dimensional Rosenzweig-MacArthur rates and capacities.

    r: prey intrinsic growth rate, K: prey carrying capacity,
    q: maximal predator consumption rate, H: half-saturation prey amount,
    p: conversion efficiency rate, d: predator per-capita death rate.

    q cancels from the nondimensional system; it is kept only for input
    fidelity.  p > d is required, otherwise the predator cannot grow on
    any prey density and there is no cycle to bound.
    """

    _fields = ("r", "K", "q", "H", "p", "d")

    def __init__(self, r: float, K: float, q: float, H: float, p: float, d: float) -> None:
        for name, value in zip(self._fields, (r, K, q, H, p, d)):
            object.__setattr__(self, name, positive_float(name, value))
        if not self.p > self.d:
            raise ValueError(f"p must exceed d, got p={self.p}, d={self.d}")


class State(_Record):
    """Phase point (x, s) in the open positive quadrant."""

    _fields = ("x", "s")

    def __init__(self, x: float, s: float) -> None:
        object.__setattr__(self, "x", positive_float("x", x))
        object.__setattr__(self, "s", positive_float("s", s))

    def log(self) -> "LogState":
        return LogState(math.log(self.x), math.log(self.s))


class LogState(NamedTuple):
    """Log-space image (u, v) = (ln x, ln s) of a phase point.

    Defined for all real (u, v); the exp-image is positive by
    construction, which is why all integration happens here.
    """

    u: float
    v: float


def h(s: float, p: Params) -> float:
    """Prey isocline height h(s) = (1 - s)(s + a).

    Defined for any real s; negative values for s > 1 are meaningful to
    callers that clamp their own domains.  s and ``p.a`` may be arrays.
    """
    return (1.0 - s) * (s + p.a)


def hopf_margin(p: Params) -> float:
    """Hopf margin 1 - 2 lam - a: the cycle regime is where it is positive.

    Like :func:`h`, it reads only attributes of ``p``, so a ``p`` whose
    a and lam are arrays gives the margin elementwise.
    """
    return 1.0 - 2.0 * p.lam - p.a


def require_cycle(p: Params, what: str = "") -> None:
    """ValueError naming ``what``, by default (a, lambda), unless ``p`` has a
    limit cycle (:attr:`Params.cycle_regime`)."""
    if not p.cycle_regime:
        what = what or f"(a, lambda) = ({p.a!r}, {p.lam!r})"
        raise ValueError(
            f"{what} has no limit cycle: need 2*lam + a < 1, got margin {p.hopf_margin!r}"
        )


def log_vector_field(ls: LogState, p: Params) -> tuple[float, float]:
    """Time derivatives (du/dtau, dv/dtau) of the log variables.

    This is exactly the push-forward of the (x, s) field of the module
    docstring under (x, s) = (e^u, e^v):

        du/dtau = m (e^v - lam),    dv/dtau = h(e^v) - e^u.

    Defined for all real (u, v); exp arguments are clipped at
    :data:`_EXP_CLIP` = 150 so the field stays finite even at the wild
    trial points an adaptive solver may probe.  The clip lies outside the
    dynamically reachable region only while ln x_max_upper(p) < 150, that
    is for m below about 1e65: at larger m it acts on the cycle as well.
    """
    s = _exp_clipped(ls.v)
    x = _exp_clipped(ls.u)
    return (p.m * (s - p.lam), (1.0 - s) * (s + p.a) - x)


def log_gap_vector_field(y: tuple[float, float], p: Params) -> tuple[float, float]:
    """Time derivatives (du/dtau, dw/dtau) in the chart (u, w) = (ln x, ln(1 - s)).

    w is the log of the prey's gap below capacity.  The push-forward of
    the (x, s) field under (x, s) = (e^u, -expm1(w)) is

        du/dtau = m (s - lam),    dw/dtau = s (e^(u - w) - (s + a)).

    Near the saddle (x, s) = (0, 1) this chart resolves 1 - s down to
    e^-700, where v = ln s is within roundoff of 0.  exp arguments are
    clipped as in :func:`log_vector_field`, with the same limit on where
    the clip is harmless (m below about 1e65).
    """
    u, w = y
    s = -math.expm1(w if w < _EXP_CLIP else _EXP_CLIP)
    return (p.m * (s - p.lam), s * (_exp_clipped(u - w) - (s + p.a)))


def log1m_exp(y: float) -> float:
    """ln(1 - e^y), for y < 0: the coordinate change between the two charts.

    It takes v = ln s to w = ln(1 - s) and w back to v (it is its own
    inverse).  Its relative error grows like eps / (1 - e^y): a few ulps
    where the simulator uses it, at y <= ln(1/2) and just past it.
    """
    return math.log1p(-math.exp(y))


def nondimensionalize(rm: RMParams) -> Params:
    """Map dimensional rates/capacities to the nondimensional triple.

    a = H/K, m = (p - d)/r, lam = d H / ((p - d) K).  q drops out, and
    p > d holds by construction of :class:`RMParams`.
    """
    return Params(
        a=rm.H / rm.K,
        lam=rm.d * rm.H / ((rm.p - rm.d) * rm.K),
        m=(rm.p - rm.d) / rm.r,
    )


_ND_KEYS = {"a", "lambda", "m"}
_RM_KEYS = {"r", "K", "q", "H", "p", "d"}


def params_from_json(source: Union[str, Mapping]) -> Params:
    """Load parameters from a JSON record, auto-detected by key set.

    Accepts either the nondimensional record {"a":, "lambda":, "m":} or
    the dimensional one {"r":, "K":, "q":, "H":, "p":, "d":}, as a JSON
    string or an already-parsed mapping; anything else, such as a JSON
    array, is a ValueError.  The values go to the constructor as they are,
    so :func:`finite_float` rejects a bool or a string there.
    """
    import json  # only this loader parses JSON

    record = json.loads(source) if isinstance(source, str) else source
    if not isinstance(record, Mapping):
        raise ValueError(f"parameter record must be a JSON object, got {type(record).__name__}")
    keys = set(record)
    if keys == _ND_KEYS:
        return Params(a=record["a"], lam=record["lambda"], m=record["m"])
    if keys == _RM_KEYS:
        return nondimensionalize(RMParams(**record))
    raise ValueError(
        f"unrecognized parameter record keys {sorted(keys)}; expected "
        f"{sorted(_ND_KEYS)} or {sorted(_RM_KEYS)}"
    )
