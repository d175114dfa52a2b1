"""Nondimensional predator-prey model: parameters, vector fields, regions.

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
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

__all__ = [
    "PROVEN_BOXES",
    "Params",
    "RMParams",
    "State",
    "LogState",
    "Region",
    "h",
    "hopf_margin",
    "require_cycle",
    "finite_float",
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


@dataclass(frozen=True)
class Params:
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
    bounds is proved.
    """

    a: float
    lam: float
    m: float
    limit: bool = False
    h_lam: float = field(init=False, repr=False, compare=False)
    hopf_margin: float = field(init=False, repr=False, compare=False)
    cycle_regime: bool = field(init=False, repr=False, compare=False)
    proven_region: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("a", "lam", "m"):
            val = finite_float(name, getattr(self, name))
            if val < 0.0 or (val == 0.0 and not self.limit):
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


@dataclass(frozen=True)
class RMParams:
    """Dimensional Rosenzweig-MacArthur rates and capacities.

    r: prey intrinsic growth rate, K: prey carrying capacity,
    q: maximal predator consumption rate, H: half-saturation prey amount,
    p: conversion efficiency rate, d: predator per-capita death rate.

    q cancels from the nondimensional system; it is kept only for input
    fidelity.  p > d is required, otherwise the predator cannot grow on
    any prey density and there is no cycle to bound.
    """

    r: float
    K: float
    q: float
    H: float
    p: float
    d: float

    def __post_init__(self) -> None:
        for name in ("r", "K", "q", "H", "p", "d"):
            val = finite_float(name, getattr(self, name))
            if not val > 0.0:
                raise ValueError(f"{name} must be > 0, got {val!r}")
            object.__setattr__(self, name, val)
        if not self.p > self.d:
            raise ValueError(f"p must exceed d, got p={self.p}, d={self.d}")


@dataclass(frozen=True)
class State:
    """Phase point (x, s) in the open positive quadrant."""

    x: float
    s: float

    def __post_init__(self) -> None:
        for name in ("x", "s"):
            object.__setattr__(self, name, finite_float(name, getattr(self, name)))
        if not (self.x > 0.0 and self.s > 0.0):
            raise ValueError(f"state must have x > 0 and s > 0, got ({self.x}, {self.s})")

    def log(self) -> "LogState":
        return LogState(math.log(self.x), math.log(self.s))


@dataclass(frozen=True)
class LogState:
    """Log-space image (u, v) = (ln x, ln s) of a phase point.

    Defined for all real (u, v); the exp-image is positive by
    construction, which is why all integration happens here.
    """

    u: float
    v: float


class Region(Enum):
    """Phase-plane regions cut by the isoclines x = h(s) and s = lam.

    The four open regions are visited cyclically R1 -> R2 -> R3 -> R4 by
    every positive non-equilibrium trajectory.  The simulator labels
    points (``Trajectory.region_labels``) and assigns a boundary tag
    only where an isocline's event function is exactly zero; event logic
    near the isoclines belongs to its root bracketing.
    """

    R1 = "R1"  # x > h(s), s > lam: predator grows, prey declines
    R2 = "R2"  # x > h(s), s < lam: both decline
    R3 = "R3"  # x < h(s), s < lam: predator declines, prey recovers
    R4 = "R4"  # x < h(s), s > lam: both grow
    ON_ISOCLINE_H = "isocline_h"
    ON_ISOCLINE_LAMBDA = "isocline_lambda"
    EQUILIBRIUM = "equilibrium"


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
