"""Closed-form two-sided bounds for the limit-cycle extremes.

Four quantities are bounded: the predator maximum x_max (attained where
the cycle crosses s = lam going down), the prey minimum s_min, the
predator minimum x_min, and the prey maximum s_max.  The minima are
computed and stored as logarithms throughout, since their values
underflow double precision already for moderate m.

The bounds are proved for parameters in the box

    a <= 1/20 and lam <= 1/20,   or   a <= 1/10 and lam <= 1/100

(``Params.proven_region``); outside it the same formulas still
evaluate and can be requested with ``force=True``, in which case the
resulting :class:`BoundSet` carries ``proven=False``.  The lower x_max
barrier is anchored at :data:`S_MAX_LO`, the proven prey-maximum bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .lvroot import ZIndex, z
from .model import Params, h

__all__ = [
    "S_MAX_LO",
    "BoundSet",
    "CanardEstimates",
    "ExcursionBounds",
    "x_max_upper",
    "x_max_upper_refined",
    "x_max_upper_linear",
    "x_max_lower",
    "excursion_bounds",
    "cycle_bounds",
    "canard_estimates",
]

# the proven lower bound on the cycle's prey maximum, and the anchor of the
# x_max lower bound: V = x + m (s - lam ln s) grows along the cycle while
# s > lam, so a barrier anchored at z holds for z up to s_max; this is the
# highest anchor the proof covers, and every lower one gives a weaker bound
S_MAX_LO = 0.8


@dataclass(frozen=True)
class BoundSet:
    """All cycle-extreme bounds for one parameter triple.

    x bounds are linear-space, the two minima are log-space, and the
    prey maximum is bracketed by the constants (0.8, 1).  ``proven`` is
    False when the parameters lie outside the box where the estimates
    are established (forced evaluation).
    """

    x_max_lo: float
    x_max_hi: float
    ln_x_min_lo: float
    ln_x_min_hi: float
    ln_s_min_lo: float
    ln_s_min_hi: float
    s_max_lo: float = S_MAX_LO
    s_max_hi: float = 1.0
    proven: bool = True

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExcursionBounds:
    """Bounds for one deep-prey excursion launched at (u, lam_star).

    ln_s_lo/ln_s_hi bracket the minimal prey value (where the excursion
    meets x = h(s)); ln_x_lo/ln_x_hi bracket the predator value when it
    returns to s = lam_star.
    """

    ln_s_lo: float
    ln_s_hi: float
    ln_x_lo: float
    ln_x_hi: float


@dataclass(frozen=True)
class CanardEstimates:
    """Small-m canard approximations of the cycle extremes.

    Defined for any parameters but advertised as accurate only in the
    limit m -> 0, where the cycle hugs the prey isocline and jumps
    nearly vertically.
    """

    x_max_c: float
    x_min_c: float
    s_max_c: float
    ln_s_min_c: float

    def as_dict(self) -> dict:
        return asdict(self)


def _require_cycle(p: Params) -> None:
    if not p.cycle_regime:
        raise ValueError(
            f"no limit cycle: need 2*lam + a < 1, got margin {p.hopf_margin!r}"
        )


def _finite(name: str, value: float, p: Params) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows at m = {p.m!r}: got {value!r}")
    return value


def x_max_upper(p: Params) -> float:
    """Upper bound for the predator maximum.

    Comes from a rational barrier x = A v / (1 + B v) in v = 1 - s that
    trajectories cannot cross upward, evaluated at v = 1:

        (1 + m + a - m lam)(1 + 2m + a - 2m lam) / (2(m+1) + a - m lam).

    Raises ValueError naming m where the product overflows (m ~ 1e154).
    """
    _require_cycle(p)
    a, lam, m = p.a, p.lam, p.m
    value = (
        (1.0 + m + a - m * lam)
        * (1.0 + 2.0 * m + a - 2.0 * m * lam)
        / (2.0 * (m + 1.0) + a - m * lam)
    )
    return _finite("x_max_upper", value, p)


def x_max_upper_refined(p: Params) -> float:
    """Sharper variant of :func:`x_max_upper`.

    Evaluates the same barrier at v = 1 - lam (the isocline itself)
    instead of v = 1, so it never exceeds :func:`x_max_upper` and
    coincides with it as lam -> 0; like it, raises where it overflows.
    """
    _require_cycle(p)
    a, lam, m = p.a, p.lam, p.m
    L = 1.0 - lam
    value = (
        (1.0 + a + 2.0 * m * L)
        * (1.0 + a + m * L)
        * L
        / (1.0 + a + (1.0 + 2.0 * m + m * lam) * L)
    )
    return _finite("x_max_upper_refined", value, p)


def x_max_upper_linear(p: Params) -> float:
    """Crude linear-in-m upper bound 1 + a + m(1 - lam).

    The slope of the escaping eigendirection at the saddle (0, 1);
    dominates :func:`x_max_upper` everywhere.
    """
    return 1.0 + p.a + p.m * (1.0 - p.lam)


def _x_max_lower_objective(zval: float, p: Params) -> float:
    lam_term = 0.0 if p.lam == 0.0 else p.lam * (1.0 - math.log(p.lam) + math.log(zval))
    return h(zval, p) + p.m * (zval - lam_term)


def x_max_lower(p: Params) -> float:
    """Lower bound for the predator maximum.

    Maximizes h(z) + m (z - lam (1 - ln lam + ln z)) over
    z in [(1-a)/2, S_MAX_LO], the best barrier anchored between the
    vertex of the prey isocline and the proven prey-maximum bound 0.8
    (a barrier holds only up to the cycle's prey maximum).  The
    stationary points solve -2 z^2 + (1 - a + m) z - m lam = 0; the
    larger root clamped to the interval is the maximizer (the objective
    is unimodal there), and both endpoints are compared as well for
    safety.
    """
    _require_cycle(p)
    lo = 0.5 * (1.0 - p.a)
    b = 1.0 - p.a + p.m
    disc = b * b - 8.0 * p.m * p.lam  # >= 0 for all cycle-regime parameters
    z_star = 0.25 * (b + math.sqrt(max(disc, 0.0)))
    z_star = min(max(z_star, lo), S_MAX_LO)
    return max(
        _x_max_lower_objective(z_star, p),
        _x_max_lower_objective(lo, p),
        _x_max_lower_objective(S_MAX_LO, p),
    )


def excursion_bounds(u: float, lambda_star: float, p: Params) -> ExcursionBounds:
    """Bounds for the trajectory launched at (u, lambda_star), u > h(lambda_star).

    Such a trajectory dives below s = lambda_star, grazes x = h(s) at
    its minimal prey value s_u and climbs back to s = lambda_star at a
    predator value v.  Comparison integrals with the frozen isocline
    heights a and h(lambda_star) give

        ln s_u  in  ( ln l* - (u - a - a ln(u/a)) / (m l*) - 1,
                      ln l* - (u - a - h(l*) ln(u/a)) / (m l*) ),
        ln v    in  ( ln(z1(u/a) u) - u/a,
                      ln(z2(u/h(l*)) u) - u/h(l*) ).
    """
    if not (0.0 < lambda_star <= p.lam):
        raise ValueError(
            f"lambda_star must lie in (0, lam] = (0, {p.lam!r}], got {lambda_star!r}"
        )
    H = h(lambda_star, p)
    if not u > H:
        raise ValueError(f"need u > h(lambda_star) = {H!r}, got u = {u!r}")
    a, m = p.a, p.m
    ratio = math.log(u / a)
    ln_ls = math.log(lambda_star)
    # m = 0 is the limit where the excursion dives infinitely deep
    scale = math.inf if m == 0.0 else 1.0 / (m * lambda_star)
    ln_s_lo = ln_ls - (u - a - a * ratio) * scale - 1.0
    ln_s_hi = ln_ls - (u - a - H * ratio) * scale
    ln_u = math.log(u)
    ln_x_lo = math.log(z(ZIndex.Z1, u / a)) + ln_u - u / a
    ln_x_hi = math.log(z(ZIndex.Z2, u / H)) + ln_u - u / H
    return ExcursionBounds(ln_s_lo, ln_s_hi, ln_x_lo, ln_x_hi)


def cycle_bounds(p: Params, force: bool = False) -> BoundSet:
    """Assemble the full :class:`BoundSet` for one parameter triple.

    Rejects parameters outside the proven box unless ``force`` is set,
    in which case the bounds are still evaluated but flagged unproven.
    """
    _require_cycle(p)
    x_lo = x_max_lower(p)
    if not force and not p.proven_region:
        raise ValueError(
            f"(a, lam) = ({p.a!r}, {p.lam!r}) is outside the proven parameter "
            "box; pass force=True to evaluate anyway (bounds flagged unproven)"
        )
    x_hi = x_max_upper(p)
    hi_launch = excursion_bounds(x_hi, p.lam, p)
    lo_launch = excursion_bounds(x_lo, p.lam, p)
    return BoundSet(
        x_max_lo=x_lo,
        x_max_hi=x_hi,
        ln_x_min_lo=hi_launch.ln_x_lo,
        ln_x_min_hi=lo_launch.ln_x_hi,
        ln_s_min_lo=hi_launch.ln_s_lo,
        ln_s_min_hi=lo_launch.ln_s_hi,
        proven=p.proven_region,
    )


def canard_estimates(p: Params) -> CanardEstimates:
    """Slow-drift approximations of the extremes for small m.

    As m -> 0 the cycle drops vertically from the vertex of the prey
    isocline, so x_max ~ (1+a)^2/4, the predator decays to
    x_min ~ x_max e^{-x_max/a} before the prey jumps back up to the
    isocline, landing at the large root of h(s) = x_min:

        s_max ~ (1-a)/2 + sqrt((1-a)^2/4 + a - x_min),

    and the prey minimum follows from matching the conserved quantity
    of the frozen comparison system between the drop and the graze:

        ln s_min ~ (v - a (ln a - 1)) / (m lam),   v = a ln x_max - x_max.
    """
    a = p.a
    x_max_c = 0.25 * (1.0 + a) * (1.0 + a)
    x_min_c = x_max_c * math.exp(-x_max_c / a) if a > 0 else 0.0
    s_max_c = 0.5 * (1.0 - a) + math.sqrt(0.25 * (1.0 - a) ** 2 + a - x_min_c)
    v = a * math.log(x_max_c) - x_max_c if a > 0 else -x_max_c
    denom = p.m * p.lam
    ln_s_min_c = (v - a * (math.log(a) - 1.0)) / denom if denom > 0 else -math.inf
    return CanardEstimates(x_max_c, x_min_c, s_max_c, ln_s_min_c)
