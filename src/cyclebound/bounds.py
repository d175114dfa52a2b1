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

# bound at import: a global load per use, not a global and a module-attribute load
from math import exp, inf, isfinite, log, sqrt
from typing import NamedTuple

from ._arith import MATH
# z is not called here: perfbench's tracer hooks bounds.z by name (ROADMAP item 1(a))
from .lvroot import ZIndex, _z, z
from .model import Params, h, require_cycle

__all__ = [
    "S_MAX_LO",
    "BoundSet",
    "CanardEstimates",
    "x_max_upper",
    "x_max_upper_refined",
    "x_max_upper_linear",
    "x_max_lower",
    "cycle_bounds",
    "canard_estimates",
]

# the proven lower bound on the cycle's prey maximum, and the anchor of the
# x_max lower bound: V = x + m (s - lam ln s) grows along the cycle while
# s > lam, so a barrier anchored at z holds for z up to s_max; this is the
# highest anchor the proof covers, and every lower one gives a weaker bound
S_MAX_LO = 0.8

_Z1, _Z2 = ZIndex.Z1, ZIndex.Z2  # read once: an Enum class attribute is a slow read
# the tuple constructor, read once: a record built by it skips the generated __new__'s frame
_new_tuple = tuple.__new__


class BoundSet(NamedTuple):
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
        return self._asdict()


class CanardEstimates(NamedTuple):
    """Small-m canard approximations of the cycle extremes.

    Defined for any parameters.  As m -> 0, where the cycle hugs the prey
    isocline and jumps nearly vertically, only ``x_max_c`` and
    ``ln_s_min_c`` converge to the cycle's values.  ``x_min_c`` and
    ``s_max_c`` keep a gap: at a = lam = 0.1 the simulated ln x_min stays
    0.160-0.172 above ln x_min_c, and s_max 2.6e-3 (relative) below
    s_max_c, for m from 1e-4 to 1e-5 (ROADMAP item 10).
    """

    x_max_c: float
    x_min_c: float
    s_max_c: float
    ln_s_min_c: float

    def as_dict(self) -> dict:
        return self._asdict()


def _finite(name: str, value: float, p: Params) -> float:
    if not isfinite(value):
        raise ValueError(f"{name} overflows at m = {p.m!r}: got {value!r}")
    return value


def x_max_upper(p: Params) -> float:
    """Upper bound for the predator maximum.

    Comes from a rational barrier x = A v / (1 + B v) in v = 1 - s that
    trajectories cannot cross upward, evaluated at v = 1:

        (1 + m + a - m lam)(1 + 2m + a - 2m lam) / (2(m+1) + a - m lam).

    Raises ValueError naming m where the product overflows (m ~ 1e154).
    """
    require_cycle(p)
    return _finite("x_max_upper", _x_max_upper(p.a, p.lam, p.m), p)


def _x_max_upper(a: float, lam: float, m: float) -> float:
    """:func:`x_max_upper`'s formula, with no cycle check and no overflow check."""
    return (
        (1.0 + m + a - m * lam)
        * (1.0 + 2.0 * m + a - 2.0 * m * lam)
        / (2.0 * (m + 1.0) + a - m * lam)
    )


def x_max_upper_refined(p: Params) -> float:
    """Sharper variant of :func:`x_max_upper`.

    Evaluates the same barrier at v = 1 - lam (the isocline itself)
    instead of v = 1, so it never exceeds :func:`x_max_upper` and
    coincides with it as lam -> 0; like it, raises where it overflows.
    """
    require_cycle(p)
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


def x_max_lower(p: Params) -> float:
    """Lower bound for the predator maximum.

    Maximizes f(z) = h(z) + m (z - lam (1 - ln lam + ln z)) over
    z in [(1-a)/2, S_MAX_LO], the best barrier anchored between the
    vertex of the prey isocline and the proven prey-maximum bound 0.8
    (a barrier holds only up to the cycle's prey maximum), by one
    evaluation at the larger root of q clamped to the interval, where

        f'(z) = q(z) / z,   q(z) = -2 z^2 + (1 - a + m) z - m lam.

    Certificate: q(lam) = lam (1 - a - 2 lam) > 0 in the cycle regime,
    so q's smaller root lies below lam < (1-a)/2 and f rises then falls
    on the interval.  The limits hold too: at lam = 0 the lam term
    vanishes and f' = 1 - a + m - 2z, and at m = 0 the larger root is
    (1-a)/2 itself.  Where 8m overflows (m above about 2.2e307) the
    discriminant is inf - inf, read as 0: z* = b/4 then clamps to
    S_MAX_LO, as the larger root itself does at any such m.
    """
    if not p.cycle_regime:
        require_cycle(p)  # raises
    a, lam, m = p.a, p.lam, p.m
    lo = 0.5 * (1.0 - a)
    b = 1.0 - a + m
    disc = b * b - 8.0 * m * lam  # >= 0 in the cycle regime; NaN once 8 m overflows
    # max(disc, 0), max(x, lo) and min(x, hi) without builtin calls: the first
    # reads NaN as 0, the others keep x unless the bound is strictly past it
    z_star = 0.25 * (b + sqrt(disc if disc > 0.0 else 0.0))
    z_star = lo if lo > z_star else z_star
    z_star = S_MAX_LO if S_MAX_LO < z_star else z_star
    lam_term = 0.0 if lam == 0.0 else lam * (1.0 - log(lam) + log(z_star))
    return h(z_star, p) + m * (z_star - lam_term)


def _minima(u1: float, u2: float, p: Params) -> tuple[float, float, float, float]:
    """(ln_x_min_lo, ln_x_min_hi, ln_s_min_lo, ln_s_min_hi): the lower ends of
    the launch at (u1, lam) and the upper ends of the launch at (u2, lam).

    z's factors run in its kernel, with no read and no check, because the
    premises of :func:`cycle_bounds`, its caller (p in the cycle regime,
    u1 = x_max_upper(p) and u2 = x_max_lower(p)), already put both
    arguments in the kernel's domain [1, inf):

    - h(lam) = (1 - lam)(lam + a) > 0, each factor positive (a, lam > 0
      are checked here, and 2 lam + a < 1).
    - y2 = u2/h(lam) >= 1: u2 > h(lam) is checked, so the exact quotient
      exceeds 1, and rounding is monotone.
    - y1 = u1/a >= 1 with a wide margin: x_max_upper(p) exceeds 4a/3 in
      the whole cycle regime (its m -> 0 value (1 + a)^2/(2 + a) does,
      and it grows with m), far beyond its few ulps of roundoff.
    - y1 < inf is checked, and y2 < y1: u2 < 0.8 u1 (sampled over the
      cycle regime; 0.8 is the ratio's limit as m -> inf and lam -> 0)
      and h(lam) >= a up to roundoff, as h(lam) - a = lam (1 - lam - a) > 0.
    """
    a, lam, H = p.a, p.lam, p.h_lam
    if not (u1 > H and u2 > H):
        raise ValueError(f"need u > h(lam) = {H!r}, got u = {(u2 if u1 > H else u1)!r}")
    if a == 0.0:
        raise ValueError(f"the minima bounds need a > 0 (they divide by a), got a = {a!r}")
    if lam == 0.0:
        raise ValueError(
            f"the minima bounds need lam > 0 (they launch on s = lam), got lam = {lam!r}"
        )
    y1, y2 = u1 / a, u2 / H
    if not y1 < inf:
        raise ValueError(f"minima bounds overflow at a = {a!r}: u/a = {y1!r}")
    ln_lam = log(lam)
    # the depth scale, infinite at m = 0 (an infinitely deep dive) and where m lam underflows
    m_lam = p.m * lam
    scale = inf if m_lam == 0.0 else 1.0 / m_lam
    return (
        log(_z(MATH, _Z1, y1)) + log(u1) - y1,
        log(_z(MATH, _Z2, y2)) + log(u2) - y2,
        ln_lam - (u1 - a - a * log(y1)) * scale - 1.0,
        ln_lam - (u2 - a - H * log(u2 / a)) * scale,
    )


def cycle_bounds(p: Params, force: bool = False) -> BoundSet:
    """Assemble the full :class:`BoundSet` for one parameter triple.

    The minima bounds come from excursions launched on s = lam.  The
    trajectory from (u, lam), u > h(lam), dives below s = lam, grazes
    x = h(s) at its minimal prey value s_u and climbs back to s = lam at
    a predator value v.  Comparison integrals with the frozen isocline
    heights a and h(lam) give

        ln s_u  in  ( ln lam - (u - a - a ln(u/a)) / (m lam) - 1,
                      ln lam - (u - a - h(lam) ln(u/a)) / (m lam) ),
        ln v    in  ( ln(z1(u/a) u) - u/a,
                      ln(z2(u/h(lam)) u) - u/h(lam) ).

    The lower ends come from the height a alone and the upper ends from
    h(lam) alone, so one helper, ``_minima``, checks the launches once and
    evaluates the lower ends of the launch at x_max_hi and the upper ends
    of the launch at x_max_lo.  It raises ValueError at a = 0, where u/a
    does not exist, at lam = 0, and where u/a overflows (subnormal a).
    Near the Hopf point at small m (relative margin 1e-8 at m = 1e-3),
    x_max_lo rounds to h(lam) and no excursion launches: that ValueError
    names (a, lam, m).

    Rejects parameters outside the proven box unless ``force`` is set,
    in which case the bounds are still evaluated but flagged unproven.
    """
    x_lo = x_max_lower(p)  # raises first where there is no cycle
    if not force and not p.proven_region:
        raise ValueError(
            f"(a, lam) = ({p.a!r}, {p.lam!r}) is outside the proven parameter "
            "box; pass force=True to evaluate anyway (bounds flagged unproven)"
        )
    x_hi = _x_max_upper(p.a, p.lam, p.m)  # x_max_lower checked the cycle regime
    if not x_hi < inf:
        _finite("x_max_upper", x_hi, p)  # raises: inf or NaN
    try:
        ln_x_lo, ln_x_hi, ln_s_lo, ln_s_hi = _minima(x_hi, x_lo, p)
    except ValueError as err:
        if x_lo > p.h_lam:
            raise
        # x_hi > (1 + a)^2/(2 + a) > h(lam) always, so the launch from x_lo failed
        raise ValueError(
            f"(a, lam, m) = ({p.a!r}, {p.lam!r}, {p.m!r}) is too close to the Hopf "
            f"point (margin {p.hopf_margin!r}) for the minima bounds: x_max_lower "
            f"rounds to h(lam) = {p.h_lam!r} or below, where no excursion launches"
        ) from err
    return _new_tuple(
        BoundSet, (x_lo, x_hi, ln_x_lo, ln_x_hi, ln_s_lo, ln_s_hi, S_MAX_LO, 1.0, p.proven_region)
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
    x_min_c = x_max_c * exp(-x_max_c / a) if a > 0 else 0.0
    s_max_c = 0.5 * (1.0 - a) + sqrt(0.25 * (1.0 - a) ** 2 + a - x_min_c)
    # v - a (ln a - 1), whose a -> 0 limit is -x_max
    dv = a * log(x_max_c) - x_max_c - a * (log(a) - 1.0) if a > 0 else -x_max_c
    denom = p.m * p.lam
    ln_s_min_c = dv / denom if denom > 0 else -inf
    return _new_tuple(CanardEstimates, (x_max_c, x_min_c, s_max_c, ln_s_min_c))
