"""The deep-cycle limit m -> infinity, as an oracle for ``limit_cycle``.

Put x = m xi and T = m tau.  As m -> infinity the cycle splits into two
phases (Benoit, "Relation entree-sortie", C. R. Acad. Sci. Paris 293,
1981; De Maesschalck & Schecter, J. Differential Equations 260, 2016;
Hsu & Shi, Discrete Contin. Dyn. Syst. B 11, 2009):

- a fast phase, a degenerate Lotka-Volterra flow conserving
  E = xi + s - lam ln s, from the prey maximum (xi -> 0, s = s_max)
  through x_max (at s = lam) down to s_min, so E = s_max - lam ln s_max;
- a slow phase near x = 0, along which ds/dtau = h(s) s and ln x changes
  by m (F(s) - F(s_start)), with F the antiderivative of
  (s - lam) / (s h(s)):
  F(s) = -(lam/a) ln s - ((1 - lam)/(1 + a)) ln(1 - s)
         + ((a + lam)/(a (1 + a))) ln(s + a).

The fall of ln x from s_min to lam equals its rise from lam to s_max
(the entry-exit relation), so the cycle closes at F(s_max) = F(s_min),
one equation in s_max.  The limits of the four extremes follow:

- x_max/m -> E - lam + lam ln lam
- ln s_min -> the small root of e^w - lam w = E (``lv_small_root_ln``)
- ln x_min/m -> F(lam) - F(s_min)
- s_max -> the root, solved in t = ln(1 - s_max), since 1 - s_max is
  e^-42 at (a, lam) = (0.02, 0.03).

The limit is a helper of the tests only: no caller outside them needs it,
nor its m -> 0 counterpart ``fold_gap``, the Airy law of x_max at the
prey isocline's fold.
With ``canard_estimates``' m -> 0 limits it also checks the bounds
themselves over the whole proven box, where the simulator cannot go.
"""

import math
from typing import NamedTuple

import mpmath as mp
import pytest

from cyclebound import Params, canard_estimates, cycle_bounds, limit_cycle
from cyclebound.lvroot import lv_small_root_ln
from cyclebound.model import PROVEN_BOXES, log1m_exp


class DeepLimit(NamedTuple):
    t: float  # ln(1 - s_max)
    x_max: float  # x_max / m
    ln_s_min: float
    ln_x_min: float  # ln x_min / m


def deep_cycle_limit(a: float, lam: float) -> DeepLimit:
    """The m -> infinity limit of the cycle's extremes at (a, lam).

    G(t) = F(s_max) - F(s_min) falls from +inf as t -> -inf to the root
    and is negative between it and the trivial root s_max = lam, so a
    bisection bracket [lo, ln(1 - lam)] safeguards Newton's iteration on
    t, as in ``lv_small_root_ln``.  The root scales like -1/a (t = -993.5
    at (a, lam) = (1e-3, 1e-4)), so lo starts at -1000 and doubles until
    G(lo) > 0.
    """
    c_s, c_g, c_a = -lam / a, -(1.0 - lam) / (1.0 + a), (a + lam) / (a * (1.0 + a))

    def big_f(ln_s, ln_gap, s):
        return c_s * ln_s + c_g * ln_gap + c_a * math.log(s + a)

    def at(t):
        s_max = -math.expm1(t)
        energy = s_max - lam * log1m_exp(t)
        w = lv_small_root_ln(lam, energy)
        s_min = math.exp(w)
        g = big_f(log1m_exp(t), t, s_max) - big_f(w, math.log1p(-s_min), s_min)
        # dF(s_min)/dE = 1 / h(s_min) and dE/dt = -(1 - lam/s_max) e^t
        dg = (
            c_g - math.exp(t) * (c_s / s_max + c_a / (s_max + a))
            + math.exp(t) * (1.0 - lam / s_max) / ((1.0 - s_min) * (s_min + a))
        )
        return g, dg, energy, w, s_min

    lo, hi = -1000.0, math.log1p(-lam)
    while at(lo)[0] <= 0.0:
        lo, hi = 2.0 * lo, lo
    t = lo
    for _ in range(100):
        g, dg, energy, w, s_min = at(t)
        if g > 0.0:
            lo = t
        else:
            hi = t
        t_new = t - g / dg
        if abs(t_new - t) <= 1e-15 * max(1.0, abs(t_new)):
            break
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t = t_new
    else:
        raise AssertionError(f"no convergence at (a, lam) = ({a}, {lam})")
    return DeepLimit(
        t=t,
        x_max=energy - lam + lam * math.log(lam),
        ln_s_min=w,
        ln_x_min=big_f(math.log(lam), math.log1p(-lam), lam)
        - big_f(w, math.log1p(-s_min), s_min),
    )


# minus the first zero of Ai: the Airy constant of the fold's exit
OMEGA0 = -float(mp.airyaizero(1))


def fold_gap(a: float, lam: float, m: float) -> float:
    """The m -> 0 law of x_max above the prey isocline's fold, Omega0 eps^(2/3).

    At small m the cycle climbs the isocline's right branch and leaves at
    its fold s* = (1 - a)/2, x* = h(s*) = (1 + a)^2/4.  With sigma = s - s*,
    xi = x - x* and T = s* tau the flow near the fold is the Riccati
    equation dsigma/dT = -sigma^2 - xi, dxi/dT = eps, eps = m (s* - lam)
    x*/s*, which is Airy's: the trajectory leaves at xi = Omega0 eps^(2/3)
    + O(eps ln eps) (Mishchenko & Rozov, "Differential Equations with Small
    Parameters and Relaxation Oscillations", 1980; Krupa & Szmolyan,
    J. Differential Equations 174, 2001).
    """
    s_star, x_star = (1.0 - a) / 2.0, (1.0 + a) ** 2 / 4.0
    eps = m * (s_star - lam) * x_star / s_star
    return OMEGA0 * eps ** (2.0 / 3.0)


def _mp_limit(a, lam, start):
    """The limit at 40 digits by mpmath's root finder, from ``start``."""
    with mp.workdps(40):
        a, lam = mp.mpf(a), mp.mpf(lam)

        # F with ln(1 - s) passed in: at s_max it is t, as 1 - s_max may be
        # below 40 digits of 1 (e^-9984 at (1e-4, 1e-4))
        def big_f(s, ln_gap):
            return (-(lam / a) * mp.log(s) - ((1 - lam) / (1 + a)) * ln_gap
                    + ((a + lam) / (a * (1 + a))) * mp.log(s + a))

        def big_f_at(s):
            return big_f(s, mp.log(1 - s))

        def small_root(energy, w0):
            return mp.findroot(lambda w: mp.exp(w) - lam * w - energy, w0)

        def closing(t):
            s_max = 1 - mp.exp(t)
            w = small_root(s_max - lam * mp.log(s_max), start.ln_s_min)
            return big_f(s_max, t) - big_f_at(mp.exp(w))

        t = mp.findroot(closing, mp.mpf(start.t))
        s_max = 1 - mp.exp(t)
        energy = s_max - lam * mp.log(s_max)
        w = small_root(energy, start.ln_s_min)
        return DeepLimit(
            t=float(t),
            x_max=float(energy - lam + lam * mp.log(lam)),
            ln_s_min=float(w),
            ln_x_min=float(big_f_at(lam) - big_f_at(mp.exp(w))),
        )


# proven-box points: the corners of boxes A and B and two inside A
POINTS = [(0.05, 0.05), (0.1, 0.01), (0.02, 0.03), (0.01, 0.01)]


# (1e-4, 1e-4) lies in box A, where the root is below t = -1000
@pytest.mark.parametrize("a, lam", POINTS[:2] + [(1e-4, 1e-4)])
def test_the_deep_limit_is_its_40_digit_solution(a, lam):
    # at (0.05, 0.05): x_max/m = 0.80021324, ln x_min/m = -15.637576; at
    # (0.1, 0.01): 0.94373539 and -9.4329984
    got = deep_cycle_limit(a, lam)
    want = _mp_limit(a, lam, got)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-15)


# m times each extreme's gap to the limit is c0 + c1 ln m.  c1 is the
# reciprocal slope of F in the extreme's coordinate: 0 for x_max/m (E does
# not move with t once 1 - s_max is small), (1 + a)/(1 - lam) for t,
# a/lam for ln s_min and 1 for ln x_min/m, as a slow phase that starts at
# ln x = ln m + O(1) gives.  Measured: at every point above, m gap - c1 ln m
# agrees between m = 1e4 and 1e6 to 4 digits.  Without the ln m term the
# gaps of ln s_min and ln x_min/m shrink only 35x and 47x from m = 1e4 to
# 1e6 at (0.05, 0.05), and 41x for ln x_min/m at (0.1, 0.01).
LN_M_SLOPE = {
    "t": lambda a, lam: (1.0 + a) / (1.0 - lam),
    "x_max": lambda a, lam: 0.0,
    "ln_s_min": lambda a, lam: a / lam,
    "ln_x_min": lambda a, lam: 1.0,
}
# the band |m gap - c1 ln m| <= c: c fitted as 1.2 times the largest
# |c0| over the four points (0.59, 43.9, 45.1 and 50.7, all at
# (0.1, 0.01) or (0.01, 0.01))
BAND = {"t": 53.0, "x_max": 0.72, "ln_s_min": 55.0, "ln_x_min": 61.0}


def _extremes(p):
    ce = limit_cycle(p)
    assert ce.converged
    return DeepLimit(
        t=math.log(-math.expm1(ce.ln_s_max)),
        x_max=ce.x_max / p.m,
        ln_s_min=ce.ln_s_min,
        ln_x_min=ce.ln_x_min / p.m,
    )


@pytest.mark.parametrize("a, lam", POINTS)
def test_limit_cycle_approaches_the_deep_limit_like_1_over_m(a, lam):
    # m = 1e8 is left out: there m gap - c1 ln m moves by up to 0.7 from
    # its value at 1e4 and 1e6, the stepper's tolerance showing through
    limit = deep_cycle_limit(a, lam)
    residual = {}
    for m in (1e4, 1e6):
        sim = _extremes(Params(a, lam, m))
        for name, got, want in zip(DeepLimit._fields, sim, limit):
            r = m * (got - want) - LN_M_SLOPE[name](a, lam) * math.log(m)
            assert abs(r) <= BAND[name], (name, m, r)
            residual[name, m] = r / m
    for name in DeepLimit._fields:
        assert abs(residual[name, 1e6]) <= abs(residual[name, 1e4]) / 50.0, name


# (a, lam) of the fold law's test: r = (x_max - x*)/fold_gap at m = 1e-2
# and 1e-3 was 0.8311 and 0.8943 at (0.1, 0.1), 0.8820 and 0.9266 at
# (0.05, 0.05), 0.9036 and 0.9410 at (0.1, 0.01): 1 - r falls by 0.61-0.63
# per decade of m, as the next term's order eps^(1/3) ln eps does
FOLD_POINTS = [(0.1, 0.1), (0.05, 0.05), (0.1, 0.01)]


@pytest.mark.parametrize("a, lam", FOLD_POINTS)
def test_x_max_leaves_the_fold_by_the_airy_law(a, lam):
    # the evidence for the m -> 0 gap of acceptance criterion 6: x_max
    # stays above (1 + a)^2/4 by nearly Omega0 eps^(2/3), ever more nearly
    # as m falls
    x_star = (1.0 + a) ** 2 / 4.0
    r = {}
    for m in (1e-2, 1e-3):
        ce = limit_cycle(Params(a, lam, m))
        assert ce.converged
        r[m] = (ce.x_max - x_star) / fold_gap(a, lam, m)
        assert 0.8 <= r[m] < 1.0, (m, r[m])
    assert r[1e-3] > r[1e-2]
    assert 0.5 <= (1.0 - r[1e-3]) / (1.0 - r[1e-2]) <= 0.75, r


def _box_axis(top):
    """1e-4, the twelfths of a box side and its end, ``top`` itself: the
    twelfth ``top * 12 / 12`` can round past the box (0.05000000000000001)."""
    return (1e-4, *(top * i / 12 for i in range(1, 12)), top)


SMALL_M = 1e-9
# Each side's floor, below the smallest margin measured over the
# 13 x 13 grid of its box (given after it).  All sides but x_max/m lo
# are tightest on the lam = 1e-4 edge.
# - x_max/m and ln x_min/m at m = 1e8 and 1e12: the m-scaled bound's
#   distance to ``deep_cycle_limit``.
# - x_max_lo at m = 1e-9: x_max_lo - x_max_c = m g + O(m^2), with
#   g = (1 - a)/2 - lam (1 - ln(2 lam/(1 - a))) < (1 - a)/2 <= 2 x_max_c,
#   so x_max_lo <= x_max_c (1 + 2m) to first order; the margin is
#   2 - (x_max_lo/x_max_c - 1)/m (0 only in the limit a = lam = 0).
# - m lam ln s_min at m = 1e-9: the scaled bound's distance to m lam
#   ln_s_min_c, which converges as m -> 0.
LIMIT_FLOORS = {
    "A": {
        "x_max/m lo": 0.1,  # 0.189 at (0.05, 0.05)
        "x_max/m hi": 5e-4,  # 8.7e-4 at (1e-4, 1e-4)
        "ln x_min/m lo": 0.01,  # 0.0174 at (0.05, 1e-4)
        "ln x_min/m hi": 2.0,  # 4.03 at (0.05, 1e-4)
        "x_max_lo <= x_max_c (1 + 2m)": 1e-3,  # 4.4e-3 at (1e-4, 1e-4)
        "m lam ln s_min lo": 0.1,  # 0.229 at (0.05, 1e-4)
        "m lam ln s_min hi": 1e-4,  # 1.62e-4 at (0.05, 1e-4)
    },
    "B": {
        "x_max/m lo": 0.1,  # 0.198 at (0.1, 0.01)
        "x_max/m hi": 5e-4,  # 8.7e-4 at (1e-4, 1e-4)
        "ln x_min/m lo": 5e-3,  # 0.0104 at (0.0917, 1e-4)
        "ln x_min/m hi": 1.0,  # 2.01 at (0.1, 1e-4)
        "x_max_lo <= x_max_c (1 + 2m)": 1e-3,  # 4.4e-3 at (1e-4, 1e-4)
        "m lam ln s_min lo": 0.1,  # 0.209 at (0.1, 1e-4)
        "m lam ln s_min hi": 5e-5,  # 9.96e-5 at (0.1, 1e-4)
    },
}


def _limit_margins(a, lam):
    """(side, margin, m) of the bounds at (a, lam) against both limits."""
    limit = deep_cycle_limit(a, lam)
    margins = []
    for m in (1e8, 1e12):
        b = cycle_bounds(Params(a, lam, m))
        assert b.proven, (a, lam)
        margins += [
            ("x_max/m lo", limit.x_max - b.x_max_lo / m, m),
            ("x_max/m hi", b.x_max_hi / m - limit.x_max, m),
            ("ln x_min/m lo", limit.ln_x_min - b.ln_x_min_lo / m, m),
            ("ln x_min/m hi", b.ln_x_min_hi / m - limit.ln_x_min, m),
        ]
    p = Params(a, lam, SMALL_M)
    b, c = cycle_bounds(p), canard_estimates(p)
    m_lam = SMALL_M * lam
    return margins + [
        ("x_max_lo <= x_max_c (1 + 2m)", 2.0 - (b.x_max_lo / c.x_max_c - 1.0) / SMALL_M, SMALL_M),
        ("m lam ln s_min lo", m_lam * (c.ln_s_min_c - b.ln_s_min_lo), SMALL_M),
        ("m lam ln s_min hi", m_lam * (b.ln_s_min_hi - c.ln_s_min_c), SMALL_M),
    ]


@pytest.mark.parametrize("box", sorted(PROVEN_BOXES))
def test_the_bounds_contain_the_cycles_limits_over_the_proven_box(box):
    # a bound that crossed a limit would fail for every m beyond some point
    a_max, lam_max = PROVEN_BOXES[box]
    tightest = {}
    for a in _box_axis(a_max):
        for lam in _box_axis(lam_max):
            for side, margin, m in _limit_margins(a, lam):
                if side not in tightest or margin < tightest[side][0]:
                    tightest[side] = (margin, (a, lam, m))
    low = {}
    for side, (margin, point) in tightest.items():
        print(f"box {box}, {side}: margin {margin:.3g} at (a, lam, m) = {point}")
        if not margin >= LIMIT_FLOORS[box][side]:
            low[side] = margin
    assert low == {}
