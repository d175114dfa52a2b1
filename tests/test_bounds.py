import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cyclebound.bounds import (
    S_MAX_LO,
    canard_estimates,
    cycle_bounds,
    excursion_bounds,
    x_max_lower,
    x_max_upper,
    x_max_upper_linear,
    x_max_upper_refined,
)
from cyclebound.harness import REFERENCE_SPECS
from cyclebound.lvroot import ZIndex, z
from cyclebound.model import Params, State, h
from cyclebound.simulator import SimConfig, integrate

# the grid every proven-box property test samples: the main reference
# grid, plus m = 20
_MAIN = REFERENCE_SPECS[0]
PROVEN_GRID = [
    Params(a=a, lam=lam, m=m)
    for a in _MAIN.a_values
    for lam in _MAIN.lambda_values
    for m in _MAIN.m_values + (20.0,)
]


def x_max_lower_grid_oracle(p: Params, anchor: float) -> float:
    """Refined 1-D grid search for the barrier maximum on [(1 - a)/2, anchor],
    no calculus."""
    lo = 0.5 * (1.0 - p.a)

    def obj(zv):
        return h(zv, p) + p.m * (zv - p.lam * (1 - math.log(p.lam) + math.log(zv)))

    a, b = lo, anchor
    for _ in range(6):
        zs = np.linspace(a, b, 10_000)
        vals = [obj(float(zv)) for zv in zs]
        k = int(np.argmax(vals))
        a = zs[max(k - 1, 0)]
        b = zs[min(k + 1, len(zs) - 1)]
    return max(obj(0.5 * (a + b)), obj(lo), obj(anchor))


def test_x_max_upper_values():
    assert x_max_upper(Params(a=0, lam=0, m=1, limit=True)) == pytest.approx(1.5)
    assert x_max_upper(Params(a=0.1, lam=0.1, m=1)) == pytest.approx(1.45)
    assert x_max_upper(Params(a=0.05, lam=0.05, m=1)) == pytest.approx(1.475)


def test_growth_arc_keeps_v2_and_stays_under_x_max_barrier():
    # the two barrier facts behind the x_max bounds, along the arc from
    # (h(s0), s0) to the first predator maximum: V2 = m (s - lam ln s) + x
    # does not decrease while s > lam, and the arc stays below the escape
    # barrier x = A v / (1 + B v), v = 1 - s, whose value at v = 1 is
    # x_max_upper.  Only step samples are read: a chord between accepted
    # steps can dip below the monotone envelope.
    p = Params(a=0.05, lam=0.05, m=1.0)
    traj = integrate(State(h(S_MAX_LO, p), S_MAX_LO), p, SimConfig())
    n = len(traj.taus)
    idx = np.unique(np.linspace(0, n - 1, min(1500, n)).astype(int))
    x = np.exp(traj.points[idx, 0])
    s = np.exp(traj.points[idx, 1])
    v2 = p.m * (s - p.lam * np.log(s)) + x
    A = 1.0 + p.m + p.a - p.m * p.lam
    B = (1.0 + p.m * p.lam) / (1.0 + p.a + 2.0 * p.m * (1.0 - p.lam))
    v = 1.0 - s
    assert np.min(np.diff(v2)) >= -1e-12
    assert np.max(x - A * v / (1.0 + B * v)) < 0
    assert 0 < len(idx) <= 1500
    assert A / (1.0 + B) == pytest.approx(x_max_upper(p), rel=1e-15)


def test_x_max_upper_raises_instead_of_overflowing():
    # the products overflow near m = 1e154; a finite value keeps its form
    assert math.isfinite(x_max_upper(Params(a=0.05, lam=0.05, m=9.9e153)))
    for m in (1e300, 1e308):
        for bound in (x_max_upper, x_max_upper_refined):
            with pytest.raises(ValueError, match=re.escape(f"overflows at m = {m!r}")):
                bound(Params(a=0.05, lam=0.05, m=m))


def test_x_max_upper_refined_reduces_to_plain_at_lam_zero():
    for a, m in [(0.0, 1.0), (0.05, 0.3), (0.02, 5.0)]:
        p = Params(a=a, lam=0.0, m=m, limit=True)
        assert x_max_upper_refined(p) == pytest.approx(x_max_upper(p), rel=1e-14)


def test_x_max_upper_refined_never_exceeds_plain():
    for p in PROVEN_GRID:
        assert x_max_upper_refined(p) < x_max_upper(p)
    # direct arithmetic spot value at a = lam = 0.05, m = 1: L = 0.95
    p = Params(a=0.05, lam=0.05, m=1.0)
    L = 0.95
    expect = (1.05 + 2 * L) * (1.05 + L) * L / (1.05 + (1 + 2 + 0.05) * L)
    assert x_max_upper_refined(p) == pytest.approx(expect, rel=1e-14)


def test_x_max_upper_refined_spot_values_outside_proven_box():
    for a, lam, m in [(0.05, 0.05, 1.0), (0.1, 0.1, 2.0)]:
        p = Params(a=a, lam=lam, m=m)
        assert x_max_upper_refined(p) < x_max_upper(p)


def test_x_max_upper_linear():
    assert x_max_upper_linear(Params(a=0, lam=0, m=1, limit=True)) == pytest.approx(2.0)
    assert x_max_upper_linear(Params(a=0.1, lam=0.1, m=1)) == pytest.approx(2.0)
    for p in PROVEN_GRID:
        assert x_max_upper_linear(p) >= x_max_upper(p)


def test_x_max_lower_m_zero_limit_is_parabola_vertex():
    p = Params(a=0.05, lam=0.05, m=0.0, limit=True)
    assert x_max_lower(p) == pytest.approx(1.05**2 / 4, rel=1e-14)


def test_x_max_lower_matches_grid_oracle():
    p = Params(a=0.05, lam=0.05, m=1.0)
    val = x_max_lower(p)
    assert val == pytest.approx(x_max_lower_grid_oracle(p, S_MAX_LO), rel=1e-10)
    assert val == pytest.approx(0.7813705638880108, rel=1e-12)  # frozen oracle value
    # a couple of interior-maximizer cases as well
    for p in (Params(a=0.05, lam=0.05, m=0.1), Params(a=0.01, lam=0.01, m=0.05)):
        assert x_max_lower(p) == pytest.approx(
            x_max_lower_grid_oracle(p, S_MAX_LO), rel=1e-10
        )


def test_x_max_lower_is_anchored_at_the_proven_prey_maximum():
    # a barrier anchored at z holds only up to the cycle's s_max, which is
    # proven to exceed S_MAX_LO = 0.8 and no more: a higher anchor would be
    # unproven and every lower one is weaker, so the anchor is a constant
    assert S_MAX_LO == 0.8
    for p in (
        Params(a=0.05, lam=0.05, m=0.1),  # interior maximizer
        Params(a=0.05, lam=0.05, m=1.0),  # maximizer clamped to the anchor
        Params(a=0.1, lam=0.01, m=5.0),
    ):
        val = x_max_lower(p)
        assert val == pytest.approx(x_max_lower_grid_oracle(p, S_MAX_LO), rel=1e-10)
        for anchor in (0.6, 0.7, 0.75, 0.79):
            assert x_max_lower_grid_oracle(p, anchor) <= val * (1.0 + 1e-12), (p, anchor)
    p = Params(a=0.05, lam=0.05, m=1.0)
    assert x_max_lower_grid_oracle(p, 0.79) < x_max_lower(p)


def test_default_anchor_is_proven():
    # the anchor is the proven prey-maximum bound, so bounds in the proven
    # box are proven, and the bound set carries no anchor of its own
    b = cycle_bounds(Params(a=0.05, lam=0.05, m=1.0))
    assert b.proven and b.s_max_lo == S_MAX_LO
    assert "s0" not in b.as_dict()


def test_bound_ordering_on_proven_grid():
    for p in PROVEN_GRID:
        lo = x_max_lower(p)
        hi_r = x_max_upper_refined(p)
        hi = x_max_upper(p)
        hi_l = x_max_upper_linear(p)
        assert lo < hi_r <= hi <= hi_l, (p, lo, hi_r, hi, hi_l)


def lv_return_oracle(u: float, lam_star: float, a: float, m: float) -> float:
    """Integrate the frozen-height comparison system from (u, lam_star).

    The system x' = m (s - lam_star) x, s' = (a - x) s conserves
    x - a ln x + m (s - lam_star ln s); its trajectory from (u, lam_star)
    dips below s = lam_star and returns to it at the comparison value of
    the predator, which this oracle reads off a dense integration in log
    space (independent of the closed-form root machinery).
    """

    def rhs(t, y):
        lx, ls = y
        return [m * (math.exp(ls) - lam_star), a - math.exp(lx)]

    def back_at_section(t, y):
        return y[1] - math.log(lam_star)

    back_at_section.terminal = True
    back_at_section.direction = 1

    sol = solve_ivp(
        rhs,
        (0.0, 1e8),
        [math.log(u), math.log(lam_star) - 1e-12],
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        events=back_at_section,
    )
    assert sol.y_events[0].size, "comparison orbit never returned"
    return math.exp(sol.y_events[0][-1][0])


def test_excursion_bounds_ordering_and_oracle():
    p = Params(a=0.05, lam=0.05, m=1.0)
    eb = excursion_bounds(1.0, 0.05, p)
    assert eb.ln_s_lo < eb.ln_s_hi
    assert eb.ln_x_lo < eb.ln_x_hi
    # launch shallow enough (u/a = 5) that the z1/z2 sandwich around the
    # frozen-a return value is far wider than the oracle's accuracy
    u = 0.25
    eb = excursion_bounds(u, 0.05, p)
    v_cmp = lv_return_oracle(u, 0.05, p.a, p.m)
    y = u / p.a
    z1_product = z(ZIndex.Z1, y) * u * math.exp(-y)
    z2_product = z(ZIndex.Z2, y) * u * math.exp(-y)
    assert z1_product < v_cmp < z2_product
    assert math.exp(eb.ln_x_lo) == pytest.approx(z1_product, rel=1e-13)
    assert v_cmp < math.exp(eb.ln_x_hi)


def test_excursion_bounds_validation():
    p = Params(a=0.05, lam=0.05, m=1.0)
    with pytest.raises(ValueError):
        excursion_bounds(0.05, 0.05, p)  # u below h(lam*)
    with pytest.raises(ValueError):
        excursion_bounds(1.0, 0.2, p)  # lam* above lam


def test_excursion_upper_product_boundary_limit():
    # as u -> h(lam*)+ the z2 product tends to h(lam*) * e * e^{-1} = h(lam*)
    p = Params(a=0.05, lam=0.05, m=1.0)
    H = p.h_lam
    for eps in (1e-4, 1e-6):
        u = H * (1 + eps)
        eb = excursion_bounds(u, p.lam, p)
        assert math.exp(eb.ln_x_hi) == pytest.approx(H, rel=1e-2)


def test_min_bounds_intervals():
    for q in PROVEN_GRID:
        b = cycle_bounds(q)
        assert b.ln_s_min_lo < b.ln_s_min_hi, q
        assert b.ln_x_min_lo < b.ln_x_min_hi, q
        assert b.ln_s_min_hi < math.log(q.lam), q  # prey minimum bound sits below lam


def test_s_min_bounds_stay_bounded_in_m():
    # the m-dependence cancels at leading order, so the bounds stay O(1/lam)
    for m in np.linspace(1.0, 100.0, 25):
        b = cycle_bounds(Params(a=0.05, lam=0.05, m=float(m)))
        assert -60.0 < b.ln_s_min_lo < b.ln_s_min_hi < 0.0


def test_x_min_bounds_log_path_deep():
    b = cycle_bounds(Params(a=0.05, lam=0.05, m=5.0))
    assert b.ln_x_min_lo < -90.0
    assert math.isfinite(b.ln_x_min_lo) and math.isfinite(b.ln_x_min_hi)
    # z factors stay inside (1, e) across the proven grid
    for q in PROVEN_GRID:
        y_lo = x_max_upper(q) / q.a
        y_hi = x_max_lower(q) / q.h_lam
        assert 1.0 <= z(ZIndex.Z1, y_lo) < math.e
        assert 1.0 <= z(ZIndex.Z2, y_hi) < math.e


def test_min_bounds_share_the_excursion_code_path():
    p = Params(a=0.02, lam=0.03, m=2.0)
    hi_launch = excursion_bounds(x_max_upper(p), p.lam, p)
    lo_launch = excursion_bounds(x_max_lower(p), p.lam, p)
    b = cycle_bounds(p)
    assert (b.ln_s_min_lo, b.ln_s_min_hi) == (hi_launch.ln_s_lo, lo_launch.ln_s_hi)
    assert (b.ln_x_min_lo, b.ln_x_min_hi) == (hi_launch.ln_x_lo, lo_launch.ln_x_hi)


def test_cycle_bounds_orderings_and_gate():
    b = cycle_bounds(Params(a=0.05, lam=0.05, m=1.0))
    assert b.proven
    assert b.x_max_lo < b.x_max_hi
    assert b.ln_x_min_lo < b.ln_x_min_hi
    assert b.ln_s_min_lo < b.ln_s_min_hi
    assert b.s_max_lo < b.s_max_hi
    assert b.ln_x_min_lo < b.ln_x_min_hi < math.log(b.x_max_lo)
    assert b.ln_s_min_lo < math.log(Params(a=0.05, lam=0.05, m=1.0).lam)
    with pytest.raises(ValueError):
        cycle_bounds(Params(a=0.1, lam=0.1, m=1.0))
    forced = cycle_bounds(Params(a=0.1, lam=0.1, m=1.0), force=True)
    assert not forced.proven
    # second branch of the proven box
    assert cycle_bounds(Params(a=0.1, lam=0.01, m=0.3)).proven


def test_canard_values():
    c = canard_estimates(Params(a=0.1, lam=0.1, m=0.01))
    assert c.x_max_c == pytest.approx(0.3025, rel=1e-12)
    assert c.x_min_c == pytest.approx(0.3025 * math.exp(-3.025), rel=1e-12)
    # landing level solves h(s) = x_min on the right branch
    p = Params(a=0.1, lam=0.1, m=0.01)
    assert h(c.s_max_c, p) == pytest.approx(c.x_min_c, abs=1e-12)
    # prey-minimum estimate matches the conserved-quantity arithmetic
    v = 0.1 * math.log(0.3025) - 0.3025
    assert c.ln_s_min_c == pytest.approx((v - 0.1 * (math.log(0.1) - 1)) / 0.001)


def test_canard_s_max_limit_small_a():
    c = canard_estimates(Params(a=1e-6, lam=1e-6, m=0.01))
    assert c.s_max_c == pytest.approx(1.0, abs=1e-5)


def test_canard_consistency_as_m_shrinks():
    # the x_min interval midpoint approaches the canard estimate as m -> 0
    p0 = Params(a=0.05, lam=0.05, m=1.0)
    ln_x_min_c = math.log(canard_estimates(p0).x_min_c)
    gaps = []
    for m in (1.0, 0.3, 0.1, 0.03, 0.01):
        b = cycle_bounds(Params(a=0.05, lam=0.05, m=m))
        gaps.append(abs(0.5 * (b.ln_x_min_lo + b.ln_x_min_hi) - ln_x_min_c))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
