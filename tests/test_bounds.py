import builtins
import dis
import hashlib
import math
import pickle
import random
import re
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cyclebound import _arith, bounds, lvroot, model
from cyclebound.bounds import (
    S_MAX_LO,
    BoundSet,
    CanardEstimates,
    canard_estimates,
    cycle_bounds,
    x_max_lower,
    x_max_upper,
    x_max_upper_linear,
    x_max_upper_refined,
)
from cyclebound.harness import DEFAULT_PANELS, REFERENCE_SPECS, figure_m_values
from cyclebound.lvroot import ZIndex, z
from cyclebound.model import PROVEN_BOXES, Params, State, h
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
    points = np.array(traj.points)
    n = len(points)
    idx = np.unique(np.linspace(0, n - 1, min(1500, n)).astype(int))
    x = np.exp(points[idx, 0])
    s = np.exp(points[idx, 1])
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
        # the bound set runs x_max_upper's formula directly and keeps its message:
        # the product is inf at m = 1e300 and NaN at m = 1e308
        message = f"x_max_upper overflows at m = {m!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cycle_bounds(Params(a=0.05, lam=0.05, m=m), force=True)


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


def test_x_max_lower_stays_finite_where_8m_overflows():
    # from m = 2.3e307 the discriminant b^2 - 8 m lam is inf - inf; it was a
    # silent NaN and now reads as 0, so z* clamps to the anchor, as the larger
    # root itself does at any such m (2e307 is the control: 8 m is finite)
    lam = 0.05
    for m in (2e307, 2.3e307, 1e308, 1.7e308):
        p = Params(a=0.05, lam=lam, m=m)
        anchored = h(S_MAX_LO, p) + m * (
            S_MAX_LO - lam * (1.0 - math.log(lam) + math.log(S_MAX_LO))
        )
        assert math.isfinite(anchored) and x_max_lower(p).hex() == anchored.hex(), m


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
    # both sides of the launch at (u, lam): (ln v lower, upper, ln s_u lower, upper)
    p = Params(a=0.05, lam=0.05, m=1.0)
    ln_x_lo, ln_x_hi, ln_s_lo, ln_s_hi = bounds._minima(1.0, 1.0, p)
    assert ln_s_lo < ln_s_hi
    assert ln_x_lo < ln_x_hi
    # launch shallow enough (u/a = 5) that the z1/z2 sandwich around the
    # frozen-a return value is far wider than the oracle's accuracy
    u = 0.25
    ln_x_lo, ln_x_hi = bounds._minima(u, u, p)[:2]
    v_cmp = lv_return_oracle(u, 0.05, p.a, p.m)
    y = u / p.a
    z1_product = z(ZIndex.Z1, y) * u * math.exp(-y)
    z2_product = z(ZIndex.Z2, y) * u * math.exp(-y)
    assert z1_product < v_cmp < z2_product
    assert math.exp(ln_x_lo) == pytest.approx(z1_product, rel=1e-13)
    assert v_cmp < math.exp(ln_x_hi)


def test_excursion_bounds_validation():
    # either launch point below h(lam) is named, the lower ends' first
    p = Params(a=0.05, lam=0.05, m=1.0)
    for u1, u2, bad in ((0.05, 1.0, 0.05), (1.0, 0.05, 0.05), (0.04, 0.05, 0.04)):
        message = f"need u > h(lam) = {p.h_lam!r}, got u = {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            bounds._minima(u1, u2, p)


def test_excursion_upper_product_boundary_limit():
    # as u -> h(lam)+ the z2 product tends to h(lam) * e * e^{-1} = h(lam)
    p = Params(a=0.05, lam=0.05, m=1.0)
    H = p.h_lam
    for eps in (1e-4, 1e-6):
        u = H * (1 + eps)
        ln_x_hi = bounds._minima(u, u, p)[1]
        assert math.exp(ln_x_hi) == pytest.approx(H, rel=1e-2)


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


# points outside the proven box, evaluated with force=True
FORCED = [
    Params(a=a, lam=lam, m=m)
    for a, lam in ((0.1, 0.1), (0.2, 0.05), (0.3, 0.2), (0.05, 0.4))
    for m in (1e-3, 1.0, 50.0)
]


def test_min_bounds_share_the_excursion_code_path():
    # cycle_bounds evaluates one side of each launch on s = lam: the lower
    # side from x_max_hi and the upper side from x_max_lo, to the last bit
    for p in [Params(a=0.02, lam=0.03, m=2.0)] + PROVEN_GRID + FORCED:
        kept = bounds._minima(x_max_upper(p), x_max_lower(p), p)
        b = cycle_bounds(p, force=True)
        got = (b.ln_x_min_lo, b.ln_x_min_hi, b.ln_s_min_lo, b.ln_s_min_hi)
        assert repr(got) == repr(kept), p


# sha256 of the reprs of every (cycle_bounds(p, force=True), canard_estimates(p))
# below, taken before the bound set lost its builtin min/max calls and its
# second set of launch checks: a speed-up must keep every bit
BOUND_SET_DIGEST = "1adc2a2de4cd20d59280e60f01c9c0c18f72c32a21acf6fce356ff551f860f73"


def _digest_points() -> list:
    """2 000 seeded proven-box points (m log-uniform in [1e-3, 50]), the
    reference grid and FORCED."""
    rng = random.Random(27)
    ln_m_lo, ln_m_hi = math.log(1e-3), math.log(50.0)
    points = []
    for _ in range(2000):
        a_max, lam_max = PROVEN_BOXES["AB"[rng.randrange(2)]]
        points.append(
            Params(
                a=a_max * (1.0 - rng.random()),
                lam=lam_max * (1.0 - rng.random()),
                m=math.exp(rng.uniform(ln_m_lo, ln_m_hi)),
            )
        )
    grid = [Params(a=a, lam=lam, m=m) for spec in REFERENCE_SPECS for a, lam, m in spec.grid()]
    return points + grid + FORCED


def test_bound_sets_keep_their_bits():
    points = _digest_points()
    assert len(points) == 2000 + 57 + 12
    digest = hashlib.sha256()
    for p in points:
        digest.update(repr((cycle_bounds(p, force=True), canard_estimates(p))).encode())
    assert digest.hexdigest() == BOUND_SET_DIGEST


def test_a_bound_set_calls_z_twice(monkeypatch):
    # z1 at the launch from x_max_hi and z2 at the launch from x_max_lo, both
    # through z's kernel on math
    calls = []

    def counting_kernel(arith, i, y):
        assert arith is _arith.MATH
        calls.append(i)
        return lvroot._z(arith, i, y)

    monkeypatch.setattr(bounds, "_z", counting_kernel)
    for p in PROVEN_GRID + FORCED:
        calls.clear()
        cycle_bounds(p, force=True)
        assert calls == [ZIndex.Z1, ZIndex.Z2], p


def _entries(call, *functions) -> list[int]:
    """How many times ``call()`` enters each of the Python ``functions``."""
    index = {id(f.__code__): k for k, f in enumerate(functions)}
    counts = [0] * len(functions)

    def profile(frame, event, arg):
        k = index.get(id(frame.f_code)) if event == "call" else None
        if k is not None:
            counts[k] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


def test_a_float_bound_set_reads_nothing_and_the_public_z_reads_once():
    for p in PROVEN_GRID[:3] + FORCED[:3]:
        reads = _entries(lambda: (cycle_bounds(p, force=True), canard_estimates(p)), _arith.read)
        assert reads == [0], p
    for i in ZIndex:
        assert _entries(lambda: z(i, 5.0), _arith.read) == [1], i


def test_a_bound_set_checks_the_cycle_once_and_builds_its_records_by_the_tuple_constructor():
    # x_max_lower reads the cycle flag once and enters require_cycle only to
    # raise, its check covers x_max_upper's formula, the overflow check runs
    # only on a value that is not < inf, and the records skip their generated
    # __new__ frames
    watched = (
        model.require_cycle, x_max_upper, bounds._finite,
        BoundSet.__new__, CanardEstimates.__new__,
    )
    for p in PROVEN_GRID[:3] + FORCED[:3]:
        counts = _entries(lambda: (cycle_bounds(p, force=True), canard_estimates(p)), *watched)
        assert counts == [0, 0, 0, 0, 0], p


def test_a_bound_set_loads_no_attribute_of_math():
    # exp, log, sqrt, inf and isfinite are bound in bounds' globals at import:
    # one global load each, where math.<name> was a global and an attribute load
    def instructions(code):
        yield from dis.get_instructions(code)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from instructions(const)

    for function in (x_max_lower, cycle_bounds, bounds._minima, canard_estimates):
        loaded = {
            ins.argval for ins in instructions(function.__code__)
            if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")
        }
        resolved = [vars(bounds).get(name, getattr(builtins, name, None)) for name in loaded]
        assert not any(value is math for value in resolved), function.__name__
    math_functions = {math.exp, math.log, math.sqrt, math.isfinite}
    assert {bounds.exp, bounds.log, bounds.sqrt, bounds.isfinite} == math_functions
    assert bounds.inf == math.inf and bounds._new_tuple is tuple.__new__


# where the kernel's domain argument in bounds._minima is tightest: 2 lam + a
# just below 1 (y1 and y2 smallest; closer in, x_max_lower rounds to h(lam)
# at m = 1e-3 and the launch check raises), lam -> 0+ (h(lam) -> a) and
# a -> 0+ (y1 near overflow), each at both ends of the m range
DOMAIN_EDGES = [
    Params(a=a, lam=lam, m=m)
    for a, lam in (
        [((1.0 - 2.0 * lam) * (1.0 - 1e-6), lam) for lam in (1e-3, 0.1, 0.3, 0.49)]
        + [(a, lam) for a in (0.05, 0.5) for lam in (1e-12, 1e-300)]
        + [(1e-300, 0.05)]
    )
    for m in (1e-3, 1e6)
]


# relative Hopf margins 1e-8 to 1e-12: at m = 1e-3, x_max_lower rounds to
# h(lam) at most of these and no excursion launches
HOPF_EDGES = [
    Params(a=(1.0 - 2.0 * lam) * (1.0 - margin), lam=lam, m=m)
    for lam in (1e-3, 0.1, 0.3, 0.49)
    for margin in (1e-8, 1e-10, 1e-12)
    for m in (1e-3, 1e6)
]


def test_the_hopf_edge_error_names_the_point():
    # it named a launch point u = h(lam) the caller never passed
    raised = []
    for p in HOPF_EDGES + DOMAIN_EDGES:
        try:
            b = cycle_bounds(p, force=True)
        except ValueError as err:
            raised.append(p)
            message = (
                f"(a, lam, m) = ({p.a!r}, {p.lam!r}, {p.m!r}) is too close to the Hopf "
                f"point (margin {p.hopf_margin!r}) for the minima bounds: x_max_lower "
                f"rounds to h(lam) = {p.h_lam!r} or below"
            )
            assert str(err).startswith(message), p
        else:
            assert type(b) is BoundSet and all(math.isfinite(v) for v in b[:4]), p
    assert raised and all(p in HOPF_EDGES and p.m == 1e-3 for p in raised)


def test_the_bound_set_feeds_z_kernel_only_what_the_public_z_accepts(monkeypatch):
    fed = []

    def recording_kernel(arith, i, y):
        value = lvroot._z(arith, i, y)
        fed.append((i, y, value))
        return value

    monkeypatch.setattr(bounds, "_z", recording_kernel)
    points = _digest_points() + DOMAIN_EDGES
    assert all(p.cycle_regime for p in DOMAIN_EDGES)
    for p in points:
        cycle_bounds(p, force=True)
    assert len(fed) == 2 * len(points)
    for i, y, value in fed:
        # z raises ValueError for any y outside [1, inf)
        assert type(y) is float and repr(z(i, y)) == repr(value), (i, y)


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


def test_canard_estimates_take_the_a_zero_limit():
    # a (ln a - 1) -> 0 with a, so a = 0 gives what a = 1e-300 rounds to
    at_zero = canard_estimates(Params(a=0.0, lam=0.05, m=1.0, limit=True))
    assert at_zero == canard_estimates(Params(a=1e-300, lam=0.05, m=1.0, limit=True))
    assert at_zero.ln_s_min_c == -0.25 / 0.05


def test_cycle_bounds_at_a_zero_name_the_minima_bounds():
    p = Params(a=0.0, lam=0.05, m=1.0, limit=True)
    with pytest.raises(ValueError, match=re.escape("the minima bounds need a > 0")):
        cycle_bounds(p)


def test_cycle_bounds_at_a_subnormal_a_raise_naming_a():
    # u/a overflows: the minima bounds were NaN and inf, flagged proven
    p = Params(a=5e-324, lam=0.01, m=1.0)
    assert p.proven_region
    message = "minima bounds overflow at a = 5e-324: u/a = inf"
    with pytest.raises(ValueError, match=re.escape(message)):
        cycle_bounds(p)


def test_an_underflowing_m_lam_is_an_infinite_depth_scale():
    # m lam = 0 in double raised ZeroDivisionError, while m lam = 1e-310,
    # whose reciprocal overflows, already gave the infinite scale
    for m in (1e-300, 1e-10):
        b = cycle_bounds(Params(a=0.01, lam=1e-300, m=m))
        assert b.ln_s_min_lo == b.ln_s_min_hi == -math.inf, m
        assert math.isfinite(b.ln_x_min_lo) and math.isfinite(b.ln_x_min_hi), m


def test_cycle_bounds_at_lam_zero_name_lam():
    p = Params(a=0.05, lam=0.0, m=1.0, limit=True)
    with pytest.raises(ValueError, match=re.escape("the minima bounds need lam > 0")) as err:
        cycle_bounds(p)
    assert "lambda_star" not in str(err.value)


def test_canard_consistency_as_m_shrinks():
    # the x_min interval midpoint approaches the canard estimate as m -> 0
    p0 = Params(a=0.05, lam=0.05, m=1.0)
    ln_x_min_c = math.log(canard_estimates(p0).x_min_c)
    gaps = []
    for m in (1.0, 0.3, 0.1, 0.03, 0.01):
        b = cycle_bounds(Params(a=0.05, lam=0.05, m=m))
        gaps.append(abs(0.5 * (b.ln_x_min_lo + b.ln_x_min_hi) - ln_x_min_c))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


def x_max_lower_objective(zv: float, p: Params) -> float:
    """The x_max barrier anchored at zv, in x_max_lower's arithmetic."""
    lam_term = 0.0 if p.lam == 0.0 else p.lam * (1.0 - math.log(p.lam) + math.log(zv))
    return h(zv, p) + p.m * (zv - lam_term)


def x_max_lower_three_point(p: Params) -> float:
    """The barrier maximum as it was computed before the certificate: the
    objective at the clamped stationary point and at both endpoints."""
    lo = 0.5 * (1.0 - p.a)
    b = 1.0 - p.a + p.m
    disc = b * b - 8.0 * p.m * p.lam
    z_star = min(max(0.25 * (b + math.sqrt(max(disc, 0.0))), lo), S_MAX_LO)
    return max(x_max_lower_objective(zv, p) for zv in (z_star, lo, S_MAX_LO))


def _proven_box_sample(n: int, seed: int) -> list:
    rng = random.Random(seed)
    boxes = tuple(PROVEN_BOXES.values())
    ln_m_lo, ln_m_hi = math.log(1e-3), math.log(50.0)
    points = []
    for _ in range(n):
        a_max, lam_max = boxes[rng.randrange(2)]
        points.append(
            Params(
                a=a_max * (1.0 - rng.random()),
                lam=lam_max * (1.0 - rng.random()),
                m=math.exp(rng.uniform(ln_m_lo, ln_m_hi)),
            )
        )
    return points


def test_x_max_lower_is_the_three_point_formula_to_the_bit():
    reference_rows = [
        Params(a=a, lam=lam, m=m)
        for spec in REFERENCE_SPECS
        for a in spec.a_values
        for lam in spec.lambda_values
        for m in spec.m_values
    ]
    figure_points = [
        Params(a=a, lam=lam, m=m)
        for a, lam in DEFAULT_PANELS
        for m in figure_m_values()
    ]
    assert len(reference_rows) == 57 and len(figure_points) == 200
    for p in _proven_box_sample(5_000, seed=22) + reference_rows + figure_points:
        assert x_max_lower(p).hex() == x_max_lower_three_point(p).hex(), p


def test_x_max_lower_rounds_at_most_a_few_ulp_below_the_three_point_formula():
    # the one output change: at m below about 1e-4 the old max could pick
    # an endpoint whose objective rounded a few ulp above the stationary
    # point's; the one evaluation is never higher
    rng = random.Random(2022)
    differ = []
    for i in range(20_000):
        a = 0.0 if i % 97 == 0 else 0.999 * rng.random()
        lam = 0.0 if i % 89 == 0 else 0.5 * (1.0 - a) * rng.random()
        m = 0.0 if i % 83 == 0 else math.exp(rng.uniform(math.log(1e-8), math.log(1e8)))
        p = Params(a=a, lam=lam, m=m, limit=True)
        if not p.cycle_regime:
            continue
        new, old = x_max_lower(p), x_max_lower_three_point(p)
        assert new <= old and old - new <= 4 * math.ulp(old), p
        if new != old:
            differ.append(p.m)
    assert differ and max(differ) < 1e-4, differ


def test_x_max_lower_certificate():
    # f'(z) = q(z)/z with q(z) = -2z^2 + (1 - a + m)z - m lam, and
    # q(lam) = lam (1 - a - 2 lam) > 0: q's smaller root lies below
    # lam < (1-a)/2, so f rises then falls on [(1-a)/2, S_MAX_LO] and the
    # clamped larger root is its maximiser
    limits = [
        Params(a=a, lam=lam, m=m, limit=True)
        for a, lam, m in (
            (0.0, 0.05, 1.0), (0.05, 0.0, 1.0), (0.05, 0.05, 0.0),
            (0.0, 0.0, 1.0), (0.0, 0.05, 0.0), (0.0, 0.0, 0.0),
        )
    ]
    for p in FORCED + limits + [Params(a=0.45, lam=0.27, m=1.0), Params(a=0.6, lam=0.19, m=1e-6)]:
        a, lam, m = (Fraction(v) for v in (p.a, p.lam, p.m))
        lo = (1 - a) / 2
        q_lam = -2 * lam**2 + (1 - a + m) * lam - m * lam
        assert q_lam == lam * (1 - a - 2 * lam) and lam < lo, p
        b = 1.0 - p.a + p.m
        small_root = 2.0 * p.m * p.lam / (b + math.sqrt(b * b - 8.0 * p.m * p.lam))
        if p.lam > 0.0:
            assert q_lam > 0 and small_root < p.lam, p
        else:
            assert small_root == 0.0, p
        val = x_max_lower(p)
        grid = np.linspace(float(lo), S_MAX_LO, 2001).tolist()
        assert max(x_max_lower_objective(zv, p) for zv in grid) <= val + 4 * math.ulp(val), p


_BOUND_SET_REPR = (
    "BoundSet(x_max_lo=0.7813705638880108, x_max_hi=1.4749999999999996, "
    "ln_x_min_lo=-29.111342010203657, ln_x_min_hi=-8.4692610701115, "
    "ln_s_min_lo=-29.111342010208208, ln_s_min_hi=-12.399993190878003, "
    "s_max_lo=0.8, s_max_hi=1.0, proven=True)"
)
_CANARD_REPR = (
    "CanardEstimates(x_max_c=0.275625, x_min_c=0.0011124238087555783, "
    "s_max_c=0.9989394776033244, ln_s_min_c=-2.8054817592270354)"
)


def _records():
    p = Params(a=0.05, lam=0.05, m=1.0)
    return cycle_bounds(p), canard_estimates(p)


def test_bound_records_keep_their_fields_defaults_and_reprs():
    b, c = _records()
    assert BoundSet._fields == (
        "x_max_lo", "x_max_hi", "ln_x_min_lo", "ln_x_min_hi", "ln_s_min_lo",
        "ln_s_min_hi", "s_max_lo", "s_max_hi", "proven",
    )
    assert BoundSet._field_defaults == {"s_max_lo": S_MAX_LO, "s_max_hi": 1.0, "proven": True}
    assert CanardEstimates._fields == ("x_max_c", "x_min_c", "s_max_c", "ln_s_min_c")
    assert CanardEstimates._field_defaults == {}
    # the strings the frozen-dataclass records printed
    assert (repr(b), repr(c)) == (_BOUND_SET_REPR, _CANARD_REPR)
    for record in (b, c):
        d = record.as_dict()
        assert type(d) is dict and list(d) == list(type(record)._fields)
        assert list(d.values()) == [getattr(record, name) for name in d]


def test_bound_records_are_immutable_hashable_and_picklable():
    for record in _records():
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record)
        # the frozen dataclasses hashed the tuple of their fields too
        assert hash(record) == hash(tuple(getattr(record, f) for f in type(record)._fields))
        assert pickle.loads(pickle.dumps(record)) == record
    b = _records()[0]
    assert repr(pickle.loads(pickle.dumps(b))) == _BOUND_SET_REPR
    assert b != b._replace(proven=False)
    # what a named tuple adds: it iterates over its values and equals them
    assert tuple(b) == tuple(b.as_dict().values()) and b == tuple(b)
