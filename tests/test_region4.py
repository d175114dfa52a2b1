import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cyclebound.bounds import cycle_bounds, x_max_lower
from cyclebound import _arith, harness
from cyclebound.harness import _M_RANGE
from cyclebound.lvroot import ZIndex, lv_small_root_ln, z, z_exact
from cyclebound import region4
from cyclebound.model import PROVEN_BOXES, Params, h
from cyclebound.region4 import (
    M_BRANCH,
    S_GAMMA,
    AlphaFactors,
    Case,
    _ln_gain,
    _read_point,
    _recovery_start_cap,
    _x_max_lower_coarse,
    alpha2_peak,
    alpha_factors,
    growth_ratio_quadratic,
    handoff_cap_bound,
    handoff_cap_bound_ln,
    handoff_cap_envelope,
    smax_lower_bound,
)

CASE_GRIDS = {
    Case.A: [
        Params(a=a, lam=lam, m=m)
        for a in (0.005, 0.02, 0.05)
        for lam in (0.005, 0.02, 0.05)
        for m in (0.01, 0.1, 0.3, 1.0, 5.0, 20.0)
    ],
    Case.B: [
        Params(a=a, lam=lam, m=m)
        for a in (0.02, 0.05, 0.1)
        for lam in (0.002, 0.005, 0.01)
        for m in (0.01, 0.1, 0.3, 1.0, 5.0, 20.0)
    ],
}


def test_config_pins_case_constants():
    assert (Case.A.k, Case.B.k, S_GAMMA) == (0.75, 2 / 3, 0.7)
    assert Case.A.a_max == 0.05 and Case.B.a_max == 0.1
    assert Case.A.lam_max == 0.05 and Case.B.lam_max == 0.01
    assert {case.value: (case.a_max, case.lam_max) for case in Case} == PROVEN_BOXES
    assert Case("B") is Case.B


def test_handoff_cap_basics():
    p = Params(a=0.05, lam=0.05, m=1.0)
    # direct log-space arithmetic of the amplification factor
    gain = (math.exp(0.05 / 0.7) * 0.75 / 0.3 / 0.1) ** (1.0 / 0.75)
    assert math.exp(_ln_gain(*_read_point(p), Case.A)) == pytest.approx(gain, rel=1e-12)
    assert math.isfinite(_ln_gain(*_read_point(p), Case.A))
    # zero exponent in the m -> 0 limit
    p0 = Params(a=0.05, lam=0.05, m=0.0, limit=True)
    assert math.exp(_ln_gain(*_read_point(p0), Case.A)) == pytest.approx(1.0, rel=1e-13)


def test_x_max_lower_coarse_branches():
    def coarse(p):
        return _x_max_lower_coarse(*_read_point(p), Case.A)

    lam = 0.03
    p_small = Params(a=0.04, lam=lam, m=0.1)
    expect = 0.25 + 0.1 * (0.475 - lam * (1 - math.log(lam) + math.log(0.475)))
    assert coarse(p_small) == pytest.approx(expect, rel=1e-14)
    p_big = Params(a=0.04, lam=lam, m=1.0)
    expect = h(0.8, p_big) + 1.0 * (0.8 - lam * (1 - math.log(lam) + math.log(0.8)))
    assert coarse(p_big) == pytest.approx(expect, rel=1e-14)
    # a NumPy scalar in p is read as the float it is, and computed with as one
    p_numpy = SimpleNamespace(a=np.float64(0.04), lam=lam, m=1.0)
    assert coarse(p_numpy) == coarse(p_big)
    for p in (p_big, p_numpy):
        values = (coarse(p), handoff_cap_bound_ln(p, Case.A),
                  growth_ratio_quadratic(np.float64(0.5), p, Case.A))
        assert [type(v) for v in values] == [float] * 3


def test_x_max_lower_coarse_below_full_lower_bound():
    for case, grid in CASE_GRIDS.items():
        for p in grid:
            assert _x_max_lower_coarse(*_read_point(p), case) <= x_max_lower(p) + 1e-12, p


def test_handoff_cap_bound_dominates_chained_cap():
    # replacing the start value by its closed-form bound can only increase
    # the cap, since t e^{-t/h} decreases and the coarse estimate is lower;
    # compared in log space (the start value underflows for large m)
    for case, grid in CASE_GRIDS.items():
        for p in grid:
            ln_x3_hi = cycle_bounds(p).ln_x_min_hi
            ln_gain = _ln_gain(*_read_point(p), case)
            assert handoff_cap_bound_ln(p, case) >= ln_gain + ln_x3_hi - 1e-9, p


def test_handoff_cap_bound_monotone_at_spot():
    p = Params(a=0.02, lam=0.02, m=1.0)
    step = 1e-6
    for bump in ("a", "lam"):
        hi = {"a": p.a, "lam": p.lam}
        lo = dict(hi)
        hi[bump] += step
        lo[bump] -= step
        d = (
            handoff_cap_bound(Params(a=hi["a"], lam=hi["lam"], m=1.0), Case.A)
            - handoff_cap_bound(Params(a=lo["a"], lam=lo["lam"], m=1.0), Case.A)
        ) / (2 * step)
        assert d >= -1e-9, bump


def test_handoff_cap_bound_below_envelope():
    assert handoff_cap_bound(Params(a=0.05, lam=0.05, m=1.0), Case.A) <= (
        handoff_cap_envelope(1.0, Case.A)
    )
    for case, grid in CASE_GRIDS.items():
        for p in grid:
            assert handoff_cap_bound_ln(p, case) <= math.log(
                handoff_cap_envelope(p.m, case)
            ) + 1e-12, p


STEP = 1e-6  # the central-difference step of the proofcheck slope scan


def slope_scan_grid(case: Case) -> SimpleNamespace:
    """The (a, lam, m) grid of the proofcheck slope scan, as arrays."""
    a, lam, m = np.meshgrid(
        np.linspace(2e-3, case.a_max, 20),
        np.linspace(2e-3, case.lam_max, 20),
        np.geomspace(1e-2, 20, 12),
        indexing="ij",
    )
    return SimpleNamespace(a=a, lam=lam, m=m)


def handoff_cap_bound_scalar(a: float, lam: float, m: float, case: Case) -> float:
    """The cap chain written out in scalar math arithmetic: the coarse
    x_max estimate, z2 and the gain, each in its formula's order."""
    if m < 0.3:
        anchor, c0 = 0.5 * (1.0 - case.a_max), 0.25
    else:
        anchor, c0 = 0.8, (1.0 - 0.8) * (0.8 + a)
    x1t = c0 + m * (anchor - lam * (1.0 - math.log(lam) + math.log(anchor)))
    y = x1t / ((1.0 - lam) * (lam + a))
    Y = y * math.exp(-y)
    c = 1.0 / math.e
    one_minus_dY = 1.0 - (math.e - 1.0 - c * math.e) * Y
    disc = one_minus_dY * one_minus_dY - 4.0 * c * Y
    z2 = 2.0 / (one_minus_dY + math.sqrt(max(disc, 0.0)))
    ln_gain = (m / case.k) * (
        lam / S_GAMMA
        + math.log(S_GAMMA + a)
        - math.log(1.0 - S_GAMMA)
        - math.log(a + lam)
    )
    return math.exp(ln_gain + math.log(z2) + math.log(x1t) - y)


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_handoff_cap_bound_arrays_match_scalar_arithmetic(case):
    # every point the slope scan evaluates: a and lam each perturbed by
    # +STEP and -STEP
    g = slope_scan_grid(case)
    for da, dlam in ((STEP, 0.0), (-STEP, 0.0), (0.0, STEP), (0.0, -STEP)):
        a, lam = g.a + da, g.lam + dlam
        got = handoff_cap_bound(SimpleNamespace(a=a, lam=lam, m=g.m), case)
        want = np.array(
            [
                handoff_cap_bound_scalar(*point, case)
                for point in zip(a.ravel().tolist(), lam.ravel().tolist(), g.m.ravel().tolist())
            ]
        ).reshape(got.shape)
        # the same points underflow to 0, and no others
        assert np.array_equal(got == 0.0, want == 0.0)
        assert (want > 0.0).any() and (want == 0.0).any()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("chain", [handoff_cap_bound, handoff_cap_bound_ln])
@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_cap_bound_slopes_scan_both_perturbations_of_a_variable_in_one_call(
    monkeypatch, case, chain
):
    # the proofcheck scan evaluates the ln cap on broadcast axes, one call
    # per variable with +STEP and -STEP on a leading axis; with either chain
    # in its place, each array must be the chain on the full perturbed grids
    # to the bit, and the row the first minimum of a scan over those grids.
    # The cap underflows to 0 at high m, so its worst slope is a tie of
    # zeros; the ln chain does not, so its worst slope is one point's, with
    # its variable named.
    results = []

    def capturing(p, case):
        results.append(chain(p, case))
        return results[-1]

    monkeypatch.setattr(harness, "handoff_cap_bound_ln", capturing)
    got = harness._cap_bound_slopes(case)
    g = slope_scan_grid(case)

    def cap(a, lam):
        return chain(SimpleNamespace(a=a, lam=lam, m=g.m), case)

    by_a = (cap(g.a + STEP, g.lam), cap(g.a - STEP, g.lam))
    by_lam = (cap(g.a, g.lam + STEP), cap(g.a, g.lam - STEP))
    assert len(results) == 2
    for scanned, want in zip(results, (by_a, by_lam)):
        assert scanned.shape == (2,) + g.m.shape
        for half, grid in zip(scanned, want):
            assert np.array_equal(half.view(np.int64), grid.view(np.int64))
    slopes = np.stack(
        [(by_a[0] - by_a[1]) / (2 * STEP), (by_lam[0] - by_lam[1]) / (2 * STEP)], axis=-1
    )
    i = np.unravel_index(int(slopes.argmin()), slopes.shape)
    at = (float(g.a[i[:3]]), float(g.lam[i[:3]]), float(g.m[i[:3]]), ("a", "lam")[i[3]])
    assert repr(got) == repr((float(slopes[i]), at))


def growth_ratio_quadratic_at_half(p, case):
    return growth_ratio_quadratic(0.5, p, case)


def growth_ratio_quadratic_at_its_s(p, case):
    return growth_ratio_quadratic(p.s, p, case)


DOMAIN = "a, lam and m must be finite and nonnegative"
CAP_CHAIN = (handoff_cap_bound_ln, handoff_cap_bound, growth_ratio_quadratic_at_half)


def x_max_lower_coarse(p, case):
    # the coarse formula, read as the public calls read their point
    return _x_max_lower_coarse(*_read_point(p), case)


# each public entry on the slope scan grid with two failing points, and the
# message that must name the first
FIRST_FAILING_POINTS = [
    # 2 lam + a >= 1
    pytest.param(handoff_cap_bound, {"a": 0.999}, "requires the cycle regime",
                 id="cycle-regime"),
    # in the regime, but x1t ~ 1/4 < h(lam)
    pytest.param(handoff_cap_bound, {"a": 0.05, "lam": 0.45}, "must exceed h(lam)",
                 id="x1t-not-above-h-lam"),
    # limit mode: y = x1t / h(lam) has no value
    pytest.param(handoff_cap_bound, {"a": 0.0, "lam": 0.0}, "h(lam) must be positive",
                 id="h-lam-zero"),
] + [
    # m >= 3e307: x1t / h(lam) overflows before z2 reads it
    pytest.param(function, {"m": 3e307}, "x1t/h(lam) must be finite",
                 id=f"{function.__name__}-overflow")
    for function in (handoff_cap_bound_ln, handoff_cap_bound)
] + [
    # the quadratic's s, read with p
    pytest.param(growth_ratio_quadratic_at_its_s, {"s": value},
                 f"s must be finite, got {value!r}", id=f"s-{value}")
    for value in (math.nan, math.inf, -math.inf)
] + [
    # outside the chain's domain, which each public call checks once on reading p
    pytest.param(function, {name: value}, DOMAIN, id=f"{function.__name__}-{name}-{value}")
    for function in (x_max_lower_coarse,) + CAP_CHAIN
    for name in ("a", "lam", "m")
    for value in (math.nan, math.inf, -0.01)
]


@pytest.mark.parametrize("function, bad, message", FIRST_FAILING_POINTS)
def test_handoff_cap_bound_arrays_name_the_first_failing_point(function, bad, message):
    g = slope_scan_grid(Case.A)
    g.s = np.full_like(g.m, 0.5)
    for i in ((3, 4, 0), (7, 1, 0)):  # two failing points; the first is named
        for name, value in bad.items():
            getattr(g, name)[i] = value
    point = (float(g.a[3, 4, 0]), float(g.lam[3, 4, 0]), float(g.m[3, 4, 0]))
    with pytest.raises(ValueError, match=re.escape(f"{message} at (a, lam, m) = {point}")):
        function(g, Case.A)
    # a float point fails the same check; a Params holds only points in the
    # domain, and no s
    floats = [SimpleNamespace(a=point[0], lam=point[1], m=point[2], s=float(g.s[3, 4, 0]))]
    if message != DOMAIN and "s" not in bad:
        floats.append(Params(*point, limit=True))
    for p in floats:
        with pytest.raises(ValueError, match=re.escape(f"{message} at (a, lam, m) = {point}")):
            function(p, Case.A)


@pytest.mark.parametrize("function, bad, message", FIRST_FAILING_POINTS)
def test_the_cap_chain_runs_z_only_on_the_y_it_has_proved(monkeypatch, function, bad, message):
    # z2 runs in its kernel, with no check of its own: every y the chain
    # hands it must lie in [1, inf), on the table's points, on both clean
    # scan grids and on a lam axis where x1t only just exceeds h(lam), and
    # every refusal keeps its message
    seen = []
    kernel = region4._z

    def watched(arith, i, y):
        seen.append(y)
        return kernel(arith, i, y)

    monkeypatch.setattr(region4, "_z", watched)
    test_handoff_cap_bound_arrays_name_the_first_failing_point(function, bad, message)
    for case in Case:
        g = slope_scan_grid(case)
        g.s = np.full_like(g.m, 0.5)
        function(g, case)
    lam = np.linspace(0.2, 0.47, 2701)
    edge = SimpleNamespace(a=0.05, lam=lam, m=1.0)
    accepted = x_max_lower_coarse(edge, Case.A) > h(lam, edge)
    assert 0 < accepted.sum() < lam.size
    function(SimpleNamespace(a=0.05, lam=lam[accepted], m=1.0, s=0.5), Case.A)
    if function in (handoff_cap_bound_ln, handoff_cap_bound):
        assert len(seen) == 3
        assert seen[-1].min() < 1.0001
    for y in seen:
        assert np.all((1.0 <= y) & (y < math.inf))


def test_every_array_read_returns_one_namespace():
    # NumPy's namespace is built once per process: every array read, by
    # itself, among floats or through a region4 point, returns that object
    arith, _ = _arith.read("y", np.array([2.0]))
    assert arith is not _arith.MATH
    assert _arith.read("y", np.array(2.0))[0] is arith
    assert _arith.choose(x=1.0, y=np.zeros((2, 3)))[0] is arith
    assert _read_point(slope_scan_grid(Case.B))[0] is arith
    assert _read_point(SimpleNamespace(a=0.05, lam=0.05, m=np.array([1.0])))[0] is arith
    # a float among arrays is checked as a bare bool, and a failure still
    # names the first failing point
    p = SimpleNamespace(a=math.nan, lam=0.05, m=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=re.escape(f"{DOMAIN} at (a, lam, m) = (nan, 0.05, 1.0)")):
        _read_point(p)


def test_each_public_call_decides_its_arithmetic_once(monkeypatch):
    p = Params(a=0.05, lam=0.05, m=1.0)
    arith, q = _read_point(p)
    want = handoff_cap_bound_ln(p, Case.A)
    calls = []
    real_choose = region4.choose

    def counting(**inputs):
        calls.append(inputs)
        return real_choose(**inputs)

    monkeypatch.setattr(region4, "choose", counting)
    for function in CAP_CHAIN + (_recovery_start_cap,):
        calls.clear()
        function(p, Case.A)
        assert len(calls) == 1, function

    # the private steps compute on the arithmetic and point handed to them
    def forbidden(*args, **kwargs):
        raise AssertionError("a private step read its point again")

    monkeypatch.setattr(region4, "choose", forbidden)
    monkeypatch.setattr(region4, "_read_point", forbidden)
    assert region4._handoff_cap_bound_ln(arith, q, Case.A) == want


# smallest central difference of ln handoff_cap_bound over the slope scan
# grid, with its point; the printed proofcheck row reads the cap itself,
# which underflows to 0 at high m, so its worst slope is 0
LN_CAP_SLOPE_MIN = {
    Case.A: (28.678006047888616, (0.05, 0.05, 0.01, "lam")),
    Case.B: (23.957841845945183, (0.1, 0.01, 0.01, "lam")),
}


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_handoff_cap_bound_ln_is_increasing_on_the_scan_grid(case):
    g = slope_scan_grid(case)

    def ln_cap(a, lam):
        return handoff_cap_bound_ln(SimpleNamespace(a=a, lam=lam, m=g.m), case)

    slopes = np.stack(
        [
            (ln_cap(g.a + STEP, g.lam) - ln_cap(g.a - STEP, g.lam)) / (2 * STEP),
            (ln_cap(g.a, g.lam + STEP) - ln_cap(g.a, g.lam - STEP)) / (2 * STEP),
        ],
        axis=-1,
    )
    i = np.unravel_index(int(slopes.argmin()), slopes.shape)
    worst = float(slopes[i])
    at = (float(g.a[i[:3]]), float(g.lam[i[:3]]), float(g.m[i[:3]]), ("a", "lam")[i[3]])
    want, want_at = LN_CAP_SLOPE_MIN[case]
    assert worst > 0.0
    assert worst == pytest.approx(want, rel=1e-6)
    assert at == want_at


def test_handoff_cap_envelope_values_and_caps():
    assert handoff_cap_envelope(0.0, Case.A) == pytest.approx(
        0.324 * math.exp(-2.631), rel=1e-14
    )
    ms = np.linspace(0.0, 20.0, 8001)
    max_a = max(handoff_cap_envelope(float(m), Case.A) for m in ms)
    max_b = max(handoff_cap_envelope(float(m), Case.B) for m in ms)
    assert max_a <= 0.05
    assert max_b <= 0.08
    for m in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="m must be finite and nonnegative"):
            handoff_cap_envelope(m, Case.A)


def growth_ratio_product_route(s: float, p: Params) -> float:
    """Integrated predator growth factor base B(s) below the barrier.

    While x < (1-k) h(s) the predator satisfies x < x3 B(s)^(m/k) with

        B = ((s+a)/s)^{k2} (lam/(lam+a))^{k2}
            ((1-lam)(s+a)/(1-s))^{k3} (1/(lam+a))^{k3},

    k2 = lam/a, k3 = (1-lam)/(1+a).  Computed in log space; B -> 1 as
    s -> lam (it is a ratio of antiderivative values at s and lam).
    """
    if not (p.lam < s < 1.0):
        raise ValueError(f"need lam < s < 1, got s = {s!r}")
    a, lam = p.a, p.lam
    k2 = lam / a
    k3 = (1.0 - lam) / (1.0 + a)
    ln_b = k2 * (math.log(s + a) - math.log(s) + math.log(lam) - math.log(lam + a))
    ln_b += k3 * (
        math.log(1.0 - lam) + math.log(s + a) - math.log(1.0 - s) - math.log(lam + a)
    )
    return math.exp(ln_b)


def growth_ratio_antiderivative_route(s: float, p: Params) -> float:
    """Independent route: the ratio F(s)/F(lam) of antiderivative values
    with F(y) = (y+a)^k1 / (y^k2 (1-y)^k3) and k1 = (a+lam)/(a(1+a))."""
    a, lam = p.a, p.lam
    k1 = (a + lam) / (a * (1 + a))
    k2 = lam / a
    k3 = (1 - lam) / (1 + a)

    def ln_F(y):
        return k1 * math.log(y + a) - k2 * math.log(y) - k3 * math.log(1 - y)

    return math.exp(ln_F(s) - ln_F(lam))


def test_growth_ratio_two_routes_agree():
    # k1 = k2 + k3 makes the product form and the antiderivative ratio
    # identical; evaluating both guards the transcription of either
    for a, lam in [(0.05, 0.05), (0.1, 0.01), (0.02, 0.003)]:
        p = Params(a=a, lam=lam, m=1.0)
        for s in np.linspace(lam * 1.5, 0.95, 17):
            got = growth_ratio_product_route(float(s), p)
            want = growth_ratio_antiderivative_route(float(s), p)
            assert got == pytest.approx(want, rel=1e-11), (a, lam, s)


def test_growth_ratio():
    p = Params(a=0.05, lam=0.05, m=1.0)
    # ratio of antiderivative values collapses to 1 at s = lam
    assert growth_ratio_product_route(p.lam + 1e-13, p) == pytest.approx(1.0, abs=1e-9)
    # crude exponential cap for s >= 0.5
    s = 0.7
    cap = math.exp(p.lam / s) * (s + p.a) / (1 - s) / (p.a + p.lam)
    assert growth_ratio_product_route(s, p) <= cap
    vals = [growth_ratio_product_route(float(s), p) for s in np.linspace(0.5, 0.9, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        growth_ratio_product_route(1.0, p)


# (m + M)/m overflows below about m = 3.9e-309, and k/m below about 4.2e-309
# (case A) or 3.7e-309 (case B)
SUBNORMAL_M = (5e-324, 1e-320, 3e-309, 4e-309)


def test_growth_ratio_quadratic():
    p = Params(a=0.05, lam=0.05, m=1.0)
    assert growth_ratio_quadratic(p.lam, p, Case.A) < 0
    assert growth_ratio_quadratic(1.0, p, Case.A) > 0
    # convex: positive second difference on any stencil
    g = lambda s: growth_ratio_quadratic(s, p, Case.A)
    for s in (0.1, 0.4, 0.8):
        assert g(s - 0.05) + g(s + 0.05) - 2 * g(s) > 0
    with pytest.raises(ValueError):
        growth_ratio_quadratic(0.5, Params(a=0.05, lam=0.05, m=0.0, limit=True), Case.A)
    for m in SUBNORMAL_M:
        message = f"k/m must be finite at (a, lam, m) = (0.05, 0.05, {m!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            growth_ratio_quadratic(0.5, Params(a=0.05, lam=0.05, m=m), Case.A)


# m where k/m is finite but 2 k/m overflows, per case: k/m in [2^1023, max]
TWICE_KM_OVERFLOWS = {Case.A: (4.2e-309, 6e-309, 8.3e-309), Case.B: (3.8e-309, 5e-309, 7.4e-309)}


def exact_growth_ratio(s, p, case):
    # G* in exact arithmetic on the floats given; inf past the double range
    km = Fraction(case.k) / Fraction(p.m)
    s = Fraction(s)
    exact = 2 * km * s * s + (Fraction(p.a) * km - km + 1) * s - Fraction(p.lam)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_growth_ratio_quadratic_is_finite_where_twice_k_over_m_overflows(case):
    # the plain form reads 2 k/m = inf there, so G* was inf, or NaN at s = 0;
    # the factored form is G* to a few ulp, inf only where G* itself is past
    # the double range (at s = 1 and the smallest m), and an array of such
    # points raises no warning and holds the float calls' bits
    ss = (0.0, case.lam_max, 0.5, 1.0)
    for m in TWICE_KM_OVERFLOWS[case]:
        assert case.k / m < math.inf and 2.0 * (case.k / m) == math.inf
        p = Params(a=case.a_max, lam=case.lam_max, m=m)
        for s in ss:
            got, want = growth_ratio_quadratic(s, p, case), exact_growth_ratio(s, p, case)
            assert math.isfinite(got) or got == want, (m, s)
            assert got == pytest.approx(want, rel=1e-14), (m, s)
    ms = np.array(TWICE_KM_OVERFLOWS[case] + (1.0,))
    q = SimpleNamespace(a=case.a_max, lam=case.lam_max, m=ms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = growth_ratio_quadratic(np.array(ss)[:, None], q, case)
    for (i, j), value in np.ndenumerate(got):
        p = Params(a=case.a_max, lam=case.lam_max, m=float(ms[j]))
        assert float(value) == growth_ratio_quadratic(ss[i], p, case)


def test_growth_ratio_quadratic_broadcasts():
    # on arrays it is the scalar definition at every point, bit for bit
    a, lam, m = np.meshgrid([0.01, 0.05], [0.002, 0.05], [1e-3, 0.3, 50.0], indexing="ij")
    for case in Case:
        for s in (lam, 1.0):
            got = growth_ratio_quadratic(s, SimpleNamespace(a=a, lam=lam, m=m), case)
            for i in np.ndindex(got.shape):
                p = Params(a=float(a[i]), lam=float(lam[i]), m=float(m[i]))
                want = growth_ratio_quadratic(p.lam if s is lam else 1.0, p, case)
                assert float(got[i]) == want
    m[1, 0, 2] = 0.0
    message = "m must be nonzero at (a, lam, m) = (0.05, 0.002, 0.0)"
    with pytest.raises(ValueError, match=re.escape(message)):
        growth_ratio_quadratic(1.0, SimpleNamespace(a=a, lam=lam, m=m), Case.A)
    # k/m = inf would make G* inf - inf = NaN, after an overflow warning
    m[1, 0, 2] = 1e-320
    message = "k/m must be finite at (a, lam, m) = (0.05, 0.002, 1e-320)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            growth_ratio_quadratic(1.0, SimpleNamespace(a=a, lam=lam, m=m), Case.A)


def test_smax_lower_bound_boundary_reduction():
    # at x_gamma = M (1 - s_gamma) the bracketed product collapses to
    # (1 - s_gamma)^(m+M) and the bound returns s_gamma itself
    for m in (0.3, 1.0, 5.0):
        val = smax_lower_bound(0.7 * 0.3 * (1 - 1e-8), m)
        assert val == pytest.approx(0.7, abs=1e-6)


def test_smax_lower_bound_exceeds_08_at_envelope():
    val = smax_lower_bound(handoff_cap_envelope(1.0, Case.A), 1.0)
    assert val > 0.8


def test_smax_lower_bound_monotone_in_x_gamma():
    xs = np.geomspace(1e-8, 0.2, 30)
    vals = [smax_lower_bound(float(x), 1.0) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_smax_lower_bound_validation():
    with pytest.raises(ValueError):
        smax_lower_bound(0.25, 1.0)  # x_gamma >= M(1 - s_gamma)
    with pytest.raises(ValueError):
        smax_lower_bound(0.01, 0.0)


def plain_smax_lower_bound(x_gamma, m):
    # the log sum smax_lower_bound was once taken as, overflowing at large m
    M = S_GAMMA
    d = S_GAMMA + x_gamma / (m + M) - 1.0
    ln_term = (
        m * math.log(-d) + M * math.log(x_gamma) + m * math.log(m + M)
        - M * math.log(M) - m * math.log(m)
    ) / (M + m)
    return 1.0 - math.exp(ln_term)


# the measured worst over 50 000 points of the grid below is 1.60 ulp
SMAX_ULPS = 2.0


def exact_smax_lower_bound(x_gamma, m):
    # 1 - ((-d)^m x_gamma^M ((m+M)/m)^m / M^M)^(1/(M+m)) in 40 digits on the
    # floats given, with m ln((m+M)/m) = m log1p(M/m)
    M = S_GAMMA
    with mpmath.workdps(40):
        xg, mm = mpmath.mpf(x_gamma), mpmath.mpf(m)
        d = M + xg / (mm + M) - 1
        ln_term = (mm * mpmath.log(-d) + M * mpmath.log(xg)
                   + mm * mpmath.log1p(M / mm) - M * mpmath.log(M)) / (M + mm)
        return 1 - mpmath.exp(ln_term)


def smax_error_ulps(x_gamma, m):
    want = exact_smax_lower_bound(x_gamma, m)
    with mpmath.workdps(40):
        return float(abs(smax_lower_bound(x_gamma, m) - want)) / math.ulp(float(want))


def test_smax_lower_bound_is_within_a_few_ulp_of_40_digits():
    # the log sum it replaces was up to 189 ulp off at large m
    for m in np.geomspace(1e-320, 1.7e308, 121).tolist():
        for x_gamma in np.geomspace(1e-6, 0.2, 7).tolist():
            assert smax_error_ulps(x_gamma, m) <= SMAX_ULPS, (x_gamma, m)
    # at the last x_gamma below the cap, where its d = s_gamma + x_gamma/(m+M) - 1
    # rounded to 0 and ln(-d) raised "math domain error" at m = 1e-17 and below
    below_cap = math.nextafter(S_GAMMA * (1.0 - S_GAMMA), 0.0)
    for m in (5e-324, 1e-300, 1e-17, 1e-3, 1.0):
        assert smax_error_ulps(below_cap, m) <= SMAX_ULPS, m


def test_smax_lower_bound_is_finite_where_m_ln_m_overflows():
    # from about m = 2.556e305, m ln(m + M) and m ln m overflow and the sum
    # read inf - inf = NaN; the bound is its 40-digit value there and below
    for x_gamma in (1e-300, 0.01, 0.2):
        for m in (2.6e305, 1e306, 1.7e308):
            assert math.isnan(plain_smax_lower_bound(x_gamma, m))
            want = float(exact_smax_lower_bound(x_gamma, m))
            assert smax_lower_bound(x_gamma, m) == pytest.approx(want, rel=0.0, abs=1e-15)
        for m in (1e-3, 1.0, 1e10, 1e300, 2.5e305):
            assert smax_error_ulps(x_gamma, m) <= SMAX_ULPS, (x_gamma, m)


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_smax_lower_bound_is_one_minus_the_alpha_factors(case):
    # one kernel: every bit of the bound is that of 1 - alpha1 alpha2 alpha3
    for m in np.geomspace(1e-3, 50, 101).tolist() + [M_BRANCH, 1e-320]:
        f = alpha_factors(m, case)
        assert smax_lower_bound(f.x_gamma, m) == 1.0 - f.alpha, m
    # where the envelope underflows, on the kernel at other hand-off values
    for x_gamma in (1e-6, 0.01, 0.2):
        f = region4._shortfall(_arith.MATH, x_gamma, 1e300)
        assert smax_lower_bound(x_gamma, 1e300) == 1.0 - f.alpha


def test_alpha_factors_match_smax_bound():
    for case in (Case.A, Case.B):
        for m in (0.05, 0.3, 1.0, 4.0, 20.0):
            f = alpha_factors(m, case)
            assert f.alpha == pytest.approx(
                f.alpha1 * f.alpha2 * f.alpha3, rel=1e-14
            )
            direct = smax_lower_bound(f.x_gamma, m)
            assert 1.0 - f.alpha == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("case", [Case.A, Case.B])
@pytest.mark.parametrize("m", [400.0, 1e300])
def test_alpha_factors_names_m_where_the_envelope_underflows(case, m):
    # the envelope is 0.0 there, so ln x_gamma does not exist
    assert handoff_cap_envelope(m, case) == 0.0
    with pytest.raises(ValueError, match=re.escape(f"underflows at m = {m!r} (case {case.value})")):
        alpha_factors(m, case)


def test_alpha_factors_hold_up_to_the_underflow():
    # the last m below case A's underflow still factors, at an envelope
    # of a few hundred subnormal units
    f = alpha_factors(362.96, Case.A)
    assert 0.0 < f.x_gamma < 1e-320
    assert 1.0 - f.alpha == pytest.approx(smax_lower_bound(f.x_gamma, 362.96), rel=1e-12)


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_alpha_factors_stay_finite_where_the_quotient_overflows(case):
    # there alpha3 = exp(e1 (ln(m + M) - ln m)), about 1, and 1 - alpha is
    # still the prey-maximum bound, on floats and on an array alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = alpha_factors(np.array(SUBNORMAL_M), case)
        for i, m in enumerate(SUBNORMAL_M):
            direct = smax_lower_bound(alpha_factors(m, case).x_gamma, m)
            for alpha in (alpha_factors(m, case).alpha, float(row.alpha[i])):
                assert math.isfinite(alpha), m
                assert 1.0 - alpha == pytest.approx(direct, abs=1e-15), m


# the proof spot-checks' alpha row: 500 log-spaced m and the branch end
ALPHA_ROW = np.append(np.geomspace(*_M_RANGE, 500), M_BRANCH)


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_alpha_factors_on_an_array_match_the_float_calls(case):
    row = alpha_factors(ALPHA_ROW, case)
    scalar = [alpha_factors(m, case) for m in ALPHA_ROW.tolist()]
    for name in AlphaFactors._fields:
        got = np.broadcast_to(getattr(row, name), ALPHA_ROW.shape)
        want = np.array([getattr(f, name) for f in scalar])
        # NumPy's exp, log and pow are not libm's: measured gap <= 3 ulp
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want)), name


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_alpha_row_worst_is_the_float_scans_worst(case):
    row = alpha_factors(ALPHA_ROW, case).alpha
    i = int(np.argmax(row))
    scan = max(((alpha_factors(m, case).alpha, m) for m in ALPHA_ROW.tolist()), key=lambda t: t[0])
    assert (float(row[i]), float(ALPHA_ROW[i])) == scan


def test_alpha_factors_on_an_array_name_m_where_the_envelope_underflows():
    ms = np.array([1.0, 362.0, 400.0, 500.0])
    with pytest.raises(ValueError, match=re.escape("underflows at m = 400.0 (case A): x_gamma = 0.0")):
        alpha_factors(ms, Case.A)


@pytest.mark.parametrize("bad", [0.0, math.nan, -1.0])
def test_alpha_factors_on_an_array_name_the_first_bad_m(bad):
    ms = np.array([[1.0, 2.0], [bad, -2.0]])
    with pytest.raises(ValueError, match=re.escape(f"m must be > 0, got {bad!r}")):
        alpha_factors(ms, Case.B)


@pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
def test_handoff_cap_envelope_on_an_array_names_the_first_bad_m(bad):
    ms = np.array([0.0, 0.3, bad, -5.0])
    with pytest.raises(ValueError, match=re.escape(f"m must be finite and nonnegative, got {bad!r}")):
        handoff_cap_envelope(ms, Case.A)


def test_handoff_cap_envelope_on_an_array_is_the_float_envelope():
    # the branch is chosen per element, m = 0.3 still on the low branch
    ms = np.array([0.0, 0.1, M_BRANCH, math.nextafter(M_BRANCH, 1.0), 2.0, 400.0])
    got = handoff_cap_envelope(ms, Case.B)
    want = np.array([handoff_cap_envelope(m, Case.B) for m in ms.tolist()])
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)
    assert got[-1] == 0.0


def z_Z2(y, case):
    return z(ZIndex.Z2, y)


def z_exact_y(y, case):
    return z_exact(y)


def lv_root_A(A, case):
    return lv_small_root_ln(A, 2.0)


def lv_root_C(C, case):
    return lv_small_root_ln(1.0, C)


# each closed form with the name its errors give the number it reads
READ_AS = {
    alpha_factors: "m", handoff_cap_envelope: "m", z_Z2: "y", z_exact_y: "y",
    lv_root_A: "A", lv_root_C: "C",
}


@pytest.mark.parametrize("function", list(READ_AS))
@pytest.mark.parametrize("m", ["1", 10**400, True, [1.0], math.inf, math.nan])
def test_the_m_functions_read_m_as_a_finite_number(function, m):
    # m stands for each function's number (m, y, A or C).  z_exact and
    # lv_small_root_ln read every argument with finite_float; in the others
    # a non-finite float meets the range check, whose message ends with it
    # (region4's are pinned above)
    message = f"{READ_AS[function]} must be a finite int or float, got {m!r}"
    if isinstance(m, float) and function in (alpha_factors, handoff_cap_envelope, z_Z2):
        message = f"got {m!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        function(m, Case.A)


def test_alpha3_peak_is_e_to_1_over_e():
    M = 0.7
    m_star = M / (math.e - 1.0)
    f = alpha_factors(m_star, Case.A)
    assert f.alpha3 == pytest.approx(math.exp(1 / math.e), rel=1e-12)
    for m in (0.5 * m_star, 2.0 * m_star):
        assert alpha_factors(m, Case.A).alpha3 < f.alpha3


def test_alpha_below_cap_on_log_grid():
    for case in (Case.A, Case.B):
        worst = max(
            alpha_factors(float(m), case).alpha for m in np.geomspace(1e-3, 50, 200)
        )
        assert worst < 0.2, case


def test_alpha2_peak_case_a_matches_reported_location():
    assert alpha2_peak(Case.A) == pytest.approx(4.11, abs=0.02)


def test_alpha2_peak_agrees_with_direct_maximization():
    # independent route: numerically maximize alpha2 itself
    for case, frozen in ((Case.A, 4.108949), (Case.B, 3.031413)):
        root = alpha2_peak(case)
        assert root == pytest.approx(frozen, abs=2e-4)

        def neg_ln_alpha2(m, case=case):
            x_gamma = handoff_cap_envelope(m, case)
            return -0.7 / (m + 0.7) * math.log(x_gamma / 0.7)

        res = minimize_scalar(
            neg_ln_alpha2, bounds=(0.31, 20.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert root == pytest.approx(res.x, abs=1e-5)


def test_alpha2_stationarity_is_decreasing():
    # sample the stationarity function through the public root finder's
    # ingredients: alpha2 increases before the peak and decreases after
    for case in (Case.A, Case.B):
        peak = alpha2_peak(case)
        before = [alpha_factors(m, case).alpha2 for m in np.linspace(0.5, peak, 12)]
        after = [alpha_factors(m, case).alpha2 for m in np.linspace(peak, 10.0, 12)]
        assert all(b > a for a, b in zip(before, before[1:]))
        assert all(b < a for a, b in zip(after, after[1:]))


def test_recovery_start_cap_dominates_x_min_upper():
    for case, grid in CASE_GRIDS.items():
        for p in grid:
            x3_hi = math.exp(cycle_bounds(p).ln_x_min_hi)
            assert x3_hi <= _recovery_start_cap(p, case) * (1 + 1e-12), p


def test_recovery_start_cap_reads_p_as_the_cap_chain_does():
    # h(lam) = 0 at a = lam = 0 (limit mode): the cap has no value there
    message = "h(lam) must be positive at (a, lam, m) = (0.0, 0.0, 1.0)"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _recovery_start_cap(Params(0.0, 0.0, 1.0, limit=True), Case.A)
    with pytest.raises(ValueError, match=re.escape(f"{DOMAIN} at (a, lam, m) = (0.05, 0.05, nan)")):
        _recovery_start_cap(SimpleNamespace(a=0.05, lam=0.05, m=math.nan), Case.A)
    # on arrays it is the float cap at every point, both m branches included
    for case, grid in CASE_GRIDS.items():
        a, lam, m = (np.array([getattr(p, name) for p in grid]) for name in ("a", "lam", "m"))
        got = _recovery_start_cap(SimpleNamespace(a=a, lam=lam, m=m), case)
        want = np.array([_recovery_start_cap(p, case) for p in grid])
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)


def test_handoff_chain_case_a():
    # the two barrier preconditions: the recovery start value stays below
    # (1-k) h(lam) and the hand-off cap below (1-k) h(s_gamma)
    for p in CASE_GRIDS[Case.A]:
        x3_hi = math.exp(cycle_bounds(p).ln_x_min_hi)
        assert x3_hi <= (1 - Case.A.k) * p.h_lam, p
        assert handoff_cap_envelope(p.m, Case.A) <= (1 - Case.A.k) * h(
            S_GAMMA, p
        ), p
