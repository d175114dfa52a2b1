import math
import random
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclebound import _arith, lvroot
from cyclebound.lvroot import ZIndex, lv_small_root_ln, z, z_exact

E = math.e


def z_textbook(i: ZIndex, y: float) -> float:
    """Quadratic-root form of the approximants, as an independent route."""
    Y = y * math.exp(-y)
    c = {ZIndex.Z0: 0.0, ZIndex.Z1: (E - 2) / (E - 1), ZIndex.Z2: 1 / E}[i]
    d = E - 1 - c * E
    if c == 0.0:
        return 1.0 / (1.0 - (E - 1) * Y)
    return (1 - d * Y - math.sqrt((1 - d * Y) ** 2 - 4 * c * Y)) / (2 * c * Y)


def bisect_small_root(A: float, C: float) -> float:
    """Plain bisection oracle for the small root of x - A ln x = C."""
    lo, hi = 1e-300, A
    for _ in range(3000):
        mid = 0.5 * (lo + hi)
        if mid - A * math.log(mid) - C > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def test_z_matches_textbook_form():
    # the plain quadratic form loses digits to cancellation once Y is
    # small, so the two routes are compared where it is still accurate
    for i in (ZIndex.Z0, ZIndex.Z1, ZIndex.Z2):
        for y in np.geomspace(1.01, 12.0, 40):
            assert z(i, float(y)) == pytest.approx(z_textbook(i, float(y)), rel=1e-9)


def test_z_endpoint_and_tail():
    # Y = 1/e at y = 1 makes the coarse form equal e exactly
    assert z(ZIndex.Z0, 1.0) == pytest.approx(E, rel=1e-15)
    assert z(ZIndex.Z2, 1.0) == pytest.approx(E, rel=1e-7)  # double root in the sqrt
    assert z(ZIndex.Z0, 50.0) - 1.0 <= 1e-18
    assert z(ZIndex.Z0, 800.0) == 1.0  # Y underflow returns the exact limit
    with pytest.raises(ValueError):
        z(ZIndex.Z1, 0.999)


def test_z2_frozen_value():
    # frozen from the textbook form evaluated at y = 2
    assert z(ZIndex.Z2, 2.0) == pytest.approx(1.5311027959045782, rel=1e-13)


def test_z_decreasing_and_bounded():
    # strictly decreasing until the values become indistinguishable from
    # 1 in double precision (around y ~ 42), nonincreasing after that
    ys = np.geomspace(1.001, 100.0, 300)
    for i in (ZIndex.Z0, ZIndex.Z1, ZIndex.Z2):
        vals = [z(i, float(y)) for y in ys]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(1.0 <= v <= E for v in vals)
        low = [z(i, float(y)) for y in np.geomspace(1.001, 30.0, 100)]
        assert all(b < a for a, b in zip(low, low[1:]))


def test_z_on_arrays_matches_the_float_path(monkeypatch):
    # NumPy's exp and math.exp can differ in the last bit (they do at about
    # 2% of these y), so the float path is given NumPy's exp values;
    # every other operation, the clamp included, must then agree bit for bit
    ys = np.concatenate([[1.0, math.nextafter(1.0, 2.0)], np.geomspace(1.0, 800.0, 500)])
    np_exp = dict(zip((-ys).tolist(), np.exp(-ys).tolist()))
    monkeypatch.setattr(_arith.MATH, "exp", np_exp.__getitem__)
    for i in ZIndex:
        got = z(i, ys)
        assert isinstance(got, np.ndarray) and got.shape == ys.shape
        want = [z(i, y) for y in ys.tolist()]
        assert all(type(v) is float for v in want)  # a float stays on the math path
        assert got.tobytes() == np.array(want).tobytes(), i
    with pytest.raises(ValueError, match=r"got 0\.5$"):
        z(ZIndex.Z2, np.array([2.0, 0.5, 0.9]))


def test_z_float_clamp_is_max_without_a_builtin_call():
    # the float namespace binds the clamp at import; the builtin max costs a call per z
    clamp = _arith.MATH.clamp
    assert clamp is not max and not isinstance(clamp, types.BuiltinFunctionType)
    for x in (-1.0, -0.0, 0.0, 5e-324, 2.0, math.inf, math.nan):
        assert repr(clamp(x, 0.0)) == repr(max(x, 0.0)), x


def test_z_dispatches_scalars_to_math_and_arrays_to_numpy():
    # NumPy's exp may differ from math.exp in the last bit, so bit
    # equality tells the two paths apart
    for i in ZIndex:
        for y in np.geomspace(1.0, 800.0, 300).tolist():
            got = z(i, np.float64(y))  # a float64 is a float
            assert type(got) is float and got == z(i, y)
            zero_d = z(i, np.array(y))
            assert type(zero_d) is not float and zero_d == z(i, np.array([y]))[0]
        assert type(z(i, 3)) is float and z(i, 3) == z(i, 3.0)
    for y, message in ((0.5, r"got 0\.5$"), (0, r"got 0$"), (np.array(0.5), r"got 0\.5$")):
        with pytest.raises(ValueError, match=message):
            z(ZIndex.Z1, y)



def test_z0_is_the_c_zero_case_of_the_one_formula():
    # with c = 0 the square root of (1 - dY)^2 is 1 - dY exactly, so the
    # conjugate form 2 / (2 (1 - dY)) is the coarse factor to the last bit
    assert ZIndex.Z0.c == 0.0 and ZIndex.Z0.d == E - 1.0
    ys = np.concatenate([np.linspace(1.0, 50.0, 100_001), np.geomspace(50.0, 800.0, 2_001)])
    Y = ys * np.exp(-ys)
    np.testing.assert_array_equal(z(ZIndex.Z0, ys), 1.0 / (1.0 - (E - 1.0) * Y))
    for y in ys[::7].tolist():
        assert z(ZIndex.Z0, y) == 1.0 / (1.0 - (E - 1.0) * (y * math.exp(-y))), y

def test_lv_small_root_examples():
    assert math.exp(lv_small_root_ln(1.0, 1.0)) == pytest.approx(1.0)  # degenerate double root
    # u = 2 gives C = 2 - ln 2; bisection oracle agrees
    C = 2.0 - math.log(2.0)
    oracle = bisect_small_root(1.0, C)
    root = math.exp(lv_small_root_ln(1.0, C))
    assert root == pytest.approx(oracle, rel=1e-12)
    assert root == pytest.approx(0.40637573995996, rel=1e-12)  # frozen oracle value
    # A = 0.1, launched from u = 0.5: residual to 1e-12
    C = 0.5 - 0.1 * math.log(0.5)
    root = math.exp(lv_small_root_ln(0.1, C))
    assert root < 0.1
    assert root - 0.1 * math.log(root) == pytest.approx(C, abs=1e-12)


def test_lv_small_root_no_root_signal():
    with pytest.raises(ValueError):
        lv_small_root_ln(1.0, 0.5)  # below the minimum A - A ln A = 1


def test_lv_small_root_ln_deep():
    # C = 1000 drives the root to ~e^-1000; log form keeps it meaningful
    w = lv_small_root_ln(1.0, 1000.0)
    assert w == pytest.approx(-1000.0, abs=1e-9)
    assert math.exp(w) - w - 1000.0 == pytest.approx(0.0, abs=1e-9)


def test_lv_small_root_ln_accepts_a_converged_step_before_bisecting(monkeypatch):
    # a converged Newton step ends the search, even one that lands on the
    # bracket end it just moved; a search that bisects there first and goes
    # on from the middle takes about twice the iterations (28 650 here).  An
    # iteration is one point w at which e^w is evaluated.
    points = []

    def exp(w):
        if not points or points[-1] != w:
            points.append(w)
        return math.exp(w)

    monkeypatch.setattr(lvroot, "math", types.SimpleNamespace(exp=exp, log=math.log))
    rng = random.Random(2026)
    iterations = []
    for _ in range(2000):  # z_exact's calls
        y = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(316.0)))
        points.clear()
        lv_small_root_ln(1.0, y - math.log(y))
        iterations.append(len(points))
    assert sum(iterations) <= 15_000 and max(iterations) <= 20


@given(
    A=st.floats(1e-3, 10.0),
    ratio=st.floats(1.0001, 50.0),
)
def test_lv_small_root_residual_property(A, ratio):
    u = A * ratio
    C = u - A * math.log(u)
    root = math.exp(lv_small_root_ln(A, C))
    assert 0 < root < A
    residual = root - A * math.log(root) - C
    assert abs(residual) <= 1e-12 * max(1.0, abs(C))


def test_z_exact_limits_and_sandwich():
    assert z_exact(1.0 + 1e-9) == pytest.approx(E, rel=1e-4)
    for y in (2.0, 10.0):
        exact = z_exact(y)
        oracle = bisect_small_root(1.0, y - math.log(y)) / (y * math.exp(-y))
        assert exact == pytest.approx(oracle, rel=1e-11)
        assert z(ZIndex.Z1, y) < exact < z(ZIndex.Z2, y)
    assert 1.0 < z_exact(10.0) < z(ZIndex.Z2, 10.0)


def test_z_exact_decreasing():
    ys = np.geomspace(1.001, 100.0, 200)
    vals = [z_exact(float(y)) for y in ys]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    low = [z_exact(float(y)) for y in np.geomspace(1.001, 30.0, 100)]
    assert all(b < a for a, b in zip(low, low[1:]))
