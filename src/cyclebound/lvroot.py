"""Small roots of Lotka-Volterra first integrals and their approximants.

The comparison systems used to trap trajectories in the deep-prey part
of the cycle conserve quantities of the form x - A ln x.  Level-set
arguments there repeatedly need the small root x < A of

    x - A ln x = C,

together with closed-form two-sided approximations.  After rescaling to
A = 1 the root of x - ln x = y - ln y (y > 1) can be written x = z(y) Y
with Y = y e^{-y} and a correction factor z in (1, e].  The rational
approximants z1 <= z <= z2 <= z0 implemented here sandwich the exact
factor and degrade gracefully to 1 as y grows (they are close cousins
of the lower Lambert W branch, which is deliberately not implemented in
general form).
"""

from __future__ import annotations

import math
from enum import Enum

from ._lazy import np

__all__ = ["ZIndex", "z", "lv_small_root_ln", "z_exact"]

_E = math.e


class ZIndex(Enum):
    """Selects one of the three closed-form correction factors.

    Z1 is a lower bound for the exact factor, Z2 an upper bound, and Z0
    a coarser upper bound for Z2.  Each member carries its coefficients
    ``c`` and ``d``: c0 = 0, c1 = (e-2)/(e-1), c2 = 1/e and
    d_i = e - 1 - c_i e.  Z0 is the c = 0 case of the quadratic that
    defines Z1 and Z2, where it degenerates to 1 / (1 - (e-1) Y).
    """

    Z0 = 0
    Z1 = 1
    Z2 = 2

    def __init__(self, index: int) -> None:
        # plain attributes, so z reads them without hashing the member
        self.c = (0.0, (_E - 2.0) / (_E - 1.0), 1.0 / _E)[index]
        self.d = _E - 1.0 - self.c * _E


# the elementary functions z is written in for a float; the clamp is max(x, lo), no builtin call
_MATH = (math.exp, math.sqrt, lambda x, lo: lo if lo > x else x)


def z(i: ZIndex, y: float | np.ndarray) -> float | np.ndarray:
    """Closed-form correction factor z_i(y) for the small root.

    Evaluates with Y = y e^{-y}:

        z_i = (1 - d_i Y - sqrt((1 - d_i Y)^2 - 4 c_i Y)) / (2 c_i Y),

    computed in the conjugate form 2 / (1 - d_i Y + sqrt(...)), which
    avoids cancellation for small Y and is defined at c_i = 0 as well.
    There, for Z0, the square root is 1 - (e-1) Y exactly (the square
    root of a rounded square is exact), so the one formula gives
    z_0 = 1 / (1 - (e-1) Y) bit for bit, with no branch of its own.
    Strictly decreasing in y, with z_i(1) = e (for i = 0, 2)
    and z_i -> 1 as y -> infinity.  Once Y underflows the result is
    exactly 1, which is the correct limit.

    ``y`` is a float or an int (a NumPy float64 is a float), evaluated
    with :mod:`math` to a float, or an ndarray, evaluated elementwise
    with NumPy by the same formula.  Telling them apart reads no NumPy
    attribute, so a float never loads NumPy.
    """
    if isinstance(y, (float, int)):
        if not y >= 1.0:
            raise ValueError(f"z is defined for y >= 1, got {y!r}")
        y = float(y)
        exp, sqrt, clamp = _MATH
    else:
        exp, sqrt, clamp = np.exp, np.sqrt, np.maximum
        bad = ~(y >= 1.0)
        if bad.any():
            raise ValueError(f"z is defined for y >= 1, got {float(y[bad].flat[0])!r}")
    Y = y * exp(-y)
    c = i.c
    one_minus_dY = 1.0 - i.d * Y
    disc = one_minus_dY * one_minus_dY - 4.0 * c * Y
    # disc = 0 exactly at y = 1 for Z2; clamp roundoff
    return 2.0 / (one_minus_dY + sqrt(clamp(disc, 0.0)))


def lv_small_root_ln(A: float, C: float) -> float:
    """Log of the small root: solves e^w - A w = C for w <= ln A.

    Working on w = ln x keeps roots like e^{-2000} meaningful.  The
    residual g(w) = e^w - A w - C is strictly decreasing on the branch,
    positive at w = -C/A and nonpositive at ln A whenever a root
    exists, so a bisection bracket safeguards plain Newton iteration.
    Converges to relative tolerance ~1e-15 in a handful of steps since
    g is nearly linear once e^w << A.
    """
    if not (A > 0 and math.isfinite(A)):
        raise ValueError(f"A must be positive and finite, got {A!r}")
    ln_A = math.log(A)
    c_min = A - A * ln_A
    if C < c_min:
        if C < c_min - 1e-13 * max(1.0, abs(c_min)):
            raise ValueError(
                f"no root: need C >= A - A ln A = {c_min!r}, got C = {C!r}"
            )
        return ln_A  # degenerate double root at the minimum, up to roundoff
    lo, hi = -C / A, ln_A
    w = lo
    for _ in range(200):
        g = math.exp(w) - A * w - C
        if g > 0.0:
            lo = w
        else:
            hi = w
        dg = math.exp(w) - A  # < 0 strictly on (lo, ln A)
        w_new = w - g / dg
        if not lo < w_new < hi:
            w_new = 0.5 * (lo + hi)
        if abs(w_new - w) <= 1e-15 * max(1.0, abs(w_new)):
            return w_new
        w = w_new
    return w


def z_exact(y: float) -> float:
    """Exact correction factor: small root of x - ln x = y - ln y over Y.

    Computed through the log-space root so the ratio never under- or
    overflows; lies in (1, e] and decreases in y, squeezed between
    z(Z1, y) and z(Z2, y).
    """
    if not y >= 1.0:
        raise ValueError(f"z_exact is defined for y >= 1, got {y!r}")
    ln_y = math.log(y)
    w = lv_small_root_ln(1.0, y - ln_y)
    return math.exp(w - (ln_y - y))
