"""Scalar Dormand-Prince 5(4) stepper for the log-space predator-prey field.

This is scipy's ``RK45`` algorithm (Dormand & Prince 1980, J. Comput.
Appl. Math. 6:19-26; Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.6) written out on Python floats for the one system the
simulator integrates, :func:`cyclebound.model.log_vector_field`: the
same tableau, error estimator, RMS error norm with scale
``atol + max(|y|, |y_new|) * rtol``, step-size controller (safety 0.9,
factor clamps 0.2 and 10, exponent -1/5, no growth right after a
rejection), initial-step heuristic, minimal step and rtol floor, and the
same 4th-order continuous extension (Shampine's optimal c6).  It takes
the accepted steps scipy takes; only the summation order inside a stage
differs, so states agree to roundoff.  For two unknowns the per-step
numpy dispatch scipy pays on 2-element arrays is several times the cost
of the arithmetic itself, which is why the stepper is spelled out.

The field is written out at stages 2-7 of :meth:`RK45.step` with the
arithmetic of ``log_vector_field`` in the same order, so the stage
derivatives are bit-identical to calls of it; the stepper therefore
has no ``fun`` argument and takes the model parameters instead.

Only forward integration is supported (``t_bound >= t0``).
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable

from .model import _EXP_CLIP, LogState, Params, log_vector_field

__all__ = ["RK45"]

# scipy's validate_tol floor: rtol below this is raised to it
_RTOL_FLOOR = 100.0 * sys.float_info.epsilon

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 5.0  # -1 / (error estimator order + 1)
_SQRT2 = 2.0**0.5  # RMS over two components

# Dormand-Prince 5(4) tableau; the zero entries (stage 2 in B, E and P)
# are dropped from the sums below
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
)
# dense output: y(t_old + x h) = y_old + h * sum_j Q_j x^(j+1), Q = K^T P
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)  # rows for stages 1, 3, 4, 5, 6, 7


def _rms(eu: float, ev: float) -> float:
    return math.sqrt(eu * eu + ev * ev) / _SQRT2


class RK45:
    """Adaptive DOPRI5 stepper for ``(u, v)' = log_vector_field((u, v), p)``.

    The subset of scipy's ``OdeSolver`` interface the simulator uses:
    ``t``, ``y`` (a ``(u, v)`` tuple), ``status`` ("running", "finished"
    or "failed"), :meth:`step` for one accepted step and
    :meth:`dense_output` for the interpolant over the last one.  ``f``
    is the field at ``y`` (the last stage of the last step).
    """

    def __init__(
        self,
        p: Params,
        t0: float,
        y0: tuple[float, float],
        t_bound: float,
        rtol: float = 1e-3,
        atol: float = 1e-6,
    ) -> None:
        if not t_bound >= t0:
            raise ValueError(f"forward integration only: t_bound {t_bound!r} < t0 {t0!r}")
        if not atol >= 0:
            raise ValueError("atol must be nonnegative")
        if rtol < _RTOL_FLOOR:
            warnings.warn(
                f"rtol {rtol!r} is below {_RTOL_FLOOR!r}; using {_RTOL_FLOOR!r}",
                stacklevel=2,
            )
            rtol = _RTOL_FLOOR
        self.p = p
        self.t = float(t0)
        self.t_old: float | None = None
        self.t_bound = t_bound
        self.y = (float(y0[0]), float(y0[1]))
        self.rtol = rtol
        self.atol = atol
        self.status = "running"
        self.f = log_vector_field(LogState(*self.y), p)
        self.h_abs = self._initial_step()
        # (u_old, v_old, h, then k1, k3, k4, k5, k6, k7 as u, v pairs) of
        # the last step, for dense output
        self._last: tuple | None = None

    def _initial_step(self) -> float:
        """scipy's ``select_initial_step`` for an order-4 error estimator."""
        interval = self.t_bound - self.t
        if interval == 0.0:
            return 0.0
        u, v = self.y
        fu, fv = self.f
        su = self.atol + abs(u) * self.rtol
        sv = self.atol + abs(v) * self.rtol
        d0 = _rms(u / su, v / sv)
        d1 = _rms(fu / su, fv / sv)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        gu, gv = log_vector_field(LogState(u + h0 * fu, v + h0 * fv), self.p)
        d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
        return min(100.0 * h0, h1, interval)

    def step(self) -> None:
        """Advance by one accepted step; status becomes "failed" on step underflow."""
        if self.status != "running":
            raise RuntimeError("attempt to step on a failed or finished solver")
        t = self.t
        t_bound = self.t_bound
        if t == t_bound:
            self.t_old = t
            self.status = "finished"
            return
        p = self.p
        a, lam, m = p.a, p.lam, p.m
        exp = math.exp
        clip = _EXP_CLIP
        rtol = self.rtol
        atol = self.atol
        u, v = self.y
        k1u, k1v = self.f
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = self.h_abs
        if h_abs < min_step:
            h_abs = min_step
        # error scale max(|y|, |y_new|) * rtol: the |y| half is fixed
        au = u if u >= 0.0 else -u
        av = v if v >= 0.0 else -v
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = h
            # each stage: s = e^v, (du, dv) = (m (s - lam), h(s) - e^u),
            # exp arguments clipped as in model.log_vector_field
            us = u + (_A21 * k1u) * h
            vs = v + (_A21 * k1v) * h
            s = exp(vs if vs < clip else clip)
            k2u = m * (s - lam)
            k2v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            us = u + (_A31 * k1u + _A32 * k2u) * h
            vs = v + (_A31 * k1v + _A32 * k2v) * h
            s = exp(vs if vs < clip else clip)
            k3u = m * (s - lam)
            k3v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            us = u + (_A41 * k1u + _A42 * k2u + _A43 * k3u) * h
            vs = v + (_A41 * k1v + _A42 * k2v + _A43 * k3v) * h
            s = exp(vs if vs < clip else clip)
            k4u = m * (s - lam)
            k4v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            us = u + (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u) * h
            vs = v + (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v) * h
            s = exp(vs if vs < clip else clip)
            k5u = m * (s - lam)
            k5v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            us = u + (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u) * h
            vs = v + (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v) * h
            s = exp(vs if vs < clip else clip)
            k6u = m * (s - lam)
            k6v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            u_new = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            v_new = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            s = exp(v_new if v_new < clip else clip)
            k7u = m * (s - lam)
            k7v = (1.0 - s) * (s + a) - exp(u_new if u_new < clip else clip)
            eu = (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u) * h
            ev = (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v) * h
            anu = u_new if u_new >= 0.0 else -u_new
            anv = v_new if v_new >= 0.0 else -v_new
            eu /= atol + (au if au > anu else anu) * rtol
            ev /= atol + (av if av > anv else anv) * rtol
            error_norm = math.sqrt(eu * eu + ev * ev) / _SQRT2
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * error_norm**_ERROR_EXPONENT
                    if not factor < _MAX_FACTOR:
                        factor = _MAX_FACTOR
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = _SAFETY * error_norm**_ERROR_EXPONENT
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            rejected = True
        self._last = (
            u, v, h, k1u, k1v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v,
        )
        self.t_old = t
        self.t = t_new
        self.y = (u_new, v_new)
        self.f = (k7u, k7v)
        self.h_abs = h_abs
        if t_new >= t_bound:
            self.status = "finished"

    def dense_output(self) -> Callable[[float], tuple[float, float]]:
        """The 4th-order interpolant ``tau -> (u, v)`` over the last accepted step."""
        if self.t_old is None:
            raise RuntimeError("dense output is available after a successful step")
        t_old = self.t_old
        if self._last is None:  # the zero-length step of t0 == t_bound
            y = self.y
            return lambda tau: y
        u0, v0, h = self._last[:3]
        k = self._last[3:]
        qu = [sum(k[2 * s] * row[j] for s, row in enumerate(_P)) for j in range(4)]
        qv = [sum(k[2 * s + 1] * row[j] for s, row in enumerate(_P)) for j in range(4)]
        qu0, qu1, qu2, qu3 = qu
        qv0, qv1, qv2, qv3 = qv

        def dense(tau: float) -> tuple[float, float]:
            x = (tau - t_old) / h
            x2 = x * x
            x3 = x2 * x
            x4 = x3 * x
            return (
                h * (qu0 * x + qu1 * x2 + qu2 * x3 + qu3 * x4) + u0,
                h * (qv0 * x + qv1 * x2 + qv2 * x3 + qv3 * x4) + v0,
            )

        return dense
