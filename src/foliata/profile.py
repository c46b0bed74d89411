"""One-variable profile functions f(x), g(y) and their periods.

Both profiles solve the same pendulum-with-quartic-potential equation

    w'' = -(2 w^3 + k w),        w'^2 + w^4 + k w^2 + m0 = 0,

with (k, m0) = (cbar, c) for f and (dbar, d) for g.  w^2 ranges over
[max(0, r-), r+] where r-+ are the roots of R(s) = s^2 + k s + m0 that
DerivedParams carries, and the solutions are Jacobi elliptic functions
(DLMF 22): profiles and their periods are evaluated in closed form through
the arithmetic-geometric mean of DLMF 22.20(ii), also on the uniform grids
of ``foliata profile``.  A classical fixed-step fourth-order integration of
the second-order form is the independent oracle for the closed form; the
first integral is never used for stepping (its square root is
branch-ambiguous at turning points) and instead serves as the conservation
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DriftExceeded,
    InvalidParams,
    NonOscillatory,
    NoRealSolution,
    NotDegenerate,
)
from .moduli import DerivedParams, ModuliPoint, derive_params

#: A sampled profile whose first-integral drift exceeds 100 x DRIFT_TOL
#: raises DriftExceeded.
DRIFT_TOL = 1e-9
#: |delta| / c0^2 at or below which a c0 < 0 point lies on the
#: constant-profile curve delta = 0.
DEGENERATE_DELTA = 1e-12
#: Most samples one profile grid holds: 80 MB for each float64 column.
MAX_SAMPLES = 10**7


def _agm(m: float, m1: float) -> tuple[list[float], list[float]]:
    """AGM ladder a_n, c_n from (1, sqrt(m1)) for parameter m = 1 - m1.

    Iterates until c_n is below one ulp of a_n; a relative stop any tighter
    can stall at one ulp and never end.  The quarter period is pi / (2 a_N).
    """
    a, b, c = [1.0], math.sqrt(m1), [math.sqrt(m)]
    while c[-1] > 2.0 ** -52 * a[-1]:
        a_n = a[-1]
        a.append(0.5 * (a_n + b))
        c.append(0.5 * (a_n - b))
        b = math.sqrt(a_n * b)
    return a, c


def _sn_cn_dn(u, m: float, m1: float, ladder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi sn, cn, dn(u | m) by the descending AGM recurrence of DLMF 22.20(ii).

    dn comes from sqrt(m1 + m cn^2), which never cancels.
    """
    a, c = ladder
    phi = 2.0 ** (len(a) - 1) * a[-1] * u
    for a_n, c_n in zip(a[:0:-1], c[:0:-1]):
        phi = 0.5 * (phi + np.arcsin(c_n * np.sin(phi) / a_n))
    cn = np.cos(phi)
    return np.sin(phi), cn, np.sqrt(m1 + m * cn * cn)


def _kind_params(dp: DerivedParams, kind: str) -> tuple[float, float, float | None, float | None]:
    """(coef, const, r-, r+) of R(X) = X^2 + coef X + const for the requested
    profile: the roots are those of ``dp``, None where they do not exist."""
    kind = kind.upper()
    if kind == "F":
        return dp.cbar, dp.c_const, dp.xminus, dp.xplus
    if kind == "G":
        return dp.dbar, dp.d_const, dp.yminus, dp.yplus
    raise InvalidParams(f"kind must be 'F' or 'G', got {kind!r}")


def admissible_interval(dp: DerivedParams, kind: str) -> tuple[float, float]:
    """Range [m, M] of attainable squared profile values.

    Raises NoRealSolution when the profile's quadratic has no real root, or
    when both its roots are negative: w'^2 = -R(w^2) is then negative
    everywhere.
    """
    *_, lo, hi = _kind_params(dp, kind)
    if hi is None:
        raise NoRealSolution(f"the {kind} quadratic has no real root (discriminant {dp.delta})")
    if hi < 0:
        raise NoRealSolution(f"both roots {lo}, {hi} of the {kind} quadratic are negative")
    return max(0.0, lo), hi


def _accel(w: float, coef: float) -> float:
    return -(2.0 * w * w * w + coef * w)


def _rk4_increment(w: float, dw: float, h: float, coef: float) -> tuple[float, float]:
    """Classical RK4 increment of the state (w, w') of w'' = -(2 w^3 + coef w),
    with ``_accel`` written out inline: this runs once per oracle step."""
    hh = 0.5 * h
    k1v = -(2.0 * w * w * w + coef * w)
    k2w = dw + hh * k1v
    v = w + hh * dw
    k2v = -(2.0 * v * v * v + coef * v)
    k3w = dw + hh * k2v
    v = w + hh * k2w
    k3v = -(2.0 * v * v * v + coef * v)
    k4w = dw + h * k3v
    v = w + h * k3w
    k4v = -(2.0 * v * v * v + coef * v)
    h6 = h / 6.0
    return h6 * (dw + 2.0 * k2w + 2.0 * k3w + k4w), h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)


class ProfileFunction:
    """Closed-form evaluator for one profile.

    Canonical initial data: w(0) = 0, w'(0) = sqrt(-m0) when the admissible
    interval starts at 0 (sign-changing branch), else w(0) = sqrt(r-) =
    sqrt(m0 / r+), w'(0) = 0 (oscillation between positive roots).
    ``trivial`` selects the constant zero branch that exists when m0 = 0.
    With the roots r- <= r+ of ``dp`` the solutions are

        w = (w'(0) / lam) sd(lam x | m),   lam^2 = r+ - r-,  m = r+ / lam^2
        w = w(0) / dn(sqrt(r+) x | m),     m = 1 - r- / r+

    on the two branches.  They are evaluated as sqrt(r+) cn(lam x - K | m)
    and sqrt(r+) dn(sqrt(r+) x - K | m), the same functions shifted by the
    quarter period K: near m -> 1 the unshifted quotients divide by dn ~
    sqrt(1 - m) and lose that factor in accuracy.  Every abscissa is
    evaluated independently of the others.  ``period`` comes from the same
    AGM ladder, None where there is none.  ``_march`` is the fixed-step
    RK4 integration of the same initial-value problem, kept as the oracle.
    """

    def __init__(self, dp: DerivedParams, kind: str, trivial: bool = False):
        self.dp = dp
        self.kind = kind.upper()
        self.coef, self.const, lo, hi = _kind_params(dp, self.kind)
        self.trivial = trivial
        self.w0 = self.dw0 = 0.0
        self.period = None
        if trivial:
            if self.const != 0.0:
                raise InvalidParams(
                    f"constant zero branch needs vanishing constant, got {self.const}"
                )
            return
        admissible_interval(dp, self.kind)
        if self.const == 0.0:
            return  # a root at 0: the profile rests at the equilibrium w = 0
        self._crossing = lo <= 0
        lam2 = hi - lo if self._crossing else hi
        self._amp, self._rate = math.sqrt(hi), math.sqrt(lam2)
        if self._crossing:
            self._m, self._m1 = hi / lam2, -lo / lam2
            self.dw0 = math.sqrt(-self.const)
        else:
            self._m, self._m1 = (hi - lo) / hi, lo / hi
            self.w0 = math.sqrt(self.const) / self._amp
        self._ladder = _agm(self._m, self._m1)
        a_n = self._ladder[0][-1]
        self._quarter = math.pi / (2.0 * a_n)
        if dp.delta != 0 and lo != hi:  # a double root is a constant profile
            self.period = (2.0 if self._crossing else 1.0) * math.pi / (a_n * self._rate)

    def _march(self, targets: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
        """RK4 values and derivatives at ``targets``, marched from 0 outward
        in steps no longer than ``step``.

        State increments accumulate with compensated summation so the
        rounding floor stays well below the fourth-order truncation error
        (the drift-halving diagnostic depends on that).
        """
        w_out = np.empty(targets.size)
        dw_out = np.empty(targets.size)
        coef = self.coef
        for sign in (1.0, -1.0):
            sel = np.nonzero(targets >= 0 if sign > 0 else targets < 0)[0]
            order = sel[np.argsort(sign * targets[sel])]
            ws, dws = [], []
            pos, w, dw = 0.0, self.w0, self.dw0
            cw = cdw = 0.0
            for target in targets[order].tolist():
                gap = abs(target - pos)
                if gap > 0:
                    n = max(1, math.ceil(gap / step - 1e-9))
                    h = sign * gap / n
                    for _ in range(n):
                        inc_w, inc_dw = _rk4_increment(w, dw, h, coef)
                        y = inc_w - cw
                        t = w + y
                        cw = (t - w) - y
                        w = t
                        y = inc_dw - cdw
                        t = dw + y
                        cdw = (t - dw) - y
                        dw = t
                    pos = target
                ws.append(w)
                dws.append(dw)
            w_out[order] = ws
            dw_out[order] = dws
        return w_out, dw_out

    def eval_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Profile value and derivative at arbitrary abscissae (any shape)."""
        xs = np.asarray(xs, dtype=float)
        if self.w0 == 0.0 and self.dw0 == 0.0:
            return np.zeros_like(xs), np.zeros_like(xs)
        u = self._rate * xs - self._quarter
        sn, cn, dn = _sn_cn_dn(u, self._m, self._m1, self._ladder)
        if self._crossing:
            return self._amp * cn, -self._amp * self._rate * sn * dn
        return self._amp * dn, -self._amp * self._rate * self._m * sn * cn

    def first_integral(self, w: np.ndarray, dw: np.ndarray) -> np.ndarray:
        w = np.asarray(w)
        return dw * dw + w ** 4 + self.coef * w * w + self.const


@dataclass(frozen=True)
class ProfileSolution:
    """Sampled profile on a uniform grid plus conservation diagnostics.  The
    profile's kind, parameters and period are those of ``fn``."""

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    first_integral_drift: float
    fn: ProfileFunction

    def __post_init__(self):
        for arr in (self.grid, self.values, self.derivs):
            arr.setflags(write=False)


def _sampled_profile(sample, dp, kind, x_range, step, trivial):
    """Profile valued by ``sample(fn, grid)`` on the uniform grid of step
    ``step`` covering ``x_range``.  Raises DriftExceeded when the
    first-integral drift passes 100 x DRIFT_TOL (a step too large)."""
    x0, x1 = x_range
    if not (step > 0 and x1 > x0):
        raise InvalidParams(f"need step > 0 and x1 > x0, got {step}, {x_range}")
    gaps = (x1 - x0) / step
    if not gaps < MAX_SAMPLES:  # an infinite width as well
        raise InvalidParams(f"{gaps:.3g} samples at step {step}, more than {MAX_SAMPLES}")
    # round the count up so the samples always cover [x0, x1]
    n = max(2, math.ceil(gaps - 1e-9)) + 1
    if not math.isfinite(x0 + step * (n - 1)):  # an infinite step as well
        raise InvalidParams(f"the last of {n} samples at step {step} from {x0} is not finite")
    fn = ProfileFunction(dp, kind, trivial=trivial)
    grid = x0 + step * np.arange(n)
    values, derivs = (np.zeros(n), np.zeros(n)) if trivial else sample(fn, grid)
    # the exact initial data, which the closed form rounds (cn(-K) ~ 6e-17)
    start = grid == 0.0
    values[start], derivs[start] = fn.w0, fn.dw0
    drift = float(np.max(np.abs(fn.first_integral(values, derivs))))
    if not drift <= 100.0 * DRIFT_TOL:  # a NaN drift as well
        raise DriftExceeded(f"first-integral drift {drift:.3e} exceeds 100 x {DRIFT_TOL:.1e}")
    return ProfileSolution(grid, values, derivs, drift, fn)


def sample_profile(
    dp: DerivedParams,
    kind: str,
    x_range: tuple[float, float],
    step: float,
    trivial: bool = False,
) -> ProfileSolution:
    """Closed-form profile on a uniform grid: the samples of ``foliata profile``."""
    return _sampled_profile(ProfileFunction.eval_many, dp, kind, x_range, step, trivial)


def integrate_profile(
    dp: DerivedParams,
    kind: str,
    x_range: tuple[float, float],
    step: float,
    trivial: bool = False,
) -> ProfileSolution:
    """RK4 integration of the profile equation over the grid of
    :func:`sample_profile`: the oracle for the closed form, whose drift and
    step-halving ratio acceptance criterion 2 measures.
    """
    return _sampled_profile(
        lambda fn, grid: fn._march(grid, step), dp, kind, x_range, step, trivial
    )


def profile_period(dp: DerivedParams, kind: str) -> float:
    """Exact period of the oscillating profile, ``ProfileFunction.period``:
    4K / lam on the sign-changing branch (w = sd), 2K / sqrt(r+) on the
    one-signed one (w = 1/dn), with the complete elliptic integral
    K = pi / (2 AGM(1, sqrt(1 - m))) from the profile's own AGM ladder.
    Raises NonOscillatory for a constant profile: a double root, or the rest
    at w = 0 of a zero constant, where the crossing branch is homoclinic.
    """
    period = ProfileFunction(dp, kind).period
    if period is None:
        raise NonOscillatory(f"{kind.lower()} is constant, so it has no period")
    return period


def _hermite_root(x0, h, w0, dw0, w1, dw1) -> float:
    """Zero of the cubic Hermite interpolant on [x0, x0+h] via Newton."""
    t = w0 / (w0 - w1) if w0 != w1 else 0.5
    for _ in range(40):
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        h11 = t**3 - t**2
        val = h00 * w0 + h10 * h * dw0 + h01 * w1 + h11 * h * dw1
        d00 = 6 * t**2 - 6 * t
        d10 = 3 * t**2 - 4 * t + 1
        d01 = -6 * t**2 + 6 * t
        d11 = 3 * t**2 - 2 * t
        der = d00 * w0 + d10 * h * dw0 + d01 * w1 + d11 * h * dw1
        if der == 0:
            break
        t_new = t - val / der
        if abs(t_new - t) < 1e-15:
            t = t_new
            break
        t = min(1.0, max(0.0, t_new))
    return x0 + t * h


def period_from_ode(dp: DerivedParams, kind: str) -> float:
    """Period measured from upward zero crossings of the integrated profile.

    Independent of :func:`profile_period`: RK4 at step 1e-3 over x <= 1000;
    crossings of w (sign-changing branch) or of w' (one-signed branch) are
    refined with cubic Hermite interpolation and the mean crossing gap over
    6 periods is returned.
    """
    n_periods, step, x_max = 6, 1e-3, 1000.0
    fn = ProfileFunction(dp, kind)
    if fn.period is None:
        raise NonOscillatory("constant profile has no period")
    use_deriv = fn.w0 > 0.0  # the one-signed branch
    crossings: list[float] = []
    w, dw = fn.w0, fn.dw0
    x = 0.0
    while x < x_max and len(crossings) < n_periods + 1:
        inc_w, inc_dw = _rk4_increment(w, dw, step, fn.coef)
        w1, dw1 = w + inc_w, dw + inc_dw
        if use_deriv:
            # minima of w: upward crossings of w'
            if dw < 0.0 <= dw1:
                a0, a1 = _accel(w, fn.coef), _accel(w1, fn.coef)
                crossings.append(_hermite_root(x, step, dw, a0, dw1, a1))
        else:
            if w < 0.0 <= w1:
                crossings.append(_hermite_root(x, step, w, dw, w1, dw1))
        w, dw = w1, dw1
        x += step
    if len(crossings) < 2:
        raise NonOscillatory("no repeated crossings found")
    return (crossings[-1] - crossings[0]) / (len(crossings) - 1)


def degenerate_constants(p: ModuliPoint) -> tuple[float, float]:
    """Constant profile values (alpha, beta) on the discriminant-zero curve.

    Defined for c0 < 0 with |delta| <= DEGENERATE_DELTA c0^2 (delta scales
    by c0^2 under a dilatation):  alpha^2 = (c0^2 + c - d)/(-2 c0) and
    beta^2 = (c0^2 + d - c)/(-2 c0), so alpha^2 + beta^2 = -c0.
    """
    p.validate()
    if p.c0 >= 0:
        raise InvalidParams(f"constant-profile family needs c0 < 0, got {p.c0}")
    dp = derive_params(p)
    csq = p.c0 * p.c0
    if abs(dp.delta) > DEGENERATE_DELTA * csq:
        raise NotDegenerate(f"delta = {dp.delta} != 0")
    asq = (csq + p.c - p.d) / (-2.0 * p.c0)
    bsq = (csq + p.d - p.c) / (-2.0 * p.c0)
    if min(asq, bsq) < 1e-12 * p.c0:  # -1e-12 |c0|
        raise NotDegenerate(f"negative squared constants ({asq}, {bsq})")
    return math.sqrt(max(asq, 0.0)), math.sqrt(max(bsq, 0.0))
