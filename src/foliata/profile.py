"""One-variable profile functions f(x), g(y) and their periods.

Both profiles solve the same pendulum-with-quartic-potential equation

    w'' = -(2 w^3 + k w),        w'^2 + w^4 + k w^2 + m0 = 0,

with (k, m0) = (cbar, c) for f and (dbar, d) for g.  w^2 ranges over
[max(0, r-), r+] where r-+ are the roots of R(s) = s^2 + k s + m0, and the
solutions are Jacobi elliptic functions (DLMF 22): profiles and their
periods are evaluated in closed form through the arithmetic-geometric mean
of DLMF 22.20(ii), also on the uniform grids of ``foliata profile``.  A
classical fixed-step fourth-order integration of the second-order form is
the independent oracle for the closed form; the first integral is never
used for stepping (its square root is branch-ambiguous at turning points)
and instead serves as the conservation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
#: |delta| at or below which a c0 = -1 point lies on the constant-profile
#: curve delta = 0.
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


def _kind_params(dp: DerivedParams, kind: str) -> tuple[float, float]:
    """(coef, const) of R(X) = X^2 + coef X + const for the requested profile."""
    kind = kind.upper()
    if kind == "F":
        return dp.cbar, dp.c_const
    if kind == "G":
        return dp.dbar, dp.d_const
    raise InvalidParams(f"kind must be 'F' or 'G', got {kind!r}")


def _roots(dp: DerivedParams, kind: str) -> tuple[float, float]:
    """The roots r- <= r+ of R for the requested profile.

    The root of larger magnitude comes from the textbook formula and the
    other from Vieta, const / (the first): the textbook formula for it
    cancels near the homoclinic edge m -> 1, and a zero constant gives a
    root at exactly 0, where the rounded roots of ``dp`` may read +-1 ulp.
    """
    coef, const = _kind_params(dp, kind)
    big = -0.5 * (coef + math.copysign(math.sqrt(dp.delta), coef))
    if big == 0:
        # coef = delta = 0, so R = X^2 + const.  The constant of g is the
        # point's own d, which the rounded delta does not pin to 0.
        if const > 0:
            raise NoRealSolution(f"X^2 + {const} of the {kind} quadratic has no real root")
        root = math.sqrt(abs(const))
        return -root, root
    lo, hi = sorted((big, const / big))
    return lo, hi


def admissible_interval(dp: DerivedParams, kind: str) -> tuple[float, float]:
    """Range [m, M] of attainable squared profile values.

    Raises NoRealSolution when the discriminant is negative or when both
    roots of the profile's quadratic are: w'^2 = -R(w^2) is then negative
    everywhere, even where the rounded upper root of ``dp`` reads 0.
    """
    if dp.delta < 0 or dp.xplus is None:
        raise NoRealSolution(f"discriminant {dp.delta} < 0")
    lo, hi = _roots(dp, kind)
    if hi < 0:
        raise NoRealSolution(f"both roots {lo}, {hi} of the {kind} quadratic are negative")
    return max(0.0, lo), hi


def _jacobi_form(dp: DerivedParams, kind: str) -> tuple[bool, float, float, float, float]:
    """(sign-changing, sqrt(r+), rate, m, 1 - m) of the Jacobi form of a
    profile that :func:`admissible_interval` admits."""
    lo, hi = _roots(dp, kind)
    if lo <= 0:
        lam2 = hi - lo
        return True, math.sqrt(hi), math.sqrt(lam2), hi / lam2, -lo / lam2
    return False, math.sqrt(hi), math.sqrt(hi), (hi - lo) / hi, lo / hi


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
    sqrt(m0 / r+), w'(0) = 0 (oscillation between positive roots; Vieta
    gives r- without the cancellation of the textbook formula).  ``trivial``
    selects the constant zero branch that exists when m0 = 0.  With roots
    r- <= r+ the solutions are

        w = (w'(0) / lam) sd(lam x | m),   lam^2 = r+ - r-,  m = r+ / lam^2
        w = w(0) / dn(sqrt(r+) x | m),     m = 1 - r- / r+

    on the two branches.  They are evaluated as sqrt(r+) cn(lam x - K | m)
    and sqrt(r+) dn(sqrt(r+) x - K | m), the same functions shifted by the
    quarter period K: near m -> 1 the unshifted quotients divide by dn ~
    sqrt(1 - m) and lose that factor in accuracy.  Every abscissa is
    evaluated independently of the others.  ``_march`` is the fixed-step
    RK4 integration of the same initial-value problem, kept as the oracle.
    """

    def __init__(self, dp: DerivedParams, kind: str, trivial: bool = False):
        self.dp = dp
        self.kind = kind.upper()
        self.coef, self.const = _kind_params(dp, self.kind)
        self.trivial = trivial
        self.w0 = self.dw0 = 0.0
        if trivial:
            if abs(self.const) > 1e-12:
                raise InvalidParams(
                    f"constant zero branch needs vanishing constant, got {self.const}"
                )
            return
        admissible_interval(dp, self.kind)
        if self.const == 0.0:
            return  # a root at 0: the profile rests at the equilibrium w = 0
        self._crossing, self._amp, self._rate, self._m, self._m1 = _jacobi_form(
            dp, self.kind
        )
        if self._crossing:
            self.dw0 = math.sqrt(-self.const)
        else:
            self.w0 = math.sqrt(self.const) / self._amp
        self._ladder = _agm(self._m, self._m1)
        self._quarter = math.pi / (2.0 * self._ladder[0][-1])

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
    """Sampled profile on a uniform grid plus conservation diagnostics."""

    kind: str
    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    params: DerivedParams
    first_integral_drift: float
    period: float | None
    fn: ProfileFunction = field(repr=False, compare=False)

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
    fn = ProfileFunction(dp, kind, trivial=trivial)
    # round the count up so the samples always cover [x0, x1]
    n = max(2, math.ceil(gaps - 1e-9)) + 1
    grid = x0 + step * np.arange(n)
    values, derivs = (np.zeros(n), np.zeros(n)) if trivial else sample(fn, grid)
    # the exact initial data, which the closed form rounds (cn(-K) ~ 6e-17)
    start = grid == 0.0
    values[start], derivs[start] = fn.w0, fn.dw0
    drift = float(np.max(np.abs(fn.first_integral(values, derivs))))
    if drift > 100.0 * DRIFT_TOL:
        raise DriftExceeded(f"first-integral drift {drift:.3e} exceeds 100 x {DRIFT_TOL:.1e}")
    try:
        period = profile_period(dp, kind) if not trivial else None
    except (NonOscillatory, NoRealSolution):
        period = None
    return ProfileSolution(kind.upper(), grid, values, derivs, dp, drift, period, fn)


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
    """Exact period of the oscillating profile: 4K / lam on the sign-changing
    branch (w = sd), 2K / sqrt(r+) on the one-signed one (w = 1/dn), with the
    complete elliptic integral K = pi / (2 AGM(1, sqrt(1 - m))).
    """
    admissible_interval(dp, kind)
    rlo, rhi = _roots(dp, kind)
    if dp.delta == 0 or rhi == rlo:
        raise NonOscillatory("double root: profile is constant")
    if rhi <= 0:
        raise NonOscillatory("degenerate admissible interval")
    crossing, _, rate, m, m1 = _jacobi_form(dp, kind)
    if crossing and m1 == 0:
        raise NonOscillatory("homoclinic branch has infinite period")
    a, _ = _agm(m, m1)
    return (2.0 if crossing else 1.0) * math.pi / (a[-1] * rate)


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
    m, bigm = admissible_interval(dp, kind)
    if dp.delta == 0 or bigm == m:
        raise NonOscillatory("constant profile has no period")
    fn = ProfileFunction(dp, kind)
    if fn.w0 == 0.0 and fn.dw0 == 0.0:
        raise NonOscillatory("profile sits at an equilibrium")
    use_deriv = m > 0.0
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

    Defined for c0 = -1 with delta = 0:  alpha^2 = (1 + c - d)/2 and
    beta^2 = (1 + d - c)/2, so alpha^2 + beta^2 = 1.
    """
    p.validate()
    if p.c0 != -1:
        raise InvalidParams("constant-profile family is specific to c0 = -1")
    dp = derive_params(p)
    if abs(dp.delta) > DEGENERATE_DELTA:
        raise NotDegenerate(f"delta = {dp.delta} != 0")
    asq = (1.0 + p.c - p.d) / 2.0
    bsq = (1.0 + p.d - p.c) / 2.0
    if asq < -1e-12 or bsq < -1e-12:
        raise NotDegenerate(f"negative squared constants ({asq}, {bsq})")
    return math.sqrt(max(asq, 0.0)), math.sqrt(max(bsq, 0.0))
