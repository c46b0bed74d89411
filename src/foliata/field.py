"""Conformal exponent omega on 2-D grids, its singular set, and the
structure equation.

The metric of each surface is cosh^2(omega) |dz|^2 and omega solves the
sinh-Gordon equation  lap(omega) + c0 sinh(omega) cosh(omega) = 0.  Away from
the constant-profile family, omega is recovered pointwise from the two
one-variable profiles by

    sinh(omega) = (f' + g') / (c0 + f^2 + g^2)
                = (g^2 - f^2 - a) / (f' - g'),

where the second form extends the first by continuity when its denominator
vanishes but f' - g' does not.  Nodes where both denominators vanish, or
where |sinh(omega)| exceeds OVERFLOW_GUARD, belong to the singular set D
(omega = infinity there).  The constant-profile family has the closed form
sinh(omega) = -tan(alpha x + beta y) on the principal strip.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._jsonfmt import BLOCK_VALUES
from .errors import (
    AllSingular,
    GridMismatch,
    InvalidParams,
    NonConverged,
    TooFewNodes,
)
from .profile import ProfileFunction, ProfileSolution

#: Denominator threshold below which a reconstruction formula is unusable.
EPS_DEN = 1e-9
#: |sinh omega| beyond this marks the node singular (pre-arcsinh overflow).
OVERFLOW_GUARD = 1e8
#: Max-norm of the applied Newton update at which the solve has converged.
NEWTON_TOL = 1e-12
#: Newton iterations allowed before the solve raises ``NonConverged``.
NEWTON_MAX_ITER = 100
#: Relative residual at which the inner conjugate-gradient solve of a Newton
#: step stops.
CG_RTOL = 1e-12
#: Conjugate-gradient iterations allowed per Newton step.
CG_MAX_ITER = 1000
#: Largest |c0| whose square is finite.  Past it the discriminants of
#: ``derive_params`` overflow, so no field is assembled, and a field file
#: holding such a c0 is refused.
C0_BOUND = math.sqrt(sys.float_info.max)
#: Smallest grid spacing h.  With |omega| <= W = arcsinh(OVERFLOW_GUARD), a
#: one-sided gradient is at most 4 W / h and the Shiffman field u at most
#: 17 W^2 / h^2, so the Jacobi residual's lap(u) plus its gradient term is at
#: most 1224 W^4 / h^4 and its c0 u at most C0_BOUND 17 W^2 / h^2.  At
#: h >= H_MIN these are at most 0.60 and 0.38 of the largest float, so no
#: stencil overflows.
H_MIN = (2.0**11 * math.asinh(OVERFLOW_GUARD) ** 4 / sys.float_info.max) ** 0.25
#: Nodes per row block of the grid diagnostics and of field assembly: the
#: text writers' block, 256 KB per float64 array, so a block's temporaries
#: stay in a core's L2 cache.
BLOCK_NODES = BLOCK_VALUES


@dataclass(frozen=True)
class GridSpec:
    """Node-centered uniform grid on [x0, x1] x [y0, y1], row-major, y outermost."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2 or not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InvalidParams(f"degenerate grid {self}")
        if not all(map(math.isfinite, (*self.domain, self.hx, self.hy))):
            raise InvalidParams(f"grid span is not finite: {self}")
        h = min(self.hx, self.hy)
        if h < H_MIN:
            raise InvalidParams(f"grid spacing {h!r} is below {H_MIN!r}, where the stencils' "
                                f"1/h^2 and 1/h^4 terms can overflow: {self}")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    @property
    def domain(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.y0, self.y1)


@dataclass(frozen=True)
class ResidualStats:
    """Max and RMS residual over the evaluated nodes."""

    linf: float
    l2: float
    grid_h: float
    count: int


def stats_from(residual: np.ndarray, grid_h: float) -> ResidualStats:
    vals = residual[np.isfinite(residual)]  # a copy, reused in place below
    if vals.size == 0:
        raise TooFewNodes("no nodes with a full non-singular stencil")
    linf = float(np.max(np.abs(vals, out=vals)))
    # squared after an exact power-of-two scaling to below 2, so the squares
    # cannot overflow and the l2 of a residual below 2 keeps every bit
    scale = math.ldexp(1.0, max(math.frexp(linf)[1] - 1, 0))
    np.divide(vals, scale, out=vals)
    return ResidualStats(
        linf=linf,
        l2=scale * float(np.sqrt(np.mean(np.multiply(vals, vals, out=vals)))),
        grid_h=grid_h,
        count=int(vals.size),
    )


class FieldData:
    """Pointwise field data: sinh/cosh of omega, its gradient, validity; from
    sinh(omega), ok and the gradient's factors omega_x = -f cosh(omega),
    omega_y = -g cosh(omega)."""

    __slots__ = ("sinh", "cosh", "wx", "wy", "ok")

    def __init__(self, sinh, ok, f, g):
        self.sinh, self.ok = sinh, ok
        self.cosh = np.sqrt(1.0 + sinh * sinh)
        self.wx, self.wy = -f * self.cosh, -g * self.cosh

    @property
    def omega(self):
        return np.arcsinh(self.sinh)


class ReconstructedSource:
    """Closed-form field data from the two profile functions.

    Profile values at arbitrary abscissae come from the profiles' closed
    form (never from interpolating a sampled grid), so the data at a point
    depends on that point alone.  The gradient uses omega_x = -f cosh,
    omega_y = -g cosh.
    """

    provenance = "Reconstructed"

    def __init__(self, ffn: ProfileFunction, gfn: ProfileFunction):
        if ffn.kind != "F" or gfn.kind != "G":
            raise GridMismatch("need one F profile and one G profile")
        if ffn.dp != gfn.dp:
            raise GridMismatch("profiles built from different derived parameters")
        self.dp = ffn.dp
        self.c0 = (self.dp.cbar + self.dp.dbar) / 2.0
        self.ffn = ffn
        self.gfn = gfn
        # both profiles constant zero at c0 = 0: the quotients are 0/0 at
        # every point but the constants branch gives omega = 0 exactly
        self.flat_trivial = self.c0 == 0 and ffn.trivial and gfn.trivial

    def _sinh(self, f, fx, g, gy):
        """(sinh(omega), ok) from the profile values and derivatives."""
        if self.flat_trivial:
            z = np.zeros(np.broadcast(np.asarray(f), np.asarray(g)).shape)
            return z, np.ones(z.shape, dtype=bool)
        a = self.dp.a
        den = self.c0 + f * f + g * g
        num = fx + gy
        den_fb = fx - gy
        num_fb = g * g - f * f - a
        use_p = np.abs(den) > EPS_DEN
        use_f = ~use_p & (np.abs(den_fb) > EPS_DEN)
        sinh = np.where(
            use_p,
            num / np.where(use_p, den, 1.0),
            np.where(use_f, num_fb / np.where(use_f, den_fb, 1.0), np.nan),
        )
        ok = (use_p | use_f) & (np.abs(sinh) <= OVERFLOW_GUARD)
        return np.where(ok, sinh, np.nan), ok

    def eval_bc(self, x, y) -> FieldData:
        """Field data with numpy broadcasting of the two coordinates."""
        f, fx = self.ffn.eval_many(x)
        g, gy = self.gfn.eval_many(y)
        return FieldData(*self._sinh(f, fx, g, gy), f, g)

    def eval_rows(self, xs: np.ndarray, ys: np.ndarray):
        """(lo, hi) -> (sinh(omega), ok) on rows [lo, hi) of the grid xs x ys."""
        f, fx = self.ffn.eval_many(xs)
        g, gy = self.gfn.eval_many(ys)
        return lambda lo, hi: self._sinh(f, fx, g[lo:hi, None], gy[lo:hi, None])

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> FieldData:
        return self.eval_bc(xs, np.asarray(ys)[:, None])


class DegenerateSource:
    """Closed-form field data for the constant-profile family (c0 = -1)."""

    provenance = "Degenerate"

    def __init__(self, alpha: float, beta: float):
        if abs(alpha * alpha + beta * beta - 1.0) > 1e-9:
            raise InvalidParams(
                f"constants must satisfy alpha^2 + beta^2 = 1, got {alpha}, {beta}"
            )
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.c0 = -1.0

    def _sinh(self, s):
        """(sinh(omega), ok) from the phase s = alpha x + beta y."""
        s = np.asarray(s, dtype=float)
        inside = np.abs(s) < math.pi / 2.0
        t = np.tan(np.where(inside, s, 0.0))
        ok = inside & (np.abs(t) <= OVERFLOW_GUARD)
        return np.where(ok, -t, np.nan), ok

    def eval_bc(self, x, y) -> FieldData:
        """Field data with numpy broadcasting of the two coordinates."""
        phase = self.alpha * np.asarray(x, dtype=float) + self.beta * np.asarray(y, dtype=float)
        return FieldData(*self._sinh(phase), self.alpha, self.beta)

    def eval_rows(self, xs: np.ndarray, ys: np.ndarray):
        """(lo, hi) -> (sinh(omega), ok) on rows [lo, hi) of the grid xs x ys."""
        ax = self.alpha * np.asarray(xs, dtype=float)
        by = self.beta * np.asarray(ys, dtype=float)
        return lambda lo, hi: self._sinh(ax + by[lo:hi, None])

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> FieldData:
        return self.eval_bc(xs, np.asarray(ys)[:, None])


@dataclass(frozen=True)
class OmegaField:
    """The conformal exponent sampled on a grid.

    ``omega`` and ``sinh_omega`` carry NaN at singular nodes and are finite
    elsewhere; ``mask`` is True exactly there.  The record owns its singular
    set: construction checks that invariant, so every consumer reads the
    arrays as they are.  ``source`` (when present) evaluates the same field
    at off-grid points and is what frame integration consumes.
    """

    grid: GridSpec
    c0: float
    omega: np.ndarray
    sinh_omega: np.ndarray
    mask: np.ndarray
    provenance: str
    source: object | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.omega, self.sinh_omega, self.mask):
            arr.setflags(write=False)
        finite = np.isfinite(self.omega) & np.isfinite(self.sinh_omega)
        wrong = np.flatnonzero(finite == self.mask)
        if wrong.size:
            j, i = divmod(int(wrong[0]), self.grid.nx)
            raise InvalidParams(
                f"omega at node (i={i}, j={j}) is {self.omega[j, i]} with sinh "
                f"{self.sinh_omega[j, i]} where the mask is {bool(self.mask[j, i])}; "
                "both must be NaN exactly where the mask is true and finite elsewhere"
            )

    @property
    def nx(self) -> int:
        return self.grid.nx

    @property
    def ny(self) -> int:
        return self.grid.ny

    @property
    def domain(self) -> tuple[float, float, float, float]:
        return self.grid.domain


def row_blocks(grid: GridSpec, reach: int):
    """(rows, slab, out) per block of about ``BLOCK_NODES`` nodes: its rows,
    those a stencil of ``reach`` rows reads around them, and where the rows
    sit in that slab.  Blocks have at least the 3 rows np.gradient needs."""
    ny = grid.ny
    size = max(BLOCK_NODES // grid.nx, 3)
    lo = 0
    while lo < ny:
        hi = lo + size if ny - lo - size >= 3 else ny
        a = max(lo - reach, 0)
        yield slice(lo, hi), slice(a, min(hi + reach, ny)), slice(lo - a, hi - a)
        lo = hi


def field_from_source(source, grid: GridSpec) -> OmegaField:
    """The field of a closed-form source sampled on a grid, in row blocks."""
    block = source.eval_rows(grid.xs, grid.ys)
    sinh = np.empty((grid.ny, grid.nx))
    omega = np.empty_like(sinh)
    mask = np.empty(sinh.shape, dtype=bool)
    for rows, _, _ in row_blocks(grid, 0):
        sinh[rows], ok = block(rows.start, rows.stop)
        np.arcsinh(sinh[rows], out=omega[rows])
        mask[rows] = ~ok
    if mask.all():
        raise AllSingular("every grid node lies on the singular set")
    return OmegaField(
        grid=grid,
        c0=source.c0,
        omega=omega,
        sinh_omega=sinh,
        mask=mask,
        provenance=source.provenance,
        source=source,
    )


def assemble_omega(fsol: ProfileSolution, gsol: ProfileSolution, grid: GridSpec) -> OmegaField:
    """Reconstruct omega on a grid from two profile solutions.

    Each node uses the primary quotient when |c0 + f^2 + g^2| > EPS_DEN,
    the continuity extension when only |f' - g'| > EPS_DEN, and is marked
    singular when both fail or |sinh omega| exceeds OVERFLOW_GUARD.
    """
    if not (
        fsol.grid[0] - 1e-12 <= grid.x0
        and grid.x1 <= fsol.grid[-1] + 1e-12
        and gsol.grid[0] - 1e-12 <= grid.y0
        and grid.y1 <= gsol.grid[-1] + 1e-12
    ):
        raise GridMismatch("grid extends beyond the sampled profile ranges")
    return field_from_source(ReconstructedSource(fsol.fn, gsol.fn), grid)


def assemble_omega_degenerate(alpha: float, beta: float, grid: GridSpec) -> OmegaField:
    """Closed-form field omega = arcsinh(-tan(alpha x + beta y)) on a grid.

    Nodes outside the principal strip |alpha x + beta y| < pi/2 are singular.
    """
    return field_from_source(DegenerateSource(alpha, beta), grid)


def _interior_laplacian(w: np.ndarray, hx: float, hy: float) -> np.ndarray:
    lap = np.full_like(w, np.nan)
    lap[1:-1, 1:-1] = (
        (w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]) / (hx * hx)
        + (w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / (hy * hy)
    )
    return lap


def dilate_mask(mask: np.ndarray) -> np.ndarray:
    """One-cell dilation (8-neighborhood), so stencils never straddle D."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= out[:, :-1].copy()
    out[:, :-1] |= out[:, 1:].copy()
    return out


def _margin_blank(res: np.ndarray, grid: GridSpec, margin: float) -> np.ndarray:
    if margin <= 0:
        return res
    xs, ys = grid.xs, grid.ys
    keep_x = (xs >= grid.x0 + margin) & (xs <= grid.x1 - margin)
    keep_y = (ys >= grid.y0 + margin) & (ys <= grid.y1 - margin)
    out = np.where(keep_y[:, None] & keep_x[None, :], res, np.nan)
    return out


def sinh_gordon_residual(field: OmegaField) -> ResidualStats:
    """Centered second-order residual of lap(omega) + c0 sinh(omega) cosh(omega).

    Evaluated at interior nodes whose full five-point stencil avoids the
    (dilated) singular mask.
    """
    if field.nx < 5 or field.ny < 5:
        raise TooFewNodes(f"need at least 5x5 nodes, got {field.nx}x{field.ny}")
    grid = field.grid
    res = np.empty(field.omega.shape)
    for rows, slab, out in row_blocks(grid, 1):
        w, mask = field.omega[slab], field.mask[slab]
        block = _interior_laplacian(w, grid.hx, grid.hy)
        block += field.c0 * field.sinh_omega[slab] * np.cosh(w)
        block[dilate_mask(mask)] = np.nan
        res[rows] = block[out]
    return stats_from(res, max(grid.hx, grid.hy))


def _refuse_beyond(omega: np.ndarray, bound: float, what: str, nodes=True) -> None:
    """InvalidParams naming the first of the ``nodes`` of ``omega`` that is
    not finite or exceeds ``bound`` in magnitude."""
    beyond = np.flatnonzero(~(np.abs(omega) <= bound) & nodes)
    if beyond.size:
        j, i = divmod(int(beyond[0]), omega.shape[1])
        raise InvalidParams(f"{what} has omega {omega[j, i]} at node (i={i}, j={j}), beyond "
                            f"arcsinh(OVERFLOW_GUARD) = {bound}")


def solve_sinh_gordon(c0: float, grid: GridSpec, start: np.ndarray) -> OmegaField:
    """Damped Newton solve of the Dirichlet problem for the structure equation.

    ``start`` is one (ny, nx) array: its boundary ring is the Dirichlet data
    and its interior the first iterate.  The solve converges, applying the
    full Newton update, once that update has max-norm below ``NEWTON_TOL``;
    otherwise the step is halved until the residual norm decreases, and a
    step factor below 2^-10 raises ``NonConverged``.  Each Newton
    system is solved matrix-free by conjugate gradients, preconditioned by
    the exact inverse of the Dirichlet Laplacian in its sine basis; an inner
    solve that fails raises ``NonConverged`` as well.

    Every field keeps |omega| <= arcsinh(OVERFLOW_GUARD), where its stencils
    cannot overflow: boundary data beyond it or not finite, or a converged
    omega beyond it (possible for c0 > 0, which has no maximum principle),
    raises ``InvalidParams``.
    """
    nx, ny = grid.nx, grid.ny
    if nx < 5 or ny < 5:
        raise TooFewNodes(f"need at least a 5x5 grid, got {nx}x{ny}")
    w = np.array(start, dtype=float)
    if w.shape != (ny, nx):
        raise GridMismatch(f"start array must be shaped {(ny, nx)}")
    bound = math.asinh(OVERFLOW_GUARD)
    ring = np.ones((ny, nx), dtype=bool)
    ring[1:-1, 1:-1] = False
    _refuse_beyond(w, bound, "the boundary", ring)

    hx, hy = grid.hx, grid.hy
    ax, ay = 1.0 / (hx * hx), 1.0 / (hy * hy)
    inv_lap = _dirichlet_inverse(ny - 2, nx - 2, hx, hy)
    padded = np.zeros((ny, nx))

    def lap(arr: np.ndarray) -> np.ndarray:
        return (
            (arr[1:-1, 2:] - 2.0 * arr[1:-1, 1:-1] + arr[1:-1, :-2]) * ax
            + (arr[2:, 1:-1] - 2.0 * arr[1:-1, 1:-1] + arr[:-2, 1:-1]) * ay
        )

    def residual(arr: np.ndarray) -> np.ndarray:
        return lap(arr) + c0 * np.sinh(arr[1:-1, 1:-1]) * np.cosh(arr[1:-1, 1:-1])

    def neg_jacobian(p: np.ndarray) -> np.ndarray:
        padded[1:-1, 1:-1] = p
        return -lap(padded) - diag * p

    lam = float("nan")  # step factor of the last iteration, reported on failure
    for _ in range(NEWTON_MAX_ITER):
        fv = residual(w)
        diag = c0 * np.cosh(2.0 * w[1:-1, 1:-1])
        # symmetric scaling of the Laplacian inverse: exact where the
        # Laplacian dominates, Jacobi-like where -diag outweighs the stencil
        scale = 1.0 / np.sqrt(1.0 + np.maximum(-diag, 0.0) / (2.0 * ax + 2.0 * ay))
        delta = _pcg(neg_jacobian, fv, lambda r: scale * inv_lap(scale * r))
        step = np.max(np.abs(delta))
        if step < NEWTON_TOL:
            w[1:-1, 1:-1] += delta
            _refuse_beyond(w, bound, "the converged solution")
            return OmegaField(
                grid=grid,
                c0=float(c0),
                omega=w,
                sinh_omega=np.sinh(w),
                mask=np.zeros((ny, nx), dtype=bool),
                provenance="Relaxation",
            )
        norm0 = np.linalg.norm(fv)
        lam = 1.0
        while True:
            trial = w.copy()
            trial[1:-1, 1:-1] += lam * delta
            with np.errstate(over="ignore", invalid="ignore"):
                # an overflowing trial has a non-finite norm and is halved
                trial_norm = np.linalg.norm(residual(trial))
            if trial_norm < norm0:
                break
            lam *= 0.5
            if lam < 2.0 ** -10:
                raise NonConverged(
                    f"no Newton step factor down to 2^-10 decreases the residual norm "
                    f"{norm0:.6e} (max |delta| {step:.6e})"
                )
        w = trial
    raise NonConverged(
        f"no convergence within {NEWTON_MAX_ITER} Newton iterations "
        f"(last residual norm {np.linalg.norm(residual(w)):.6e}, last step factor {lam})"
    )


def _dirichlet_inverse(m: int, n: int, hx: float, hy: float):
    """Inverse of the negated five-point Dirichlet Laplacian on m x n interior nodes.

    Applied in the sine basis S[j, k] = sin(pi j k / (n + 1)), which
    diagonalises the second difference on each axis with eigenvalues
    4/h^2 sin^2(pi k / (2 (n + 1))); S @ S = (n + 1)/2 I.
    """

    def basis(size: int, h: float):
        k = np.arange(1, size + 1)
        # j k mod 2 (size + 1) keeps the argument below 2 pi, where sin is accurate
        sines = np.sin(np.pi * (np.outer(k, k) % (2 * (size + 1))) / (size + 1))
        return sines, 4.0 / (h * h) * np.sin(np.pi * k / (2 * (size + 1))) ** 2

    sy, ey = basis(m, hy)
    sx, ex = basis(n, hx)
    weight = 4.0 / ((m + 1) * (n + 1)) / (ey[:, None] + ex[None, :])
    return lambda r: sy @ ((sy @ r @ sx) * weight) @ sx


def _pcg(apply_a, b: np.ndarray, apply_m) -> np.ndarray:
    """Preconditioned conjugate gradients for a x = b, started from zero.

    Stops when the recurrence residual falls to ``CG_RTOL`` times |b|;
    raises ``NonConverged`` after ``CG_MAX_ITER`` iterations or on a
    breakdown (zero or non-finite curvature p.Ap), never returning NaN.
    """
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x
    r = b.copy()
    p = z = apply_m(r)
    rz = np.vdot(r, z)
    rnorm = bnorm
    for _ in range(CG_MAX_ITER):
        q = apply_a(p)
        pq = np.vdot(p, q)
        if not (np.isfinite(pq) and pq != 0.0):
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rnorm = np.linalg.norm(r)
        if rnorm <= CG_RTOL * bnorm:
            return x
        z = apply_m(r)
        rz_next = np.vdot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise NonConverged(
        f"Newton step not solved: relative residual {rnorm / bnorm:.3e} "
        f"after conjugate gradients (at most {CG_MAX_ITER} iterations)"
    )


def _finite_max(values: np.ndarray) -> float:
    vals = values[np.isfinite(values)]
    return float(np.max(vals)) if vals.size else float("nan")


class _Derivatives:
    """omega on one row slab of a field, its gradient from one np.gradient
    pass and cosh(omega): the derivative kernel of one row block, for the
    level curvatures and the Shiffman diagnostics.  A slab edge inside the
    grid gets one-sided differences, so callers keep only the rows their
    stencil reaches from inside the slab."""

    def __init__(self, field: OmegaField, slab: slice):
        grid = field.grid
        self.c0, self.hx, self.hy = field.c0, grid.hx, grid.hy
        self.mask = field.mask[slab]
        self.w = field.omega[slab]
        self.wy, self.wx = np.gradient(self.w, grid.hy, grid.hx, edge_order=2)
        self.cosh = np.cosh(self.w)
        self.grad2 = self.wx * self.wx + self.wy * self.wy

    def shiffman(self) -> np.ndarray:
        w = self.w
        wxy = np.full_like(w, np.nan)  # NaN on the boundary ring, and so is u
        wxy[1:-1, 1:-1] = w[2:, 2:] - w[2:, :-2] - w[:-2, 2:] + w[:-2, :-2]
        u = wxy / (4.0 * self.hx * self.hy) - np.tanh(w) * self.wx * self.wy
        u[dilate_mask(self.mask)] = np.nan
        return u

    def jacobi(self, u: np.ndarray) -> np.ndarray:
        res = _interior_laplacian(u, self.hx, self.hy)
        res += (self.c0 + 2.0 * self.grad2 / (self.cosh * self.cosh)) * u
        return res

    def potential_identity(self, out: slice) -> float:
        """Max of |cosh^2 potential - c0 - 2 |grad omega|^2 / cosh^2| on the
        rows ``out``, with the second-variation potential
        c0 / cosh^2 + 2 |grad omega|^2 / cosh^4."""
        cosh2 = self.cosh[out] ** 2
        grad2 = self.grad2[out]
        potential = self.c0 / cosh2 + 2.0 * grad2 / (cosh2 * cosh2)
        rhs = self.c0 + 2.0 * grad2 / cosh2
        return _finite_max(np.abs(cosh2 * potential - rhs))

    def gauss_dual_route(self, out: slice) -> float:
        """Max gap on the rows ``out`` between K = c0 tanh^2(omega) -
        |grad omega|^2 / cosh^4(omega) and -(1 / 2 cosh^2) lap(log cosh^2)."""
        gauss = self.c0 * np.tanh(self.w[out]) ** 2 - self.grad2[out] / self.cosh[out] ** 4
        # independent route K = -(1 / 2 lambda) lap(log lambda), lambda = cosh^2
        lap = _interior_laplacian(2.0 * np.log(self.cosh), self.hx, self.hy)[out]
        route = -lap / (2.0 * self.cosh[out] ** 2)
        return _finite_max(np.abs(gauss - route))


def level_curvatures(field: OmegaField) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic curvature grids of the horizontal and vertical level curves.

    k_h = -omega_y / cosh(omega) is defined at every non-singular node;
    k_v = omega_x / sinh(omega) only where omega != 0 (NaN elsewhere).
    """
    k_h = np.empty(field.omega.shape)
    k_v = np.empty_like(k_h)
    for rows, slab, out in row_blocks(field.grid, 1):
        d = _Derivatives(field, slab)
        w, wx = d.w[out], d.wx[out]
        k_h[rows] = -d.wy[out] / d.cosh[out]
        with np.errstate(divide="ignore", invalid="ignore"):
            k_v[rows] = np.where(np.abs(w) >= EPS_DEN, wx / np.sinh(w), np.nan)
    return k_h, k_v


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def field_document(field: OmegaField) -> dict:
    """JSON-ready document for a field: omega and mask row-major, as the 1-d
    arrays that :func:`dumps` writes in one fill.  The record keeps omega NaN
    exactly where the mask is true, so the singular nodes write as null."""
    return {
        "c0": field.c0,
        "domain": list(field.domain),
        "nx": field.nx,
        "ny": field.ny,
        "provenance": field.provenance,
        "omega": field.omega.ravel(),
        "mask": field.mask.ravel(),
    }


#: JSON numbers as json.loads reads them: true and false read as bools,
#: which Python counts as ints but this set does not hold.
_NUMBER = {int, float}


def _typed(doc: dict, key: str, types: set, kind: str):
    """``doc[key]``, which must have one of the ``types``."""
    value = doc[key]
    if type(value) not in types:
        raise ValueError(f"'{key}' must be {kind}, got {value!r}")
    return value


def field_from_document(doc: dict) -> OmegaField:
    """The field of a :func:`field_document` document.  A key of the wrong
    type or length, a |c0| beyond C0_BOUND or an |omega| beyond
    arcsinh(OVERFLOW_GUARD) (the bounds of every assembled field) raises
    ValueError naming it, and an omega whose nulls disagree with the mask
    InvalidParams naming the first such node."""
    domain = doc["domain"]
    if type(domain) is not list or len(domain) != 4 or not set(map(type, domain)) <= _NUMBER:
        raise ValueError(f"'domain' must be a list of 4 numbers, got {domain!r}")
    nx, ny = (_typed(doc, key, {int}, "an integer") for key in ("nx", "ny"))
    grid = GridSpec(*domain, nx=nx, ny=ny)
    size = grid.ny * grid.nx
    try:
        mask = np.array(doc["mask"])
    except ValueError:  # a ragged nesting
        mask = None
    if mask is None or mask.dtype != bool or mask.shape != (size,):
        raise ValueError(f"'mask' must be a flat list of {size} booleans")
    omega = doc["omega"]
    if not (type(omega) is list and len(omega) == size
            and set(map(type, omega)) <= _NUMBER | {type(None)}):
        raise ValueError(f"'omega' must be a flat list of {size} numbers or nulls")
    omega = np.array(omega, dtype=float).reshape(grid.ny, grid.nx)  # null reads as NaN
    bound = float(np.arcsinh(OVERFLOW_GUARD))
    beyond = np.flatnonzero(np.abs(omega) > bound)
    if beyond.size:
        j, i = divmod(int(beyond[0]), grid.nx)
        raise ValueError(f"omega at node (i={i}, j={j}) is {omega[j, i]}, beyond "
                         f"arcsinh(OVERFLOW_GUARD) = {bound}")
    c0 = float(_typed(doc, "c0", _NUMBER, "a number"))
    if not abs(c0) <= C0_BOUND:
        raise ValueError(f"'c0' is {c0!r}, beyond C0_BOUND = {C0_BOUND!r}, the largest "
                         "|c0| whose square is finite")
    return OmegaField(
        grid=grid,
        c0=c0,
        omega=omega,
        sinh_omega=np.sinh(omega),
        mask=mask.reshape(grid.ny, grid.nx),
        provenance=_typed(doc, "provenance", {str}, "a string"),
    )
