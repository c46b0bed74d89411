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
from functools import cached_property

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
#: Smallest relative residual to which the inner conjugate-gradient solve of
#: a Newton step is taken: the floor of the forcing term.
CG_RTOL = 1e-12
#: Largest forcing term: the relative residual to which the first Newton
#: step is solved, and the cap of every later one.
CG_FORCING_MAX = 0.1
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
#: Most nodes of a grid: 80 MB per float64 array, and a field's diagnostics
#: hold several.  A larger grid is refused before anything is allocated.
MAX_NODES = 10**7


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
        if self.nx * self.ny > MAX_NODES:
            raise InvalidParams(f"{self.nx} x {self.ny} grid nodes, more than {MAX_NODES}")

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
    """Max and RMS residual over the evaluated nodes.  ``l2`` sums the
    squares of each row block pairwise and the blocks' sums in row order
    (:class:`ResidualAccumulator`)."""

    linf: float
    l2: float
    count: int


class ResidualAccumulator:
    """linf, node count and sum of squares of the finite values of a
    residual, taken one row block at a time, so no full-grid copy is made.

    Each block is scaled by an exact power of two to below 2 before it is
    squared, so no square overflows (a residual below 2 is not scaled at
    all).  Its squares are summed by numpy's pairwise ``np.add.reduce``, not
    by BLAS, so the sum does not depend on a thread count.  The running sum
    is kept at the scale of the largest block so far; rescaling it by a
    power of two is exact.
    """

    def __init__(self):
        self.linf = 0.0
        self.count = 0
        self.exp = 0  # the running sum is of (r / 2^exp)^2
        self.sumsq = 0.0

    def add(self, block: np.ndarray) -> None:
        vals = block[np.isfinite(block)]  # a copy of one block, reused in place below
        if vals.size == 0:
            return
        top = float(np.max(np.abs(vals, out=vals)))
        exp = max(math.frexp(top)[1] - 1, 0)
        np.divide(vals, math.ldexp(1.0, exp), out=vals)
        sumsq = float(np.add.reduce(np.multiply(vals, vals, out=vals)))
        if exp > self.exp:
            self.sumsq = math.ldexp(self.sumsq, 2 * (self.exp - exp))
            self.exp = exp
        self.sumsq += math.ldexp(sumsq, 2 * (exp - self.exp))
        self.linf = max(self.linf, top)
        self.count += vals.size

    def stats(self) -> ResidualStats:
        if self.count == 0:
            raise TooFewNodes("no nodes with a full non-singular stencil")
        l2 = math.ldexp(math.sqrt(self.sumsq / self.count), self.exp)
        return ResidualStats(linf=self.linf, l2=l2, count=self.count)


class FieldData:
    """Pointwise field data: sinh/cosh of omega and its gradient, all NaN on
    D, and g, the leaves' geodesic curvature k = -omega_y / cosh(omega), also
    on D; from sinh(omega), NaN on D, and the gradient's factors
    omega_x = -f cosh(omega), omega_y = -g cosh(omega)."""

    __slots__ = ("sinh", "cosh", "wx", "wy", "g")

    def __init__(self, sinh, f, g):
        self.sinh = sinh
        self.cosh = np.sqrt(1.0 + sinh * sinh)
        self.wx, self.wy = -f * self.cosh, -g * self.cosh
        self.g = g

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
        self.c0 = self.dp.c0
        self.ffn = ffn
        self.gfn = gfn
        # both profiles constant zero at c0 = 0: the quotients are 0/0 at
        # every point but the constants branch gives omega = 0 exactly
        self.flat_trivial = self.c0 == 0 and ffn.trivial and gfn.trivial

    def _sinh(self, f, fx, g, gy):
        """sinh(omega), NaN on D, from the profile values and derivatives,
        in one output array: the primary quotient where |c0 + f^2 + g^2| >
        EPS_DEN, the continuity extension at the nodes where it fails (most
        often none), NaN where both fail or |sinh| exceeds OVERFLOW_GUARD."""
        shape = np.broadcast(np.asarray(f), np.asarray(g)).shape
        if self.flat_trivial:
            return np.zeros(shape)
        den = self.c0 + f * f + g * g
        use_p = np.abs(den) > EPS_DEN
        sinh = np.add(fx, gy, out=np.empty(shape))
        np.divide(sinh, den, out=sinh, where=use_p)
        rest = ~use_p
        if rest.any():
            f, fx, g, gy = (np.broadcast_to(v, shape)[rest] for v in (f, fx, g, gy))
            den_fb = fx - gy
            sinh[rest] = np.divide(g * g - f * f - self.dp.a, den_fb,
                                   out=np.full(den_fb.shape, np.nan),
                                   where=np.abs(den_fb) > EPS_DEN)
        sinh[np.abs(sinh) > OVERFLOW_GUARD] = np.nan
        return sinh

    def eval_bc(self, x, y) -> FieldData:
        """Field data with numpy broadcasting of the two coordinates."""
        f, fx = self.ffn.eval_many(x)
        g, gy = self.gfn.eval_many(y)
        return FieldData(self._sinh(f, fx, g, gy), f, g)

    def eval_rows(self, xs: np.ndarray, ys: np.ndarray):
        """(lo, hi) -> sinh(omega), NaN on D, on rows [lo, hi) of the grid xs x ys."""
        f, fx = self.ffn.eval_many(xs)
        g, gy = self.gfn.eval_many(ys)
        return lambda lo, hi: self._sinh(f, fx, g[lo:hi, None], gy[lo:hi, None])

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> FieldData:
        return self.eval_bc(xs, np.asarray(ys)[:, None])


class DegenerateSource:
    """Closed-form field data for the constant-profile family at c0 < 0,
    whose constants satisfy alpha^2 + beta^2 = -c0."""

    provenance = "Degenerate"

    def __init__(self, alpha: float, beta: float, c0: float = -1.0):
        if not (c0 < 0 and abs(alpha * alpha + beta * beta + c0) <= -1e-9 * c0):
            raise InvalidParams(f"constants must satisfy alpha^2 + beta^2 = -c0 > 0, "
                                f"got {alpha}, {beta} at c0 = {c0}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.c0 = float(c0)

    def _sinh(self, s):
        """sinh(omega), NaN on D, from the phase s = alpha x + beta y."""
        s = np.asarray(s, dtype=float)
        inside = np.abs(s) < math.pi / 2.0
        t = np.tan(np.where(inside, s, 0.0))
        return np.where(inside & (np.abs(t) <= OVERFLOW_GUARD), -t, np.nan)

    def eval_bc(self, x, y) -> FieldData:
        """Field data with numpy broadcasting of the two coordinates."""
        phase = self.alpha * np.asarray(x, dtype=float) + self.beta * np.asarray(y, dtype=float)
        return FieldData(self._sinh(phase), self.alpha, self.beta)

    def eval_rows(self, xs: np.ndarray, ys: np.ndarray):
        """(lo, hi) -> sinh(omega), NaN on D, on rows [lo, hi) of the grid xs x ys."""
        ax = self.alpha * np.asarray(xs, dtype=float)
        by = self.beta * np.asarray(ys, dtype=float)
        return lambda lo, hi: self._sinh(ax + by[lo:hi, None])

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray) -> FieldData:
        return self.eval_bc(xs, np.asarray(ys)[:, None])


@dataclass(frozen=True)
class OmegaField:
    """The conformal exponent sampled on a grid: one array, ``omega``.

    omega is infinite on the singular set D, so the array holds NaN exactly
    there; elsewhere |omega| <= arcsinh(OVERFLOW_GUARD), where no stencil
    overflows.  Construction refuses any other value (an infinity too), so
    every consumer reads omega as it is.  ``mask``, True on D, is derived
    from the NaNs.  ``source`` (when present) evaluates the same field at
    off-grid points and is what frame integration consumes.
    """

    grid: GridSpec
    c0: float
    omega: np.ndarray
    provenance: str
    source: object | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        omega = self.omega
        omega.setflags(write=False)
        bound = math.asinh(OVERFLOW_GUARD)
        # two comparisons, not np.abs: no full-size float temporary
        beyond = np.flatnonzero((omega > bound) | (omega < -bound))
        if beyond.size:
            j, i = divmod(int(beyond[0]), self.grid.nx)
            raise InvalidParams(f"omega at node (i={i}, j={j}) is {omega[j, i]}, beyond "
                                f"arcsinh(OVERFLOW_GUARD) = {bound}")

    @cached_property
    def mask(self) -> np.ndarray:
        """True exactly on the singular set: the NaN nodes of omega."""
        mask = np.isnan(self.omega)
        mask.setflags(write=False)
        return mask


def require_nodes(grid: GridSpec, need: int, what: str) -> None:
    """Raise TooFewNodes unless the grid has ``need`` nodes on each axis,
    the size that ``what``'s stencils read."""
    if grid.nx < need or grid.ny < need:
        raise TooFewNodes(f"{what} needs at least {need}x{need} nodes, got {grid.nx}x{grid.ny}")


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
    """The field of a closed-form source sampled on a grid: each row
    block's sinh(omega), NaN on D, goes through arcsinh straight into omega."""
    block = source.eval_rows(grid.xs, grid.ys)
    omega = np.empty((grid.ny, grid.nx))
    for rows, _, _ in row_blocks(grid, 0):
        np.arcsinh(block(rows.start, rows.stop), out=omega[rows])
    if np.isnan(omega).all():
        raise AllSingular("every grid node lies on the singular set")
    return OmegaField(grid=grid, c0=source.c0, omega=omega,
                      provenance=source.provenance, source=source)


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


def assemble_omega_degenerate(alpha: float, beta: float, grid: GridSpec, c0: float = -1.0) -> OmegaField:
    """Closed-form field omega = arcsinh(-tan(alpha x + beta y)) on a grid,
    with alpha^2 + beta^2 = -c0.

    Nodes outside the principal strip |alpha x + beta y| < pi/2 are singular.
    """
    return field_from_source(DegenerateSource(alpha, beta, c0), grid)


def _interior_laplacian(w: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Five-point Laplacian of w, (w_E - 2 w + w_W) / hx^2 + (w_N - 2 w +
    w_S) / hy^2, at its interior nodes, and NaN on its boundary ring.

    Taken on w flattened row-major, where the neighbours of node k are
    k -+ 1 and k -+ nx: every operation runs in place over one contiguous
    range, which also holds the ring's side nodes, overwritten with NaN."""
    n = w.shape[1]
    flat = w.reshape(-1)
    lap = np.empty_like(w)
    out = lap.reshape(-1)[n + 1:-n - 1]
    centre = np.multiply(flat[n + 1:-n - 1], 2.0)
    np.subtract(flat[n + 2:-n], centre, out=out)
    out += flat[n:-n - 2]
    out /= hx * hx
    np.subtract(flat[2 * n + 1:-1], centre, out=centre)
    centre += flat[1:-2 * n - 1]
    centre /= hy * hy
    out += centre
    _blank_ring(lap)
    return lap


def _blank_ring(a: np.ndarray) -> None:
    a[0] = a[-1] = np.nan
    a[:, 0] = a[:, -1] = np.nan


def dilate_mask(mask: np.ndarray) -> np.ndarray:
    """One-cell dilation (8-neighborhood), so stencils never straddle D."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= out[:, :-1].copy()
    out[:, :-1] |= out[:, 1:].copy()
    return out


def sinh_gordon_residual(field: OmegaField) -> ResidualStats:
    """Centered second-order residual of lap(omega) + c0 sinh(omega) cosh(omega),
    the source term taken as c0 sinh(2 omega) / 2.

    Evaluated at interior nodes whose full five-point stencil avoids the
    (dilated) singular mask.
    """
    grid = field.grid
    require_nodes(grid, 5, "the sinh-Gordon residual")
    acc = ResidualAccumulator()
    for _, slab, out in row_blocks(grid, 1):
        w = field.omega[slab]
        block = _interior_laplacian(w, grid.hx, grid.hy)[out]
        source = np.multiply(w[out], 2.0)
        np.sinh(source, out=source)
        source *= 0.5 * field.c0
        block += source
        block[dilate_mask(field.mask[slab])[out]] = np.nan
        acc.add(block)
    return acc.stats()


def solve_sinh_gordon(c0: float, grid: GridSpec, start: np.ndarray) -> OmegaField:
    """Damped Newton solve of the Dirichlet problem for the structure equation.

    ``start`` is one (ny, nx) array: its boundary ring is the Dirichlet data
    and its interior the first iterate.  The solve converges, applying the
    full Newton update, once that update has max-norm below ``NEWTON_TOL``;
    otherwise the step is halved until the residual norm decreases, and a
    step factor below 2^-10 raises ``NonConverged``.  Each Newton
    system is solved matrix-free by conjugate gradients, preconditioned by
    the exact inverse of the Dirichlet Laplacian in its sine basis; an inner
    solve that fails raises ``NonConverged`` as well.  The inner solve stops
    at a forcing term (Eisenstat and Walker, SIAM J. Sci. Comput. 17 (1996),
    choice 2): the first step at relative residual ``CG_FORCING_MAX``, step
    k at 0.9 (|F_k| / |F_k-1|)^2, never below ``CG_RTOL`` nor above
    ``CG_FORCING_MAX``.  The residual of the accepted trial is the next F.

    Every field keeps |omega| <= arcsinh(OVERFLOW_GUARD), where its stencils
    cannot overflow: boundary data beyond it or not finite raises
    ``InvalidParams``, and so does the field record of a converged omega
    beyond it (possible for c0 > 0, which has no maximum principle).
    """
    require_nodes(grid, 5, "the Newton solve")
    nx, ny = grid.nx, grid.ny
    w = np.array(start, dtype=float)
    if w.shape != (ny, nx):
        raise GridMismatch(f"start array must be shaped {(ny, nx)}")
    bound = math.asinh(OVERFLOW_GUARD)
    ring = np.ones((ny, nx), dtype=bool)
    ring[1:-1, 1:-1] = False
    beyond = np.flatnonzero(~(np.abs(w) <= bound) & ring)
    if beyond.size:
        j, i = divmod(int(beyond[0]), nx)
        raise InvalidParams(f"the boundary has omega {w[j, i]} at node (i={i}, j={j}), beyond "
                            f"arcsinh(OVERFLOW_GUARD) = {bound}")

    hx, hy = grid.hx, grid.hy
    inv_lap = _dirichlet_inverse(ny - 2, nx - 2, hx, hy)
    padded = np.zeros((ny, nx))

    def residual(arr: np.ndarray) -> np.ndarray:
        lap = _interior_laplacian(arr, hx, hy)[1:-1, 1:-1]
        return lap + c0 * np.sinh(arr[1:-1, 1:-1]) * np.cosh(arr[1:-1, 1:-1])

    def neg_jacobian(p: np.ndarray) -> np.ndarray:
        padded[1:-1, 1:-1] = p
        return -_interior_laplacian(padded, hx, hy)[1:-1, 1:-1] - diag * p

    fv = residual(w)
    norm = np.linalg.norm(fv)
    eta = CG_FORCING_MAX
    lam = float("nan")  # step factor of the last iteration, reported on failure
    for _ in range(NEWTON_MAX_ITER):
        diag = c0 * np.cosh(2.0 * w[1:-1, 1:-1])
        # symmetric scaling of the Laplacian inverse: exact where the
        # Laplacian dominates, Jacobi-like where -diag outweighs the stencil
        scale = 1.0 / np.sqrt(1.0 + np.maximum(-diag, 0.0) / (2.0 / (hx * hx) + 2.0 / (hy * hy)))
        delta = _pcg(neg_jacobian, fv, lambda r: scale * inv_lap(scale * r), eta)
        step = np.max(np.abs(delta))
        if step < NEWTON_TOL:
            w[1:-1, 1:-1] += delta
            return OmegaField(grid=grid, c0=float(c0), omega=w, provenance="Relaxation")
        lam = 1.0
        while True:
            trial = w.copy()
            trial[1:-1, 1:-1] += lam * delta
            with np.errstate(over="ignore", invalid="ignore"):
                # an overflowing trial has a non-finite norm and is halved
                trial_fv = residual(trial)
                trial_norm = np.linalg.norm(trial_fv)
            if trial_norm < norm:
                break
            lam *= 0.5
            if lam < 2.0 ** -10:
                raise NonConverged(
                    f"no Newton step factor down to 2^-10 decreases the residual norm "
                    f"{norm:.6e} (max |delta| {step:.6e})"
                )
        # Eisenstat-Walker choice 2 (gamma = 0.9, alpha = 2): the next step
        # is solved as far as the last one reduced the residual norm
        eta = min(CG_FORCING_MAX, max(CG_RTOL, 0.9 * (trial_norm / norm) ** 2))
        w, fv, norm = trial, trial_fv, trial_norm
    raise NonConverged(
        f"no convergence within {NEWTON_MAX_ITER} Newton iterations "
        f"(last residual norm {norm:.6e}, last step factor {lam})"
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


def _pcg(apply_a, b: np.ndarray, apply_m, rtol: float) -> np.ndarray:
    """Preconditioned conjugate gradients for a x = b, started from zero.

    Stops when the recurrence residual falls to ``rtol`` times |b|;
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
        if rnorm <= rtol * bnorm:
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
    """Largest finite value, NaN if there is none, without copying them out."""
    top = float(np.max(values, initial=-math.inf, where=np.isfinite(values)))
    return top if top > -math.inf else math.nan


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

    @cached_property
    def tanh(self) -> np.ndarray:
        return np.tanh(self.w)

    @cached_property
    def grad2(self) -> np.ndarray:
        grad2 = np.multiply(self.wx, self.wx)
        grad2 += self.wy * self.wy
        return grad2

    def shiffman(self) -> np.ndarray:
        # the cross difference w_NE - w_NW - w_SE + w_SW on w flattened, as
        # in _interior_laplacian: NE is k + nx + 1
        n = self.w.shape[1]
        flat = self.w.reshape(-1)
        u = np.empty_like(self.w)
        wxy = u.reshape(-1)[n + 1:-n - 1]
        np.subtract(flat[2 * n + 2:], flat[2 * n:-2], out=wxy)
        wxy -= flat[2:-2 * n]
        wxy += flat[:-2 * n - 2]
        _blank_ring(u)  # NaN on the boundary ring, and so is u
        u /= 4.0 * self.hx * self.hy
        product = np.multiply(self.tanh, self.wx)
        product *= self.wy
        u -= product
        u[dilate_mask(self.mask)] = np.nan
        return u

    def jacobi(self, u: np.ndarray, out: slice) -> np.ndarray:
        """lap(u) + (c0 + 2 |grad omega|^2 / cosh^2) u on the rows ``out``."""
        res = _interior_laplacian(u, self.hx, self.hy)[out]
        cosh = self.cosh[out]
        coef = np.multiply(self.grad2[out], 2.0)
        coef /= cosh * cosh
        coef += self.c0
        coef *= u[out]
        res += coef
        return res

    def potential_identity(self, out: slice) -> float:
        """Max of |cosh^2 potential - c0 - 2 |grad omega|^2 / cosh^2| on the
        rows ``out``, with the second-variation potential
        c0 / cosh^2 + 2 |grad omega|^2 / cosh^4."""
        cosh2 = self.cosh[out] ** 2
        twice = np.multiply(self.grad2[out], 2.0)
        potential = np.divide(self.c0, cosh2)
        quartic = np.multiply(cosh2, cosh2)
        potential += np.divide(twice, quartic, out=quartic)
        rhs = np.divide(twice, cosh2, out=twice)
        rhs += self.c0
        gap = np.multiply(cosh2, potential, out=potential)
        gap -= rhs
        return _finite_max(np.abs(gap, out=gap))

    def gauss_dual_route(self, out: slice) -> float:
        """Max gap on the rows ``out`` between K = c0 tanh^2(omega) -
        |grad omega|^2 / cosh^4(omega) and -(1 / 2 cosh^2) lap(log cosh^2)."""
        cosh = self.cosh[out]
        gauss = self.tanh[out] ** 2
        gauss *= self.c0
        quartic = cosh ** 4
        gauss -= np.divide(self.grad2[out], quartic, out=quartic)
        # independent route K = -(1 / 2 lambda) lap(log lambda), lambda = cosh^2
        log = np.log(self.cosh)
        log *= 2.0
        route = np.negative(_interior_laplacian(log, self.hx, self.hy)[out])
        denom = cosh ** 2
        denom *= 2.0
        route /= denom
        gauss -= route
        return _finite_max(np.abs(gauss, out=gauss))


def level_curvatures(field: OmegaField) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic curvature grids of the horizontal and vertical level curves.

    k_h = -omega_y / cosh(omega) is defined at every non-singular node;
    k_v = omega_x / sinh(omega) only where omega != 0 (NaN elsewhere).
    """
    k_h = np.empty(field.omega.shape)
    k_v = np.empty_like(k_h)
    for rows, slab, out in row_blocks(field.grid, 1):
        d = _Derivatives(field, slab)
        w = d.w[out]
        np.divide(np.negative(d.wy[out]), d.cosh[out], out=k_h[rows])
        k_v[rows] = np.nan
        np.divide(d.wx[out], np.sinh(w), out=k_v[rows], where=np.abs(w) >= EPS_DEN)
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
        "domain": list(field.grid.domain),
        "nx": field.grid.nx,
        "ny": field.grid.ny,
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
    type or length or a |c0| beyond C0_BOUND (the bound of every assembled
    field) raises ValueError naming it; an omega whose nulls disagree with
    the mask, or the record's refusal of an |omega| beyond
    arcsinh(OVERFLOW_GUARD), raises InvalidParams naming the first such node."""
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
    c0 = float(_typed(doc, "c0", _NUMBER, "a number"))
    if not abs(c0) <= C0_BOUND:
        raise ValueError(f"'c0' is {c0!r}, beyond C0_BOUND = {C0_BOUND!r}, the largest "
                         "|c0| whose square is finite")
    wrong = np.flatnonzero(np.isnan(omega).ravel() != mask)
    if wrong.size:
        j, i = divmod(int(wrong[0]), grid.nx)
        raise InvalidParams(f"omega at node (i={i}, j={j}) is {omega[j, i]} where the mask "
                            f"is {bool(mask[wrong[0]])}; it must be null exactly where the mask "
                            "is true")
    return OmegaField(grid=grid, c0=c0, omega=omega,
                      provenance=_typed(doc, "provenance", {str}, "a string"))
