"""Frame integration of the harmonic map and the immersion X = (F, y).

The horizontal factor F of the immersion is a harmonic map into the ambient
surface, represented in a fixed global conformal chart (U, rho(u) |du|^2) of
the field's own curvature c0: the Poincare disk of radius 1/sqrt(-c0), the
Euclidean plane, or the stereographic plane, all one closed form in c0
(:class:`ChartSpace`) and each the unit chart scaled by 1/sqrt|c0|.
:func:`integrate_frame` takes the chart of the field's c0, and the frame it
returns carries the field and the chart that the diagnostics and meshes
read.
Writing F_x = cosh(omega) e^{i psi} / sqrt(rho) and
F_y = i sinh(omega) e^{i psi} / sqrt(rho), the frame angle psi and the
chart point u satisfy the coupled first-order system

    psi_x = -omega_y + cosh(omega)/(2 sqrt(rho)) (cos psi L2 - sin psi L1)
    psi_y = +omega_x - sinh(omega)/(2 sqrt(rho)) (cos psi L1 + sin psi L2)
    u_x   = cosh(omega)/sqrt(rho) (cos psi, sin psi)
    u_y   = sinh(omega)/sqrt(rho) (-sin psi, cos psi)

with L = grad log rho.  The seed column takes Magnus steps in the isometry
group of the model (no frame is marched).  Along a row,
omega_y = -k cosh(omega) with k constant, so every row is a leaf of constant
geodesic curvature k traced at speed cosh(omega): a circle, horocycle or
hypercycle of the ambient model, placed in closed form from the column's
model frame at its Gauss-Legendre arclength; the chart only writes psi and
u.  The leaf's curvature and arclength alone give the holonomy of a
horizontal period; an RK4 row march stays as the oracle.  Off-grid omega
data comes from the field's closed form (profile functions re-evaluated),
never from grid interpolation.  A mesh writes each node once, as its model
lift plus the height y; the node's chart point is a closed function of that
record.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParams,
    NotFlat,
    PeriodUnavailable,
    SingularCrossing,
    TooFewNodes,
)
from .field import (
    GridSpec,
    OmegaField,
    ResidualAccumulator,
    ResidualStats,
    _finite_max,
    _interior_laplacian,
    row_blocks,
)

DISK_EDGE = 1.0 - 1e-12
STEREO_GUARD = 1e8

# ---------------------------------------------------------------------------
# conformal charts and ambient models
# ---------------------------------------------------------------------------

class ChartSpace:
    """A global conformal chart of the ambient surface of curvature c0.

    One closed form in c0 covers the three kinds.  With s = 1 + c0 |u|^2 and
    q = sqrt|c0| (1 on the plane), rho = 4 / (sigma s)^2 and the lift to the
    model has the axis coordinate (1 - c0 |u|^2) / (q s) and the other two
    2 u / (sigma s): the hyperboloid <p, p> = 1/c0 (axis 0), the sphere of
    radius 1/q (axis 2) and, with sigma = 2, the plane in homogeneous
    coordinates (u1, u2, 1).
    """

    def __init__(self, c0: float):
        c0 = float(c0)
        if not math.isfinite(c0):
            raise InvalidParams(f"no chart of curvature {c0!r}")
        self.c0 = c0
        self.q = math.sqrt(abs(c0)) or 1.0
        self.axis, self.sigma = (2, 2.0) if c0 == 0 else (0 if c0 < 0 else 2, 1.0)
        edge = (DISK_EDGE if c0 < 0 else STEREO_GUARD if c0 > 0 else math.inf) / self.q
        self.bound = edge * edge

    def __repr__(self):
        return f"ChartSpace({self.c0!r})"

    def _place(self, axis_value, a, b):
        """Model coordinates from the axis one and the other two, in order."""
        cols = [a, b]
        cols.insert(self.axis, axis_value)
        return np.stack(cols, axis=-1)

    def factor_many(self, u1, u2):
        """(rho, L1, L2) with L = grad log rho, vectorized, unguarded."""
        s = 1.0 + self.c0 * (u1 * u1 + u2 * u2)
        ss = self.sigma * s
        k = -4.0 * self.c0
        return 4.0 / (ss * ss), k * u1 / s, k * u2 / s

    def in_domain(self, u1, u2):
        return u1 * u1 + u2 * u2 < self.bound

    def lift(self, u1, u2):
        """Ambient-model coordinates of chart points: the hyperboloid
        -X0^2 + X1^2 + X2^2 = 1/c0, the plane (u1, u2, 1), the sphere
        |X|^2 = 1/c0."""
        r2 = u1 * u1 + u2 * u2
        s = 1.0 + self.c0 * r2
        ss = self.sigma * s
        return self._place((1.0 - self.c0 * r2) / (self.q * s), 2.0 * u1 / ss, 2.0 * u2 / ss)

    def lift_jacobian(self, u1, u2):
        """Columns (d lift/du1, d lift/du2), stacked along the last axis over
        the shape of the chart points."""
        u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
        s = 1.0 + self.c0 * (u1 * u1 + u2 * u2)
        ss = (s * s)[..., None]
        k = -4.0 * self.c0
        cross = k * u1 * u2
        scale = self._place(1.0 / self.q, 1.0 / self.sigma, 1.0 / self.sigma)
        d1 = self._place(k * u1, 2.0 * s + k * u1 * u1, cross) / ss * scale
        d2 = self._place(k * u2, cross, 2.0 * s + k * u2 * u2) / ss * scale
        return d1, d2

    def chart_state(self, p, t):
        """Chart point (u1, u2) of the model point ``p`` and the chart angle
        of the tangent ``t`` there, over the leading axes: the inverse of the
        lift, u = sigma (p_a, p_b) / (1 + q p_w) with w the axis, and its
        pushforward."""
        w = self.axis
        a, b = (i for i in range(3) if i != w)
        scale = self.sigma / (1.0 + self.q * p[..., w])
        u1, u2 = p[..., a] * scale, p[..., b] * scale
        tw = self.q * t[..., w] / self.sigma
        return u1, u2, np.arctan2(t[..., b] - u2 * tw, t[..., a] - u1 * tw)


# ---------------------------------------------------------------------------
# leaves: the horizontal curves of constant geodesic curvature
# ---------------------------------------------------------------------------

#: Three-point Gauss-Legendre rule on [-1, 1].
GAUSS_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0

#: A leaf with |k^2 + c0| at most this is a horocycle (a line in the plane):
#: the rounding level of the O(1) curvatures the fields produce.  The
#: holonomy scales it by |c0|, as a dilatation scales k^2 + c0.
HOROCYCLE_TOL = 1e-12


def _row_lengths(source, lo, hi, ys):
    """Arclengths, the integral of cosh(omega) dx over [lo, hi], on each row ys.

    Three-point Gauss-Legendre quadrature per interval.  Returns (length,
    bad) shaped (len(ys), len(lo)); an interval with a singular quadrature
    node, where cosh(omega) is NaN, is bad and has length 0.
    """
    half = 0.5 * (hi - lo)
    nodes = ((lo + half)[:, None] + half[:, None] * GAUSS_NODES).ravel()
    data = source.eval_bc(nodes[None, :], np.asarray(ys, dtype=float)[:, None])
    length = half * (data.cosh.reshape(len(ys), len(lo), 3) @ GAUSS_WEIGHTS)
    bad = np.isnan(length)
    return np.where(bad, 0.0, length), bad


def _frame_matrix(space: ChartSpace, u1, u2, psi) -> np.ndarray:
    """Columns (T, N, p): the unit frame at angle psi and its chart point, in
    the ambient model, stacked over the shape of the arguments."""
    u1, u2, psi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (u1, u2, psi)))
    rho, _, _ = space.factor_many(u1, u2)
    sq = np.sqrt(rho)
    c, s = (np.cos(psi) / sq)[..., None], (np.sin(psi) / sq)[..., None]
    d1, d2 = space.lift_jacobian(u1, u2)
    return np.stack([d1 * c + d2 * s, d2 * c - d1 * s, space.lift(u1, u2)], axis=-1)


def _leaf_functions(kappa2: np.ndarray, s: np.ndarray):
    """(f1, f2) with exp(s A) = I + f1 A + f2 A^2, for rows of arclengths s.

    ``kappa2`` = k^2 + c0 holds one value per row of ``s``: circle
    functions where it is positive, hypercycle functions where negative,
    horocycle polynomials within HOROCYCLE_TOL of 0 (half-angle forms).
    Rows with a non-finite ``kappa2`` are NaN.
    """
    f1, f2 = np.full_like(s, np.nan), np.full_like(s, np.nan)
    kappa = np.sqrt(np.abs(kappa2))[:, None]
    for rows, fn in ((kappa2 > HOROCYCLE_TOL, np.sin), (kappa2 < -HOROCYCLE_TOL, np.sinh)):
        kap, arc = kappa[rows], s[rows]
        f1[rows] = fn(kap * arc) / kap
        f2[rows] = 2.0 * (fn(0.5 * kap * arc) / kap) ** 2
    flat = np.abs(kappa2) <= HOROCYCLE_TOL
    f1[flat], f2[flat] = s[flat], 0.5 * s[flat] * s[flat]
    return f1, f2


def _expm3(omega: np.ndarray) -> np.ndarray:
    """exp(Omega) = I + f1 Omega + f2 Omega^2 over a stack of the frame's
    isometry-algebra elements, for which Omega^3 = -kappa^2 Omega with
    kappa^2 = -tr(Omega^2) / 2 (:func:`_leaf_functions` at unit arclength)."""
    sq = omega @ omega
    kappa2 = -0.5 * np.trace(sq, axis1=1, axis2=2)
    f1, f2 = _leaf_functions(kappa2, np.ones((len(kappa2), 1)))
    return np.eye(3) + f1[:, :, None] * omega + f2[:, :, None] * sq


# ---------------------------------------------------------------------------
# frame integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameField:
    """Frame angle and chart point on the grid of a field, with the field
    and the chart of its curvature.

    ``psi`` and ``u`` are NaN together where the frame was not placed, on
    the field's singular set among others, and finite elsewhere:
    :func:`integrate_frame`, the only builder, places them so, and the
    diagnostics and meshes read them, the field and the chart as they are.
    ``valid``, True where the frame was placed, is derived from psi.
    ``seed`` is the grid node (i0, j0) where the frame starts at the chart
    origin at angle 0.
    """

    psi: np.ndarray
    u: np.ndarray
    seed: tuple[int, int]
    field: OmegaField

    def __post_init__(self):
        for arr in (self.psi, self.u):
            arr.setflags(write=False)

    @cached_property
    def valid(self) -> np.ndarray:
        """True where the frame was placed: the finite nodes of psi."""
        valid = np.isfinite(self.psi)
        valid.setflags(write=False)
        return valid

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    @cached_property
    def space(self) -> ChartSpace:
        """The chart of the field's curvature c0."""
        return ChartSpace(self.field.c0)


def _rhs(direction: str, fd, psi, u1, u2, space: ChartSpace):
    rho, l1, l2 = space.factor_many(u1, u2)
    sq = np.sqrt(rho)
    c, s = np.cos(psi), np.sin(psi)
    if direction == "x":
        dpsi = -fd.wy + fd.cosh / (2.0 * sq) * (c * l2 - s * l1)
        return dpsi, fd.cosh / sq * c, fd.cosh / sq * s
    dpsi = fd.wx - fd.sinh / (2.0 * sq) * (c * l1 + s * l2)
    return dpsi, -fd.sinh / sq * s, fd.sinh / sq * c


def _eval_data(source, direction, t, lane_coords):
    if direction == "x":
        return source.eval_bc(t, lane_coords)
    return source.eval_bc(lane_coords, t)


def _march(
    source,
    space: ChartSpace,
    direction: str,
    lane_coords: np.ndarray,
    t_nodes: np.ndarray,
    i_start: int,
    psi_start: np.ndarray,
    u1_start: np.ndarray,
    u2_start: np.ndarray,
):
    """RK4 march of (psi, u) along one direction, vectorized over lanes.

    Returns (psi, u1, u2) arrays shaped (len(t_nodes), n_lanes).  A lane
    stops (NaN onward) where a step is not finite, so after a NaN start or
    singular field data (NaN, which makes the step NaN), or where the chart
    point leaves the chart domain.  Each step evaluates the source at its
    midpoint and end node only: its start node is the previous step's end
    node.
    """
    n, lanes = t_nodes.size, lane_coords.size
    psi = np.full((n, lanes), np.nan)
    u1 = np.full((n, lanes), np.nan)
    u2 = np.full((n, lanes), np.nan)
    psi[i_start], u1[i_start], u2[i_start] = psi_start, u1_start, u2_start
    fd_start = _eval_data(source, direction, t_nodes[i_start], lane_coords)

    def sweep(indices):
        fd0 = fd_start
        for prev, nxt in zip(indices[:-1], indices[1:]):
            h = t_nodes[nxt] - t_nodes[prev]
            tm = t_nodes[prev] + 0.5 * h
            fdm = _eval_data(source, direction, tm, lane_coords)
            fd1 = _eval_data(source, direction, t_nodes[nxt], lane_coords)
            p, a, b = psi[prev], u1[prev], u2[prev]
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                k1 = _rhs(direction, fd0, p, a, b, space)
                k2 = _rhs(direction, fdm, p + 0.5 * h * k1[0], a + 0.5 * h * k1[1], b + 0.5 * h * k1[2], space)
                k3 = _rhs(direction, fdm, p + 0.5 * h * k2[0], a + 0.5 * h * k2[1], b + 0.5 * h * k2[2], space)
                k4 = _rhs(direction, fd1, p + h * k3[0], a + h * k3[1], b + h * k3[2], space)
                pn = p + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
                an = a + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
                bn = b + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
                ok = np.isfinite(pn) & np.isfinite(an) & np.isfinite(bn) & space.in_domain(an, bn)
            psi[nxt] = np.where(ok, pn, np.nan)
            u1[nxt] = np.where(ok, an, np.nan)
            u2[nxt] = np.where(ok, bn, np.nan)
            fd0 = fd1

    sweep(list(range(i_start, n)))
    sweep(list(range(i_start, -1, -1)))
    return psi, u1, u2


def _require_source(field: OmegaField):
    if field.source is None:
        raise InvalidParams(
            "frame integration needs a field with closed-form data "
            "(reconstructed or constant-profile provenance)"
        )
    return field.source


def default_seed(field: OmegaField) -> tuple[int, int]:
    """Grid node (i, j) nearest an axis feature of the field.

    Columns are scored by min(|f|, |f'|) and rows by min(|g|, |g'|) for
    reconstructed fields (the profile zeros and turning points are where the
    surface meets its symmetry axes); the constant-profile family uses the
    line alpha x + beta y = 0.
    """
    xs, ys = field.grid.xs, field.grid.ys
    src = field.source
    if hasattr(src, "ffn"):
        f, fx = src.ffn.eval_many(xs)
        g, gy = src.gfn.eval_many(ys)
        i = int(np.argmin(np.minimum(np.abs(f), np.abs(fx))))
        j = int(np.argmin(np.minimum(np.abs(g), np.abs(gy))))
    else:
        phase = np.abs(src.alpha * xs[None, :] + src.beta * ys[:, None])
        j, i = np.unravel_index(int(np.argmin(phase)), phase.shape)
    if field.mask[j, i]:
        free = np.argwhere(~field.mask)
        if free.size == 0:
            raise SingularCrossing("no non-singular node available for the seed")
        dist = (free[:, 0] - j) ** 2 + (free[:, 1] - i) ** 2
        j, i = map(int, free[int(np.argmin(dist))])
    return int(i), int(j)


def _seed_node(field: OmegaField, point: tuple[float, float] | None) -> tuple[int, int]:
    """Grid node (i0, j0) nearest the seed point, :func:`default_seed` for
    None; a non-finite seed raises InvalidParams and a singular seed node
    SingularCrossing."""
    if point is None:
        return default_seed(field)
    xs, ys = field.grid.xs, field.grid.ys
    sx, sy = point
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise InvalidParams(f"seed ({sx}, {sy}) is not finite")
    i0 = int(np.argmin(np.abs(xs - sx)))
    j0 = int(np.argmin(np.abs(ys - sy)))
    if field.mask[j0, i0]:
        raise SingularCrossing(f"seed node ({xs[i0]}, {ys[j0]}) is on the singular set")
    return i0, j0


def _seed_column(source, space: ChartSpace, x: float, ys: np.ndarray, j0: int, m0: np.ndarray):
    """(M, (u1, u2, psi), k): model frames on the column x from m0 at
    ys[j0], their chart state and the leaf curvatures k = g(y), NaN on D.
    M' = M B with B[1, 0] = -B[0, 1] = omega_x, B[1, 2] = sinh(omega),
    B[2, 1] = -c0 sinh(omega); each cell takes the fourth-order Magnus step
    Omega = h/2 (B1 + B2) + sqrt(3)/12 h^2 [B1, B2] from its two Gauss nodes
    (exp(-Omega) below the seed).  A singular Gauss node makes its step, and
    so every frame outward of it, NaN.  The chart state is NaN outward of
    the first node with singular data (where k is NaN), a frame that is not
    finite or a chart point off the chart.
    """
    n = len(ys) - 1
    h = np.diff(ys)
    mid = ys[:-1] + 0.5 * h
    data = source.eval_bc(x, np.concatenate([ys, mid - h * math.sqrt(3) / 6, mid + h * math.sqrt(3) / 6]))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        k = np.where(np.isnan(data.cosh), np.nan, data.g)[: n + 1]
        wx, sh, b = data.wx[n + 1:], data.sinh[n + 1:], np.zeros((2 * n, 3, 3))
        b[:, 1, 0], b[:, 0, 1], b[:, 1, 2], b[:, 2, 1] = wx, -wx, sh, -space.c0 * sh
        b1, b2 = b[:n], b[n:]
        omega = 0.5 * h[:, None, None] * (b1 + b2)
        omega += math.sqrt(3) / 12 * (h * h)[:, None, None] * (b1 @ b2 - b2 @ b1)
        omega[:j0] *= -1.0
        step = _expm3(omega)
        m = np.empty((n + 1, 3, 3))
        m[j0] = m0
        for j in range(j0, n):
            m[j + 1] = m[j] @ step[j]
        for j in range(j0 - 1, -1, -1):
            m[j] = m[j + 1] @ step[j]
        u1, u2, psi = space.chart_state(m[:, :, 2], m[:, :, 0])
        ok = np.isfinite(k) & np.isfinite(m).all(axis=(1, 2)) & space.in_domain(u1, u2)
    valid = _outward(ok[None], np.ones((1, n), dtype=bool), j0)[0]
    return m, tuple(np.where(valid, v, np.nan) for v in (u1, u2, psi)), k


def _outward(ok: np.ndarray, clean: np.ndarray, i0: int) -> np.ndarray:
    """Valid nodes of rows that stop outward from column i0 at the first
    node not ok or cell not clean (the cell between a node and the column)."""
    ok[:, i0 + 1:] &= clean[:, i0:]
    ok[:, :i0] &= clean[:, :i0]
    valid = np.empty_like(ok)
    valid[:, i0:] = np.logical_and.accumulate(ok[:, i0:], axis=1)
    valid[:, i0::-1] = np.logical_and.accumulate(ok[:, i0::-1], axis=1)
    return valid


def _unwrap_from(psi: np.ndarray, i0: int) -> None:
    """Remove the 2 pi jumps of each row of psi outward from column i0, in place."""
    turns = np.rint(np.diff(psi, axis=1) / (2.0 * math.pi))
    turns = np.concatenate([np.zeros((len(psi), 1)), np.cumsum(np.nan_to_num(turns), axis=1)], axis=1)
    psi -= 2.0 * math.pi * (turns - turns[:, i0:i0 + 1])


#: Rows placed at once: bounds the quadrature and leaf-motion temporaries.
ROW_BLOCK = 16


def integrate_frame(field: OmegaField, seed: tuple[float, float] | None = None) -> FrameField:
    """Integrate (psi, u) over the grid from a seed node, in the chart of the
    field's curvature.

    The frame starts at the chart origin at angle 0 on the grid node nearest
    the seed point (:func:`_seed_node`); any other start would only move the
    surface by an isometry of the model.  The seed column takes one
    fourth-order Magnus step per grid cell in the isometry group of the
    model (:func:`_seed_column`).  Every row is then placed in closed form
    from the column's state: row y is a leaf of geodesic curvature
    k = -omega_y / cosh(omega) = g(y) traced at speed cosh(omega), so its frame at
    arclength s from the column is M E(s), with M the column's frame and E
    the leaf motion.  Arclengths come from
    Gauss-Legendre quadrature on the row's grid cells; psi is unwrapped
    outward from the seed.  The column and the rows stop (NaN) outward at
    the first cell with a singular grid or quadrature node, and at chart
    exit or non-finite state; a singular seed raises SingularCrossing.
    RK4 is the oracle only.
    """
    source = _require_source(field)
    space, grid = ChartSpace(field.c0), field.grid
    xs, ys = grid.xs, grid.ys
    i0, j0 = _seed_node(field, seed)

    m, (cu1, cu2, cpsi), k = _seed_column(
        source, space, xs[i0], ys, j0, _frame_matrix(space, 0.0, 0.0, 0.0)
    )
    cu1[j0], cu2[j0], cpsi[j0] = 0.0, 0.0, 0.0
    _unwrap_from(cpsi[None, :], j0)
    # the rows stop at masked cells; this keeps the column's own nodes off
    # the mask too, so the frame is valid only off the singular set
    cpsi[field.mask[:, i0]] = np.nan
    psi = np.empty((grid.ny, grid.nx))
    u = np.empty((grid.ny, grid.nx, 2))
    for start in range(0, grid.ny, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        psi[rows], u[rows, :, 0], u[rows, :, 1] = _place_rows(
            source, space, field.mask[rows], xs, ys[rows], i0, m[rows],
            cpsi[rows], cu1[rows], cu2[rows], k[rows],
        )
    return FrameField(psi=psi, u=u, seed=(i0, j0), field=field)


def _place_rows(source, space, mask, xs, ys, i0, m, psi_c, u1_c, u2_c, k):
    """Closed-form (psi, u1, u2) on the rows ys from their model frames m
    and chart states at xs[i0], NaN outward of the first cell where the
    row stops; a row whose column state is NaN stops at the column."""
    lengths, bad = _row_lengths(source, xs[:-1], xs[1:], ys)
    arc = np.zeros((len(ys), len(xs)))
    np.cumsum(lengths, axis=1, out=arc[:, 1:])
    kappa2 = k * k + space.c0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        f1, f2 = _leaf_functions(kappa2, arc - arc[:, i0:i0 + 1])
        # point M E(s) e3 = M (f1, k f2, 1 - c0 f2), tangent M E(s) e1
        t_col, n_col, p_col = m[:, None, :, 0], m[:, None, :, 1], m[:, None, :, 2]
        f1, f2 = f1[..., None], f2[..., None]
        kc = k[:, None, None]
        point = f1 * t_col + kc * f2 * n_col + (1.0 - space.c0 * f2) * p_col
        tangent = (1.0 - kappa2[:, None, None] * f2) * t_col + kc * f1 * n_col - space.c0 * f1 * p_col
        u1, u2, psi = space.chart_state(point, tangent)
        # the column keeps its own state; psi is unwrapped outward from it
        u1[:, i0], u2[:, i0], psi[:, i0] = u1_c, u2_c, psi_c
        _unwrap_from(psi, i0)
        ok = np.isfinite(psi) & np.isfinite(u1) & np.isfinite(u2)
        ok &= space.in_domain(u1, u2)
    valid = _outward(ok, ~(bad | mask[:, :-1] | mask[:, 1:]), i0)
    return np.where(valid, psi, np.nan), np.where(valid, u1, np.nan), np.where(valid, u2, np.nan)


def rk4_row_gap(frame: FrameField) -> float:
    """Largest (psi, u) gap between the frame's closed-form rows and RK4.

    The oracle marches every row from the frame's seed column, one
    fourth-order step per grid cell, and is compared one row block at a
    time on the nodes where both psi values are finite.
    """
    i0 = frame.seed[0]
    grid = frame.grid
    psi, u1, u2 = _march(
        frame.field.source, frame.space, "x", grid.ys, grid.xs, i0,
        frame.psi[:, i0], frame.u[:, i0, 0], frame.u[:, i0, 1],
    )
    # psi and u are NaN together in both, and fmax skips a NaN gap
    worst = 0.0
    for rows, _, _ in row_blocks(grid, 0):
        gap = np.abs(psi.T[rows] - frame.psi[rows])
        np.fmax(gap, np.hypot(u1.T[rows] - frame.u[rows, :, 0], u2.T[rows] - frame.u[rows, :, 1]), out=gap)
        worst = float(np.fmax.reduce(gap, axis=None, initial=worst))
    return worst


# ---------------------------------------------------------------------------
# conformality, Hopf quantity, harmonicity
# ---------------------------------------------------------------------------

def _frame_residuals(frame: FrameField):
    """(isometry, max |Re Q - 1/4|, max |Im Q|, harmonic) of the frame's chart
    map F, with Q the Hopf quantity and the residuals in accumulators, in one
    pass that differentiates F once per row block, at the interior nodes of
    the block's slab: its rows off the grid's boundary ring, inner columns."""
    grid, omega = frame.grid, frame.field.omega
    if grid.nx < 5 or grid.ny < 5:
        raise TooFewNodes(f"the frame's residuals need at least 5x5 nodes, got {grid.nx}x{grid.ny}")
    iso, harm, hopf = ResidualAccumulator(), ResidualAccumulator(), []
    for _, slab, _ in row_blocks(grid, 1):
        u, w = frame.u[slab], omega[slab][1:-1, 1:-1]
        rho, l1, l2 = frame.space.factor_many(u[1:-1, 1:-1, 0], u[1:-1, 1:-1, 1])
        dy, dx = (d[1:-1, 1:-1] for d in np.gradient(u, grid.hy, grid.hx, axis=(0, 1)))
        # rho |F_x|^2, rho |F_y|^2 and rho <F_x, F_y>
        metric = rho * np.stack([(dx * dx).sum(axis=-1), (dy * dy).sum(axis=-1), (dx * dy).sum(axis=-1)])
        del dx, dy  # each array goes once used, so the pass holds about one block
        xx, yy, xy = metric
        hopf.append([_finite_max(np.abs(0.25 * (xx - yy) - 0.25)), _finite_max(np.abs(0.5 * xy))])
        xx -= np.cosh(w) ** 2
        yy -= np.sinh(w) ** 2
        iso.add(metric)
        del metric, xx, yy, xy
        # 0.25 lap(F) + (log rho)_u F_z F_z~, with F = u1 + i u2
        f = u[..., 0] + 1j * u[..., 1]
        fy, fx = (d[1:-1, 1:-1] for d in np.gradient(f, grid.hy, grid.hx))
        lap = _interior_laplacian(f, grid.hx, grid.hy)[1:-1, 1:-1]
        harm.add(np.abs(0.25 * lap + 0.5 * (l1 - 1j * l2) * (0.5 * (fx - 1j * fy)) * (0.5 * (fx + 1j * fy))))
        del f, fx, fy, lap
    re_err, im_err = (_finite_max(column) for column in np.array(hopf).T)
    return iso, re_err, im_err, harm


def isometry_check(frame: FrameField) -> ResidualStats:
    """Conformality residuals of the integrated frame.

    Checks rho |F_x|^2 = cosh^2(omega), rho |F_y|^2 = sinh^2(omega) and
    rho <F_x, F_y> = 0 with centered differences on the chart-point grid,
    at its interior nodes, from the pass of :func:`_frame_residuals`.
    """
    return _frame_residuals(frame)[0].stats(max(frame.grid.hx, frame.grid.hy))


def hopf_deviation(frame: FrameField) -> tuple[float, float]:
    """(max |Re Q - 1/4|, max |Im Q|) of the Hopf quantity of the frame at its
    interior nodes (:func:`_frame_residuals`), NaN where none is finite."""
    return _frame_residuals(frame)[1:3]


def harmonic_residual(frame: FrameField) -> ResidualStats:
    """Residual of F_zz~ + (log rho)_u F_z F_z~ = 0 on the chart-point grid,
    at its interior nodes, from the pass of :func:`_frame_residuals`."""
    return _frame_residuals(frame)[3].stats(max(frame.grid.hx, frame.grid.hy))


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceMesh:
    """Immersion samples in ambient-model coordinates: what
    :func:`obj_chunks` writes, and nothing more.

    ``ambient_rows(rows)``, for a row index or a slice of rows, gives those
    rows' ``v`` records: the model lift plus the height (3 components for
    the flat case, 4 for the hyperboloid x R and sphere x R models).  The
    frame route lifts the rows' chart points when asked, so no ambient array
    of the whole grid is held; :func:`obj_chunks` lifts each row as it
    writes it, and ``ambient_vertices`` is the same function over all rows.
    A mesh keeps no chart points: that of a node is the closed function
    u = sigma (X_a, X_b) / (1 + q X_w) of its lift (:meth:`ChartSpace.chart_state`).
    The coordinates of a node that is not ``valid`` carry no meaning.  A
    mesh holds no topology: its quads, over the grid cells whose four
    corners are valid, and its foliation polylines, the runs of at least two
    valid nodes along a row, follow from ``valid`` by one rule per grid row
    (:func:`_quad_columns`, :func:`_leaf_runs`), which :func:`obj_chunks`
    applies as it writes.
    """

    ambient_rows: Callable[[int | slice], np.ndarray]
    valid: np.ndarray
    metadata: dict

    def __post_init__(self):
        self.valid.setflags(write=False)

    @property
    def ambient_vertices(self) -> np.ndarray:
        """The ``v`` records of every node: ``ambient_rows`` over all rows."""
        return self.ambient_rows(slice(None))


def _quad_columns(valid: np.ndarray, j: int) -> np.ndarray:
    """Columns i of the cells between rows j and j + 1 whose four corners are valid."""
    lo, hi = valid[j], valid[j + 1]
    return np.flatnonzero(lo[:-1] & lo[1:] & hi[:-1] & hi[1:])


def _leaf_runs(row: np.ndarray):
    """(starts, stops) of the runs of at least two valid nodes in a grid row."""
    edges = np.diff(np.concatenate([[False], row, [False]]).astype(np.int8))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    long = stops - starts > 1
    return starts[long], stops[long]


def build_mesh(frame: FrameField) -> SurfaceMesh:
    """Mesh the immersion: the rows' model lifts of the frame's chart points
    plus the height y, made when asked for.  Its metadata is the grid's."""
    grid, space, u, ys = frame.grid, frame.space, frame.u, frame.grid.ys
    width = 2 if space.c0 == 0 else 3  # the plane's homogeneous coordinate is not written

    def ambient_rows(rows):
        lift = space.lift(u[rows, :, 0], u[rows, :, 1])[..., :width]
        t = np.broadcast_to(ys[rows, None], lift.shape[:-1])
        return np.concatenate([lift, t[..., None]], axis=-1)

    meta = {"c0": space.c0, "domain": list(grid.domain), "nx": grid.nx, "ny": grid.ny}
    return SurfaceMesh(ambient_rows=ambient_rows, valid=frame.valid, metadata=meta)


def _column_tokens(col: np.ndarray) -> list[str]:
    """Shortest repr of each value of a column; a bitwise constant column is
    formatted once."""
    if len(col) and col.tobytes() == col[:1].tobytes() * len(col):
        return [repr(float(col[0]))] * len(col)
    return list(map(repr, col.tolist()))


def obj_chunks(mesh: SurfaceMesh):
    """OBJ text in pieces: the header, a ``# key = value`` line per key of
    the mesh's metadata in sorted order (the ``mesh`` subcommand adds the
    surface's c, d and a, the seed and the three flags on both routes), one
    per grid row of ``v`` records, one per pair of rows of faces and one per
    row of ``l`` lines.  ``v`` = ambient coordinates (4 values when the model
    lift has three components plus height), asked of the mesh one row at a
    time, faces as ``f a b c d`` quads and foliation rows as ``l``
    polylines, both derived from ``valid`` row by row
    (:func:`_quad_columns`, :func:`_leaf_runs`).  Only valid
    nodes are written, in row order, so the faces and polylines number the
    valid nodes from 1."""
    valid = mesh.valid
    ny = len(valid)
    before = [0, *np.cumsum(valid.sum(axis=1)).tolist()]

    def numbers(j):
        """The 1-based OBJ index of each node of row j, where it is valid."""
        return before[j] + np.cumsum(valid[j])

    yield "# foliata surface mesh\n" + "".join(
        f"# {key} = {mesh.metadata[key]}\n" for key in sorted(mesh.metadata)
    )
    for j in range(ny):
        cols = [_column_tokens(col) for col in mesh.ambient_rows(j)[valid[j]].T]
        yield "v " + "\nv ".join(map(" ".join, zip(*cols))) + "\n" if cols[0] else ""
    f_line = "f %d %d %d %d\n"
    hi = numbers(0)
    for j in range(ny - 1):
        lo, hi, i = hi, numbers(j + 1), _quad_columns(valid, j)
        quads = np.stack([lo[i], lo[i + 1], hi[i + 1], hi[i]], axis=-1)
        yield (f_line * len(i)) % tuple(quads.ravel().tolist())
    for j in range(ny):
        starts, stops = _leaf_runs(valid[j])
        yield "".join(
            "l " + " ".join(map(str, range(a, a + n))) + "\n"
            for a, n in zip(numbers(j)[starts].tolist(), (stops - starts).tolist())
        )


def mesh_row_curvature(frame: FrameField, row: int) -> np.ndarray:
    """Geodesic curvature of a meshed horizontal curve, measured extrinsically.

    Uses the conformal-change rule k_g = k_e / sqrt(rho) - <grad sqrt(rho), n> / rho
    on the row polyline, with the Euclidean curvature from centered
    differences in the conformal parameter.
    """
    u1 = frame.u[row, :, 0].astype(float)
    u2 = frame.u[row, :, 1].astype(float)
    hx = frame.grid.hx
    d1 = np.gradient(u1, hx, edge_order=2)
    d2 = np.gradient(u2, hx, edge_order=2)
    dd1 = np.full_like(u1, np.nan)
    dd2 = np.full_like(u2, np.nan)
    dd1[1:-1] = (u1[2:] - 2.0 * u1[1:-1] + u1[:-2]) / (hx * hx)
    dd2[1:-1] = (u2[2:] - 2.0 * u2[1:-1] + u2[:-2]) / (hx * hx)
    speed = np.hypot(d1, d2)
    k_e = (d1 * dd2 - d2 * dd1) / speed**3
    t1, t2 = d1 / speed, d2 / speed
    n1, n2 = -t2, t1
    rho, l1, l2 = frame.space.factor_many(u1, u2)
    return (k_e - 0.5 * (l1 * n1 + l2 * n2)) / np.sqrt(rho)


# ---------------------------------------------------------------------------
# flat-space Weierstrass route
# ---------------------------------------------------------------------------

def _weierstrass_forms(w, psi, data):
    """(phi, dphi): the first two components of the Weierstrass one-form at
    nodes of omega ``w`` and frame angle ``psi``, along a new last axis, and
    their z-derivatives, from the closed form of omega's gradient in the
    source's ``data`` at the same nodes; arrays of any one shape.  The third
    component, eta, has the closed-form integral y - y_seed."""
    g = np.exp(w + 1j * psi)
    ginv = np.exp(-(w + 1j * psi))
    eta = -1j
    phi = np.stack([0.5 * (ginv - g) * eta, 0.5j * (ginv + g) * eta], axis=-1)
    zeta_z = data.wx - 1j * data.wy
    dphi = np.stack([0.5 * (-ginv - g) * eta * zeta_z, 0.5j * (-ginv + g) * eta * zeta_z], axis=-1)
    return phi, dphi


def _cauchy_riemann_linf(frame: FrameField) -> float:
    """Largest |omega_x - psi_y| or |omega_y + psi_x| over the interior
    nodes: the Cauchy-Riemann residual of log G = omega + i psi, by
    np.gradient's centred differences at the grid's spacing, taken one row
    block at a time with the sums and magnitudes in place."""
    grid, omega, psi = frame.grid, frame.field.omega, frame.psi
    worst = np.nan
    for _, slab, _ in row_blocks(grid, 1):
        w, p = omega[slab], psi[slab]
        a = np.gradient(w[1:-1], grid.hx, axis=1)
        a -= np.gradient(p, grid.hy, axis=0)[1:-1]
        b = np.gradient(w, grid.hy, axis=0)[1:-1]
        b += np.gradient(p[1:-1], grid.hx, axis=1)
        both = np.fmax(np.abs(a, out=a), np.abs(b, out=b), out=a)[:, 1:-1]
        worst = np.fmax(worst, np.fmax.reduce(both, axis=None))
    return float(worst)


def weierstrass_flat(frame: FrameField) -> SurfaceMesh:
    """Flat-case immersion by path integration of the Weierstrass data.

    With G = exp(omega + i psi) holomorphic and the one-form chosen so the
    third coordinate is the conformal coordinate y, the immersion is

        2 X = Re Int( (G^-1 - G) eta, i (G^-1 + G) eta, 2 eta ),  eta = -i dz.

    The third coordinate is Re Int -i dz = y - y_seed, written in closed
    form.  The first two are integrated by the derivative-corrected
    trapezoid rule (the integrand's z-derivative is closed form), giving
    fourth-order path accuracy.  The paths are the frame's tree: the seed
    column, then every row out from it, integrated ROW_BLOCK rows at a time
    into the vertex array, so the one-form is never held on the whole grid.
    The Cauchy-Riemann residual of log G in the header needs at least 3x3
    nodes.  The mesh's ``v`` records are X itself: its first two
    coordinates are the node's point in the plane.
    """
    field, grid, psi = frame.field, frame.grid, frame.psi
    if field.c0 != 0:
        raise NotFlat(f"Weierstrass route needs c0 = 0, got {field.c0}")
    if grid.nx < 3 or grid.ny < 3:
        raise TooFewNodes(f"Weierstrass route needs at least 3x3 nodes, got {grid.nx}x{grid.ny}")

    def steps(p, dp, dz):
        """Real parts of the panels from each node to the next along axis 0,
        in two temporaries."""
        s, d = p[:-1] + p[1:], dp[:-1] - dp[1:]
        np.multiply(0.5 * dz, s, out=s)
        s += np.multiply(dz * dz / 12.0, d, out=d)
        return s.real

    def outward(out, start, incs, k0):
        """Running sums along axis 0 of ``out`` from ``start`` at index k0:
        the increments added forward and subtracted backward (a reversed
        panel is the exact negation of the forward one)."""
        out[k0], out[k0 + 1:], out[:k0] = start, incs[k0:], -incs[:k0]
        np.cumsum(out[k0:], axis=0, out=out[k0:])
        np.cumsum(out[k0::-1], axis=0, out=out[k0::-1])

    xs, ys, omega, source = grid.xs, grid.ys, field.omega, field.source
    cr = _cauchy_riemann_linf(frame)  # before the vertices, to bound the peak
    i0, j0 = frame.seed
    phi, dphi = _weierstrass_forms(omega[:, i0], psi[:, i0], source.eval_bc(xs[i0], ys))
    column = np.empty((grid.ny, 2))
    outward(column, np.zeros(2), steps(phi, dphi, 1j * grid.hy), j0)
    x_vec = np.empty((grid.ny, grid.nx, 3))
    for start in range(0, grid.ny, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        phi, dphi = _weierstrass_forms(omega[rows], psi[rows], source.eval_bc(xs, ys[rows, None]))
        incs = steps(phi.transpose(1, 0, 2), dphi.transpose(1, 0, 2), grid.hx)
        outward(x_vec[rows, :, :2].transpose(1, 0, 2), column[rows], incs, i0)
    x_vec[..., 2] = (ys - ys[j0])[:, None]

    valid = frame.valid & np.isfinite(x_vec).all(axis=-1)
    x_vec.setflags(write=False)
    meta = {
        "c0": 0.0,
        "domain": list(grid.domain),
        "nx": grid.nx,
        "ny": grid.ny,
        "cauchy_riemann_linf": cr,
    }
    return SurfaceMesh(ambient_rows=x_vec.__getitem__, valid=valid, metadata=meta)


def flat_route_gap(frame: FrameField) -> float:
    """Largest vertex gap between the Weierstrass and frame routes (c0 = 0).

    The Weierstrass immersion equals the frame's chart map up to a rigid
    motion of the plane; this aligns position at the seed node and direction
    along the seed row's chord between the seed's neighbours in the grid
    (the seed itself in place of a neighbour that is off the grid or not
    valid), and reports the worst remaining distance.  A seed with neither
    neighbour valid raises SingularCrossing.
    """
    mesh = weierstrass_flat(frame)
    i0, j0 = frame.seed
    x_vec = mesh.ambient_vertices
    w = x_vec[..., 0] + 1j * x_vec[..., 1]
    u = frame.u[..., 0] + 1j * frame.u[..., 1]
    row = mesh.valid[j0]
    lo = i0 - 1 if i0 > 0 and row[i0 - 1] else i0
    hi = i0 + 1 if i0 + 1 < len(row) and row[i0 + 1] else i0
    if lo == hi:
        raise SingularCrossing(f"no valid neighbour of the seed node {frame.seed} on its row")
    w_dir, u_dir = w[j0, hi] - w[j0, lo], u[j0, hi] - u[j0, lo]
    rot = (u_dir / abs(u_dir)) / (w_dir / abs(w_dir))
    aligned = rot * (w - w[j0, i0]) + u[j0, i0]
    return _finite_max(np.abs(aligned - u))


# ---------------------------------------------------------------------------
# holonomy of a horizontal period
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolonomyReport:
    kind: str
    angle_or_length: float
    residual: float
    closed: bool

    def document(self) -> dict:
        return {
            "type": self.kind,
            "angle_or_length": self.angle_or_length,
            "residual": self.residual,
            "closed": self.closed,
        }


def _refuse_poles(source, x0: float, x1: float, y: float) -> None:
    """Raise SingularCrossing where omega has a pole on the row y over
    [x0, x1].  c0 + f^2 + g^2 vanishes where f^2 = q = -c0 - g(y)^2, and
    there f'^2 = g'^2 (the identity behind the field's continuity
    extension): a zero with f' = -g' != 0 is removable, every other one is
    a pole.  Between consecutive multiples of a quarter F-period f^2 is
    monotone and f' keeps one sign, so such a piece of [x0, x1] meets a
    pole iff q lies between f^2 at its ends and f' in its middle is not of
    the sign opposite to g'(y).  One period holds every piece; a constant
    f is one piece with f' = 0."""
    fn, t = source.ffn, source.ffn.period
    g, gy = (float(v) for v in source.gfn.eval_many(y))
    q = -source.c0 - g * g
    if t is not None:
        x1 = min(x1, x0 + t)
    quarters = np.arange(math.ceil(4.0 * x0 / t), 4.0 * x1 / t) * (t / 4.0) if t else []
    cuts = np.r_[x0, quarters, x1]
    f2 = fn.eval_many(cuts)[0] ** 2
    fx = fn.eval_many(0.5 * (cuts[:-1] + cuts[1:]))[1]
    lo, hi = np.minimum(f2[:-1], f2[1:]), np.maximum(f2[:-1], f2[1:])
    poles = np.flatnonzero((lo <= q) & (q <= hi) & (np.sign(fx) * np.sign(gy) >= 0))
    if poles.size:
        j = poles[0]
        raise SingularCrossing(f"the seed row y = {y} meets a pole of omega on [{cuts[j]}, {cuts[j + 1]}]: "
                               f"f^2 = -c0 - g^2 = {q} there with f' = g' = {gy}")


def holonomy(
    field: OmegaField,
    period: float,
    seed: tuple[float, float] | None = None,
) -> HolonomyReport:
    """Ambient isometry relating the seed row to its translate by one x-period.

    The seed row is a leaf of constant geodesic curvature k = -omega_y /
    cosh(omega) = g(y) traced at speed cosh(omega), so the isometry is
    conjugate to the leaf motion over the period's arclength S and depends on
    kappa^2 = k^2 + c0 and S alone: a rotation by |kappa S| mod 2 pi, in [0, pi],
    for a circle (kappa^2 > HOROCYCLE_TOL |c0|); a translation by
    sqrt(-kappa^2) S for a hypercycle (kappa^2 < -HOROCYCLE_TOL |c0|); in
    between ``parabolic`` with the horocyclic arclength S, or on the plane,
    where the leaf is a line (|kappa^2| <= HOROCYCLE_TOL), a translation by
    S.  Arclengths come from Gauss-Legendre quadrature on the row's grid
    cells.  Base nodes x are sampled among those where x and x + period are
    reachable from the seed through no singular grid or quadrature node; S
    is the first base's arclength and k = g(y0) of the seed row, so every
    seed on a row with no singular cell gives the same report.  A row that
    meets a pole of omega, a zero of c0 + f^2 + g^2 where f' = g'
    (:func:`_refuse_poles`), raises SingularCrossing: the arclength diverges
    there.  The residual is the largest gap between a base's arclength and
    S, a length along the leaf.
    ``closed`` flags an identity holonomy: value and residual below 1e-6,
    and the displacement f1 of the seed point (:func:`_leaf_functions`) as
    well, lengths in the unit 1/sqrt|c0| (1 on the plane), so that a dilate
    of the surface keeps the type and the flag.  ``seed`` is a point (x, y)
    whose nearest grid node picks the row (:func:`_seed_node`).
    """
    if period is None or not math.isfinite(period) or period <= 0:
        raise PeriodUnavailable(f"no usable period (got {period})")
    grid = field.grid
    if grid.x1 - grid.x0 < period - 1e-12:
        raise PeriodUnavailable("domain spans less than one period in x")
    source = _require_source(field)
    i0, j0 = _seed_node(field, seed)
    xs, y0 = grid.xs, grid.ys[j0]
    k = float(source.eval_bc(xs[i0], y0).g)
    if hasattr(source, "ffn") and not source.flat_trivial:
        _refuse_poles(source, grid.x0, grid.x1, y0)
    bases = np.flatnonzero(xs + period <= grid.x1 + 1e-12)
    targets = xs[bases] + period
    ends = np.searchsorted(xs, targets, side="right") - 1
    # quadrature on every grid cell of the row, then on each [x_end, target]
    length, bad = _row_lengths(
        source, np.concatenate([xs[:-1], xs[ends]]), np.concatenate([xs[1:], targets]), [y0]
    )
    length, bad = length[0], bad[0]
    cells = grid.nx - 1
    reach = _outward(~field.mask[j0][None], ~bad[None, :cells], i0)[0]
    picked = np.flatnonzero(reach[bases] & reach[ends] & ~bad[cells:])
    if picked.size == 0:
        raise PeriodUnavailable("no non-singular base nodes with x + period in range")
    picked = picked[:: max(1, picked.size // 8)]
    arc = np.concatenate([[0.0], np.cumsum(length[:cells])])
    span = arc[ends[picked]] - arc[bases[picked]] + length[cells + picked]
    s = float(span[0])
    residual = float(np.max(np.abs(span - s)))
    kappa2 = k * k + field.c0

    # a dilatation by r scales kappa^2 and c0 by r^2 and lengths by 1/r, and
    # keeps the angle and the rapidity sqrt(-kappa^2) S
    scale = abs(field.c0) or 1.0
    length_tol = 1e-6 / math.sqrt(scale)
    if kappa2 > HOROCYCLE_TOL * scale:
        kind, value, tol = "rotation", abs(math.remainder(math.sqrt(kappa2) * s, 2.0 * math.pi)), 1e-6
    elif kappa2 < -HOROCYCLE_TOL * scale:
        kind, value, tol = "translation", math.sqrt(-kappa2) * s, 1e-6
    else:
        kind, value, tol = ("translation" if field.c0 == 0 else "parabolic"), s, length_tol
    # near a horocycle a small angle or rapidity still moves the seed by ~S
    f1 = float(_leaf_functions(np.array([kappa2]), np.array([[s]]))[0][0, 0])
    closed = bool(value < tol and residual < length_tol and abs(f1) < length_tol)
    return HolonomyReport(
        kind="identity" if closed else kind,
        angle_or_length=value,
        residual=residual,
        closed=closed,
    )
