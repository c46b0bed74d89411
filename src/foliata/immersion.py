"""Frame integration of the harmonic map and the immersion X = (F, y).

The horizontal factor F of the immersion is a harmonic map into the ambient
surface, represented in a fixed global conformal chart (U, rho(u) |du|^2):
the Poincare disk for curvature -1, the Euclidean plane for 0, and the
stereographic plane for +1.  Writing F_x = cosh(omega) e^{i psi} / sqrt(rho)
and F_y = i sinh(omega) e^{i psi} / sqrt(rho), the frame angle psi and the
chart point u satisfy the coupled first-order system

    psi_x = -omega_y + cosh(omega)/(2 sqrt(rho)) (cos psi L2 - sin psi L1)
    psi_y = +omega_x - sinh(omega)/(2 sqrt(rho)) (cos psi L1 + sin psi L2)
    u_x   = cosh(omega)/sqrt(rho) (cos psi, sin psi)
    u_y   = sinh(omega)/sqrt(rho) (-sin psi, cos psi)

with L = grad log rho.  Off-grid omega data comes from the field's closed
form (profile functions re-evaluated), never from grid interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartOverflow,
    InvalidParams,
    NotFlat,
    PeriodUnavailable,
    SingularCrossing,
    TooFewNodes,
)
from .field import (
    GridSpec,
    OmegaField,
    ResidualStats,
    _interior_laplacian,
    stats_from,
)

DISK_EDGE = 1.0 - 1e-12
STEREO_GUARD = 1e8


# ---------------------------------------------------------------------------
# conformal charts and ambient models
# ---------------------------------------------------------------------------

class ChartSpace:
    """A global conformal chart of the ambient surface of curvature c0."""

    def __init__(self, kind: str):
        if kind not in ("poincare_disk", "euclidean_plane", "stereographic"):
            raise InvalidParams(f"unknown chart kind {kind!r}")
        self.kind = kind
        self.c0 = {"poincare_disk": -1.0, "euclidean_plane": 0.0, "stereographic": 1.0}[kind]

    def __repr__(self):
        return f"ChartSpace({self.kind!r})"

    def factor_many(self, u1, u2):
        """(rho, L1, L2) with L = grad log rho, vectorized, unguarded."""
        r2 = u1 * u1 + u2 * u2
        if self.kind == "poincare_disk":
            q = 1.0 - r2
            rho = 4.0 / (q * q)
            return rho, 4.0 * u1 / q, 4.0 * u2 / q
        if self.kind == "stereographic":
            s = 1.0 + r2
            rho = 4.0 / (s * s)
            return rho, -4.0 * u1 / s, -4.0 * u2 / s
        one = np.ones_like(np.asarray(u1, dtype=float))
        return one, 0.0 * one, 0.0 * one

    def in_domain(self, u1, u2):
        r2 = u1 * u1 + u2 * u2
        if self.kind == "poincare_disk":
            return r2 < DISK_EDGE * DISK_EDGE
        if self.kind == "stereographic":
            return r2 < STEREO_GUARD * STEREO_GUARD
        return np.isfinite(r2)

    def lift(self, u1, u2):
        """Ambient-model coordinates of chart points.

        Poincare disk -> hyperboloid (X0, X1, X2) with -X0^2+X1^2+X2^2 = -1;
        stereographic -> unit sphere; plane -> the points themselves.
        """
        r2 = u1 * u1 + u2 * u2
        if self.kind == "poincare_disk":
            q = 1.0 - r2
            return np.stack([(1.0 + r2) / q, 2.0 * u1 / q, 2.0 * u2 / q], axis=-1)
        if self.kind == "stereographic":
            s = 1.0 + r2
            return np.stack([2.0 * u1 / s, 2.0 * u2 / s, (1.0 - r2) / s], axis=-1)
        return np.stack([u1, u2], axis=-1)

    def lift_jacobian(self, u1, u2):
        """Columns (d lift/du1, d lift/du2) at one chart point."""
        r2 = u1 * u1 + u2 * u2
        if self.kind == "poincare_disk":
            q = 1.0 - r2
            d1 = np.array([4.0 * u1, 2.0 * q + 4.0 * u1 * u1, 4.0 * u1 * u2]) / (q * q)
            d2 = np.array([4.0 * u2, 4.0 * u1 * u2, 2.0 * q + 4.0 * u2 * u2]) / (q * q)
            return d1, d2
        if self.kind == "stereographic":
            s = 1.0 + r2
            d1 = np.array([2.0 * s - 4.0 * u1 * u1, -4.0 * u1 * u2, -4.0 * u1]) / (s * s)
            d2 = np.array([-4.0 * u1 * u2, 2.0 * s - 4.0 * u2 * u2, -4.0 * u2]) / (s * s)
            return d1, d2
        return np.array([1.0, 0.0]), np.array([0.0, 1.0])


def chart_for_curvature(c0: float) -> ChartSpace:
    if c0 > 0:
        return ChartSpace("stereographic")
    if c0 < 0:
        return ChartSpace("poincare_disk")
    return ChartSpace("euclidean_plane")


# ---------------------------------------------------------------------------
# frame integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameField:
    """Frame angle and chart point on the grid, plus path diagnostics."""

    psi: np.ndarray
    u: np.ndarray
    valid: np.ndarray
    seed: tuple[int, int, float, tuple[float, float]]
    compat_linf: float
    grid: GridSpec

    def __post_init__(self):
        for arr in (self.psi, self.u, self.valid):
            arr.setflags(write=False)


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
    psi0: np.ndarray,
    u10: np.ndarray,
    u20: np.ndarray,
    alive0: np.ndarray,
):
    """RK4 march of (psi, u) along one direction, vectorized over lanes.

    Returns (psi, u1, u2, alive) arrays shaped (len(t_nodes), n_lanes).
    Lanes stop (NaN onward) at singular field data or when the chart point
    leaves the chart domain.  Each step evaluates the source at its midpoint
    and end node only: its start node is the previous step's end node.
    """
    n, lanes = t_nodes.size, lane_coords.size
    psi = np.full((n, lanes), np.nan)
    u1 = np.full((n, lanes), np.nan)
    u2 = np.full((n, lanes), np.nan)
    alive = np.zeros((n, lanes), dtype=bool)
    psi[i_start], u1[i_start], u2[i_start] = psi0, u10, u20
    fd_start = _eval_data(source, direction, t_nodes[i_start], lane_coords)
    alive[i_start] = alive0 & np.asarray(fd_start.ok)

    def sweep(indices):
        fd0 = fd_start
        for prev, nxt in zip(indices[:-1], indices[1:]):
            h = t_nodes[nxt] - t_nodes[prev]
            tm = t_nodes[prev] + 0.5 * h
            fdm = _eval_data(source, direction, tm, lane_coords)
            fd1 = _eval_data(source, direction, t_nodes[nxt], lane_coords)
            ok = alive[prev] & fd0.ok & fdm.ok & fd1.ok
            p, a, b = psi[prev], u1[prev], u2[prev]
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                k1 = _rhs(direction, fd0, p, a, b, space)
                k2 = _rhs(direction, fdm, p + 0.5 * h * k1[0], a + 0.5 * h * k1[1], b + 0.5 * h * k1[2], space)
                k3 = _rhs(direction, fdm, p + 0.5 * h * k2[0], a + 0.5 * h * k2[1], b + 0.5 * h * k2[2], space)
                k4 = _rhs(direction, fd1, p + h * k3[0], a + h * k3[1], b + h * k3[2], space)
                pn = p + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
                an = a + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
                bn = b + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
                ok = ok & np.isfinite(pn) & np.isfinite(an) & np.isfinite(bn)
                ok = ok & np.asarray(space.in_domain(an, bn))
            psi[nxt] = np.where(ok, pn, np.nan)
            u1[nxt] = np.where(ok, an, np.nan)
            u2[nxt] = np.where(ok, bn, np.nan)
            alive[nxt] = ok
            fd0 = fd1

    sweep(list(range(i_start, n)))
    sweep(list(range(i_start, -1, -1)))
    return psi, u1, u2, alive


def _require_source(field: OmegaField):
    if field.source is None:
        raise InvalidParams(
            "frame integration needs a field with closed-form data "
            "(reconstructed or constant-profile provenance)"
        )
    return field.source


def default_seed(field: OmegaField) -> tuple[float, float]:
    """Grid node nearest an axis feature of the field.

    Columns are scored by min(|f|, |f'|) and rows by min(|g|, |g'|) for
    reconstructed fields (the profile zeros and turning points are where the
    surface meets its symmetry axes); the constant-profile family uses the
    line alpha x + beta y = 0.  Falls back to the grid center.
    """
    xs, ys = field.grid.xs, field.grid.ys
    src = field.source
    if src is not None and hasattr(src, "ffn"):
        f, fx = src.ffn.eval_many(xs)
        g, gy = src.gfn.eval_many(ys)
        i = int(np.argmin(np.minimum(np.abs(f), np.abs(fx))))
        j = int(np.argmin(np.minimum(np.abs(g), np.abs(gy))))
    elif src is not None and hasattr(src, "alpha"):
        phase = np.abs(src.alpha * xs[None, :] + src.beta * ys[:, None])
        j, i = np.unravel_index(int(np.argmin(phase)), phase.shape)
    else:
        i, j = field.nx // 2, field.ny // 2
    if field.mask[j, i]:
        free = np.argwhere(~field.mask)
        if free.size == 0:
            raise SingularCrossing("no non-singular node available for the seed")
        dist = (free[:, 0] - j) ** 2 + (free[:, 1] - i) ** 2
        j, i = map(int, free[int(np.argmin(dist))])
    return float(xs[i]), float(ys[j])


def _resolve_seed(
    field: OmegaField,
    space: ChartSpace,
    seed: tuple[float, float, float, tuple[float, float]] | None,
) -> tuple[int, int, float, tuple[float, float]]:
    """Grid node (i0, j0) nearest the seed point, frame angle and chart point.

    No seed means :func:`default_seed` with angle 0 at the chart origin.  A
    singular seed node raises SingularCrossing and a chart point outside the
    chart ChartOverflow.
    """
    xs, ys = field.grid.xs, field.grid.ys
    if seed is None:
        sx, sy = default_seed(field)
        psi0, u0 = 0.0, (0.0, 0.0)
    else:
        sx, sy, psi0, u0 = seed
    i0 = int(np.argmin(np.abs(xs - sx)))
    j0 = int(np.argmin(np.abs(ys - sy)))
    if field.mask[j0, i0]:
        raise SingularCrossing(f"seed node ({xs[i0]}, {ys[j0]}) is on the singular set")
    if not bool(np.asarray(space.in_domain(u0[0], u0[1]))):
        raise ChartOverflow(f"seed chart point {u0} outside the chart")
    return i0, j0, float(psi0), (float(u0[0]), float(u0[1]))


def integrate_frame(
    field: OmegaField,
    space: ChartSpace,
    seed: tuple[float, float, float, tuple[float, float]] | None = None,
) -> FrameField:
    """Integrate (psi, u) over the grid from a seed node.

    The path runs along the seed column first, then along every row, with
    one fourth-order step per grid cell (middle stages at the cell
    midpoints).  The transposed path continues the seed row of that result
    up every column, so the frame takes three marches in all; the largest
    state discrepancy between the two paths over the full grid is reported
    as ``compat_linf``.
    Rows are truncated (NaN) where they hit the singular set or the chart
    boundary; a singular seed raises SingularCrossing.
    """
    source = _require_source(field)
    grid = field.grid
    xs, ys = grid.xs, grid.ys
    i0, j0, psi0, u0 = _resolve_seed(field, space, seed)

    one = np.ones(1)
    cpsi, cu1, cu2, calive = _march(
        source, space, "y", np.array([xs[i0]]), ys, j0,
        psi0 * one, u0[0] * one, u0[1] * one, np.array([True]),
    )
    psi, u1, u2, alive = _march(
        source, space, "x", ys, xs, i0,
        cpsi[:, 0], cu1[:, 0], cu2[:, 0], calive[:, 0],
    )
    # row-major orientation: _march returned (nx, ny); transpose to (ny, nx)
    psi, u1, u2, alive = psi.T, u1.T, u2.T, alive.T

    return FrameField(
        psi=psi,
        u=np.stack([u1, u2], axis=-1),
        valid=alive,
        seed=(i0, j0, psi0, u0),
        compat_linf=_path_compat(source, space, grid, j0, psi, u1, u2, alive),
        grid=grid,
    )


def _path_compat(source, space, grid, j0, psi, u1, u2, alive):
    """Largest (psi, u) gap between column-first and row-first integration.

    The row-first path shares the seed row with the column-first one, so it
    is one march up all columns from that row of the frame.
    """
    if not alive[j0].any():
        return float("nan")
    tpsi, tu1, tu2, talive = _march(
        source, space, "y", grid.xs, grid.ys, j0,
        psi[j0], u1[j0], u2[j0], alive[j0],
    )
    both = talive & alive
    dpsi = (tpsi[both] - psi[both] + math.pi) % (2.0 * math.pi) - math.pi
    du = np.hypot(tu1[both] - u1[both], tu2[both] - u2[both])
    return float(max(np.abs(dpsi).max(initial=0.0), du.max(initial=0.0)))


# ---------------------------------------------------------------------------
# conformality, Hopf quantity, harmonicity
# ---------------------------------------------------------------------------

def _frame_derivatives(frame: FrameField):
    hx, hy = frame.grid.hx, frame.grid.hy
    u = np.where(frame.valid[..., None], frame.u, np.nan)
    fy1, fx1 = np.gradient(u[..., 0], hy, hx, edge_order=2)
    fy2, fx2 = np.gradient(u[..., 1], hy, hx, edge_order=2)
    return (fx1, fx2), (fy1, fy2)


def isometry_check(
    frame: FrameField, field: OmegaField, space: ChartSpace
) -> ResidualStats:
    """Conformality residuals of the integrated frame.

    Checks rho |F_x|^2 = cosh^2(omega), rho |F_y|^2 = sinh^2(omega) and
    rho <F_x, F_y> = 0 with centered differences on the chart-point grid.
    """
    if frame.grid.nx < 5 or frame.grid.ny < 5:
        raise TooFewNodes("isometry check needs at least 5x5 nodes")
    (fx1, fx2), (fy1, fy2) = _frame_derivatives(frame)
    rho, _, _ = space.factor_many(frame.u[..., 0], frame.u[..., 1])
    w = np.where(field.mask, np.nan, field.omega)
    r1 = rho * (fx1 * fx1 + fx2 * fx2) - np.cosh(w) ** 2
    r2 = rho * (fy1 * fy1 + fy2 * fy2) - np.sinh(w) ** 2
    r3 = rho * (fx1 * fy1 + fx2 * fy2)
    res = np.stack([r1, r2, r3])
    res[:, [0, -1], :] = np.nan
    res[:, :, [0, -1]] = np.nan
    return stats_from(res, max(frame.grid.hx, frame.grid.hy))


def hopf_deviation(frame: FrameField, space: ChartSpace) -> tuple[float, float]:
    """(max |Re Q - 1/4|, max |Im Q|) of the Hopf quantity of the frame."""
    (fx1, fx2), (fy1, fy2) = _frame_derivatives(frame)
    rho, _, _ = space.factor_many(frame.u[..., 0], frame.u[..., 1])
    re = 0.25 * rho * (fx1 * fx1 + fx2 * fx2 - fy1 * fy1 - fy2 * fy2)
    im = 0.5 * rho * (fx1 * fy1 + fx2 * fy2)
    re_err = np.abs(re - 0.25)[1:-1, 1:-1]
    im_err = np.abs(im)[1:-1, 1:-1]
    return (
        float(np.nanmax(re_err)) if np.isfinite(re_err).any() else float("nan"),
        float(np.nanmax(im_err)) if np.isfinite(im_err).any() else float("nan"),
    )


def harmonic_residual(frame: FrameField, space: ChartSpace) -> ResidualStats:
    """Residual of F_zz~ + (log rho)_u F_z F_z~ = 0 on the chart-point grid."""
    if frame.grid.nx < 5 or frame.grid.ny < 5:
        raise TooFewNodes("harmonic residual needs at least 5x5 nodes")
    hx, hy = frame.grid.hx, frame.grid.hy
    u = np.where(frame.valid[..., None], frame.u, np.nan)
    f = u[..., 0] + 1j * u[..., 1]
    lap = _interior_laplacian(f, hx, hy)
    fy, fx = np.gradient(f, hy, hx, edge_order=2)
    fz = 0.5 * (fx - 1j * fy)
    fzb = 0.5 * (fx + 1j * fy)
    rho, l1, l2 = space.factor_many(frame.u[..., 0], frame.u[..., 1])
    logrho_u = 0.5 * (l1 - 1j * l2)
    res = np.abs(0.25 * lap + logrho_u * fz * fzb)
    return stats_from(res, max(hx, hy))


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceMesh:
    """Immersion samples in chart and ambient-model coordinates.

    ``chart_vertices[j, i] = (u1, u2, t)`` and ``ambient_vertices[j, i]`` is
    the model lift plus the height (3 components for the flat case, 4 for
    the hyperboloid x R and sphere x R models).  Faces are quads over grid
    cells whose four corners are valid; foliation polylines follow the rows.
    """

    chart_vertices: np.ndarray
    ambient_vertices: np.ndarray
    valid: np.ndarray
    faces: np.ndarray
    foliation: tuple[tuple[int, ...], ...]
    metadata: dict

    def __post_init__(self):
        for arr in (self.chart_vertices, self.ambient_vertices, self.valid, self.faces):
            arr.setflags(write=False)


def _mesh_topology(valid: np.ndarray):
    ny, nx = valid.shape
    idx = np.arange(ny * nx).reshape(ny, nx)
    corner = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
    jj, ii = np.nonzero(corner)
    faces = np.stack(
        [idx[jj, ii], idx[jj, ii + 1], idx[jj + 1, ii + 1], idx[jj + 1, ii]], axis=-1
    )
    foliation = []
    for j in range(ny):
        run: list[int] = []
        for i in range(nx):
            if valid[j, i]:
                run.append(int(idx[j, i]))
            elif len(run) > 1:
                foliation.append(tuple(run))
                run = []
            else:
                run = []
        if len(run) > 1:
            foliation.append(tuple(run))
    return faces, tuple(foliation)


def build_mesh(
    frame: FrameField, field: OmegaField, space: ChartSpace, metadata: dict | None = None
) -> SurfaceMesh:
    """Mesh the immersion: chart vertices (u1, u2, y) and model lifts."""
    grid = frame.grid
    ys = grid.ys
    valid = frame.valid & ~field.mask
    u1 = np.where(valid, frame.u[..., 0], np.nan)
    u2 = np.where(valid, frame.u[..., 1], np.nan)
    t = np.broadcast_to(ys[:, None], u1.shape)
    chart = np.stack([u1, u2, t], axis=-1)
    lift = space.lift(u1, u2)
    ambient = np.concatenate([lift, t[..., None]], axis=-1)
    faces, foliation = _mesh_topology(valid)
    meta = {"c0": field.c0, "domain": list(grid.domain), "nx": grid.nx, "ny": grid.ny}
    meta.update(metadata or {})
    return SurfaceMesh(
        chart_vertices=chart,
        ambient_vertices=ambient,
        valid=valid,
        faces=faces,
        foliation=foliation,
        metadata=meta,
    )


def write_obj(mesh: SurfaceMesh) -> str:
    """OBJ text: ``v`` = ambient coordinates (4 values when the model lift
    has three components plus height), ``vt`` = chart coordinates, faces as
    quads and foliation rows as ``l`` polylines."""
    # the text is built one grid row at a time, each row joined into one
    # string: neither a Python copy of a whole array nor one object per line
    # is held at once.  Non-finite coordinates are written as 0.
    isfinite = math.isfinite
    parts = ["# foliata surface mesh"]
    parts += [f"# {key} = {mesh.metadata[key]}" for key in sorted(mesh.metadata)]
    for row in mesh.ambient_vertices:
        parts.append("\n".join([
            "v " + " ".join([repr(v) if isfinite(v) else "0" for v in vertex])
            for vertex in row.tolist()
        ]))
    for row in mesh.chart_vertices:
        parts.append("\n".join([
            f"vt {repr(a) if isfinite(a) else '0'} {repr(b) if isfinite(b) else '0'}"
            for a, b in row[:, :2].tolist()
        ]))
    faces, nx = mesh.faces, mesh.chart_vertices.shape[1]
    for k in range(0, len(faces), nx):
        parts.append("\n".join([
            "f " + " ".join([f"{v}/{v}" for v in face])
            for face in (faces[k:k + nx] + 1).tolist()
        ]))
    parts += ["l " + " ".join([str(v + 1) for v in poly]) for poly in mesh.foliation]
    parts.append("")  # the closing newline, without copying the joined text
    return "\n".join(parts)


def mesh_row_curvature(frame: FrameField, space: ChartSpace, row: int) -> np.ndarray:
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
    rho, l1, l2 = space.factor_many(u1, u2)
    return (k_e - 0.5 * (l1 * n1 + l2 * n2)) / np.sqrt(rho)


# ---------------------------------------------------------------------------
# flat-space Weierstrass route
# ---------------------------------------------------------------------------

def weierstrass_flat(field: OmegaField, frame: FrameField) -> SurfaceMesh:
    """Flat-case immersion by path integration of the Weierstrass data.

    With G = exp(omega + i psi) holomorphic and the one-form chosen so the
    third coordinate is the conformal coordinate y, the immersion is

        2 X = Re Int( (G^-1 - G) eta, i (G^-1 + G) eta, 2 eta ),  eta = -i dz.

    Panels use the derivative-corrected trapezoid rule (the integrand's
    z-derivative is closed form), giving fourth-order path accuracy.
    """
    if field.c0 != 0:
        raise NotFlat(f"Weierstrass route needs c0 = 0, got {field.c0}")
    grid = frame.grid
    w = np.where(field.mask, np.nan, field.omega)
    psi = frame.psi
    g = np.exp(w + 1j * psi)
    ginv = np.exp(-(w + 1j * psi))
    eta = -1j
    phi = np.stack(
        [0.5 * (ginv - g) * eta, 0.5j * (ginv + g) * eta, np.full_like(g, eta)],
        axis=-1,
    )
    wy, wx = np.gradient(w, grid.ys, grid.xs, edge_order=2)
    if field.source is not None:
        data = field.source.eval_grid(grid.xs, grid.ys)
        zeta_z = data.wx - 1j * data.wy
    else:
        zeta_z = wx - 1j * wy
    dphi = np.stack(
        [
            0.5 * (-ginv - g) * eta * zeta_z,
            0.5j * (-ginv + g) * eta * zeta_z,
            np.zeros_like(g),
        ],
        axis=-1,
    )

    i0, j0, _, _ = frame.seed
    x_vec = np.zeros((grid.ny, grid.nx, 3))

    def panel(a, da, b, db, dz):
        return 0.5 * dz * (a + b) + dz * dz / 12.0 * (da - db)

    # seed column, then rows: identical path tree to the frame integration
    for j in range(j0 + 1, grid.ny):
        x_vec[j, i0] = x_vec[j - 1, i0] + np.real(
            panel(phi[j - 1, i0], dphi[j - 1, i0], phi[j, i0], dphi[j, i0], 1j * grid.hy)
        )
    for j in range(j0 - 1, -1, -1):
        x_vec[j, i0] = x_vec[j + 1, i0] + np.real(
            panel(phi[j + 1, i0], dphi[j + 1, i0], phi[j, i0], dphi[j, i0], -1j * grid.hy)
        )
    for i in range(i0 + 1, grid.nx):
        x_vec[:, i] = x_vec[:, i - 1] + np.real(
            panel(phi[:, i - 1], dphi[:, i - 1], phi[:, i], dphi[:, i], grid.hx)
        )
    for i in range(i0 - 1, -1, -1):
        x_vec[:, i] = x_vec[:, i + 1] + np.real(
            panel(phi[:, i + 1], dphi[:, i + 1], phi[:, i], dphi[:, i], -grid.hx)
        )

    valid = frame.valid & ~field.mask & np.isfinite(x_vec).all(axis=-1)
    x_vec = np.where(valid[..., None], x_vec, np.nan)
    faces, foliation = _mesh_topology(valid)
    py, px = np.gradient(psi, grid.ys, grid.xs, edge_order=2)
    cr = np.nanmax(np.abs(np.stack([wx - py, wy + px]))[:, 1:-1, 1:-1])
    meta = {
        "c0": 0.0,
        "domain": list(grid.domain),
        "nx": grid.nx,
        "ny": grid.ny,
        "cauchy_riemann_linf": float(cr),
    }
    return SurfaceMesh(
        chart_vertices=x_vec.copy(),
        ambient_vertices=x_vec,
        valid=valid,
        faces=faces,
        foliation=foliation,
        metadata=meta,
    )


def flat_route_gap(field: OmegaField, frame: FrameField) -> float:
    """Largest vertex gap between the Weierstrass and frame routes (c0 = 0).

    The Weierstrass immersion equals the frame's chart map up to a rigid
    motion of the plane; this aligns position and first-derivative direction
    at the seed node and reports the worst remaining distance.
    """
    mesh = weierstrass_flat(field, frame)
    i0, j0, _, _ = frame.seed
    w = mesh.chart_vertices[..., 0] + 1j * mesh.chart_vertices[..., 1]
    u = np.where(frame.valid, frame.u[..., 0] + 1j * frame.u[..., 1], np.nan)
    hx = frame.grid.hx
    w_dir = (w[j0, i0 + 1] - w[j0, i0 - 1]) / (2.0 * hx)
    u_dir = (u[j0, i0 + 1] - u[j0, i0 - 1]) / (2.0 * hx)
    rot = (u_dir / abs(u_dir)) / (w_dir / abs(w_dir))
    aligned = rot * (w - w[j0, i0]) + u[j0, i0]
    gap = np.abs(aligned - u)
    vals = gap[np.isfinite(gap)]
    return float(np.max(vals)) if vals.size else float("nan")


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


def _frame_matrix(space: ChartSpace, u1: float, u2: float, psi: float) -> np.ndarray:
    """Columns (T, N, p): the unit frame at angle psi and its chart point, in
    the ambient model; the plane uses homogeneous coordinates (u1, u2, 1)."""
    rho, _, _ = space.factor_many(u1, u2)
    sq = math.sqrt(float(rho))
    e1 = np.array([math.cos(psi) / sq, math.sin(psi) / sq])
    e2 = np.array([-math.sin(psi) / sq, math.cos(psi) / sq])
    if space.kind == "euclidean_plane":
        return np.array([[e1[0], e2[0], u1], [e1[1], e2[1], u2], [0.0, 0.0, 1.0]])
    d1, d2 = space.lift_jacobian(u1, u2)
    col1 = d1 * e1[0] + d2 * e1[1]
    col2 = d1 * e2[0] + d2 * e2[1]
    p = space.lift(np.array(u1), np.array(u2))
    return np.column_stack([col1, col2, p])


def _leaf_motion(k: float, c0: float, s: np.ndarray) -> np.ndarray:
    """exp(s A), stacked over the arclengths s, for a leaf of geodesic curvature k.

    The frame (T, N, p) of a unit-speed curve in the model of curvature c0
    moves by (T, N, p)' = (T, N, p) A.  Since A^3 = -kappa^2 A with
    kappa^2 = k^2 + c0, exp(s A) = I + f1 A + f2 A^2 with f1, f2 the
    circle, horocycle or hypercycle functions below.
    """
    a = np.array([[0.0, -k, 1.0], [k, 0.0, 0.0], [-c0, 0.0, 0.0]])
    kappa2 = k * k + c0
    kappa = math.sqrt(abs(kappa2))
    if kappa2 > 0:
        f1, f2 = np.sin(kappa * s) / kappa, 2.0 * (np.sin(0.5 * kappa * s) / kappa) ** 2
    elif kappa2 < 0:
        f1, f2 = np.sinh(kappa * s) / kappa, 2.0 * (np.sinh(0.5 * kappa * s) / kappa) ** 2
    else:
        f1, f2 = s, 0.5 * s * s
    return np.eye(3) + f1[:, None, None] * a + f2[:, None, None] * (a @ a)


#: Three-point Gauss-Legendre rule on [-1, 1].
GAUSS_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
GAUSS_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def holonomy(
    field: OmegaField,
    period: float,
    seed: tuple[float, float, float, tuple[float, float]] | None = None,
) -> HolonomyReport:
    """Ambient isometry relating the seed row to its translate by one x-period.

    The seed row is a leaf of constant geodesic curvature k = -omega_y /
    cosh(omega) traced at speed cosh(omega), so the frame at arclength s
    from the seed is M E(s): M the seed frame, E the closed-form leaf
    motion.  Arclengths come from Gauss-Legendre quadrature on the grid
    cells of the row.  Base nodes x are sampled among those whose segment
    from the seed through x + period has no singular grid or quadrature
    node.  The isometry is M E(S) M^-1, with S the arclength over the first
    base's period, and the residual is the worst gap between its image of
    a base point and that point's translate.  ``closed`` flags an identity
    holonomy to 1e-6.  ``seed`` is resolved as in :func:`integrate_frame`.
    """
    if period is None or not math.isfinite(period) or period <= 0:
        raise PeriodUnavailable(f"no usable period (got {period})")
    grid = field.grid
    if grid.x1 - grid.x0 < period - 1e-12:
        raise PeriodUnavailable("domain spans less than one period in x")
    source = _require_source(field)
    space = chart_for_curvature(field.c0)
    i0, j0, psi0, u0 = _resolve_seed(field, space, seed)
    xs, y0 = grid.xs, grid.ys[j0]
    at_seed = source.eval_bc(xs[i0], y0)
    k = float(-at_seed.wy / at_seed.cosh)

    bases = np.flatnonzero(xs + period <= grid.x1 + 1e-12)
    targets = xs[bases] + period
    ends = np.searchsorted(xs, targets, side="right") - 1
    # quadrature on every grid cell of the row, then on each [x_end, target]
    lo = np.concatenate([xs[:-1], xs[ends]])
    half = 0.5 * (np.concatenate([xs[1:], targets]) - lo)
    data = source.eval_bc((lo + half)[:, None] + half[:, None] * GAUSS_NODES, y0)
    bad = ~data.ok.all(axis=1)
    length = np.where(bad, 0.0, half * (data.cosh @ GAUSS_WEIGHTS))
    cells = grid.nx - 1
    arc = np.concatenate([[0.0], np.cumsum(length[:cells])])
    bad_cells = bad[:cells] | field.mask[j0, :-1] | field.mask[j0, 1:]
    nbad = np.concatenate([[0], np.cumsum(bad_cells)])
    clean = (nbad[np.maximum(ends, i0)] == nbad[np.minimum(bases, i0)]) & ~bad[cells:]
    picked = np.flatnonzero(clean)
    if picked.size == 0:
        raise PeriodUnavailable("no non-singular base nodes with x + period in range")
    picked = picked[:: max(1, picked.size // 8)]
    sigma = arc[bases[picked]] - arc[i0]
    span = arc[ends[picked]] - arc[bases[picked]] + length[cells + picked]

    m = _frame_matrix(space, u0[0], u0[1], psi0)
    iso = m @ _leaf_motion(k, space.c0, span[:1])[0] @ np.linalg.inv(m)
    base_pts = _leaf_motion(k, space.c0, sigma)[:, :, 2] @ m.T
    image_pts = _leaf_motion(k, space.c0, sigma + span)[:, :, 2] @ m.T
    worst = float(np.max(np.linalg.norm(base_pts @ iso.T - image_pts, axis=1)))

    if space.kind == "euclidean_plane":
        theta = math.atan2(iso[1, 0], iso[0, 0])
        shift = float(np.linalg.norm(iso[:2, 2]))
        if abs(theta) < 1e-9:
            kind, value = "translation", shift
        else:
            kind, value = "rotation", theta
        ident = max(abs(theta), shift)
    else:
        tr = float(np.trace(iso))
        if space.kind == "stereographic" or tr < 3.0:
            kind, value = "rotation", math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
        else:
            kind, value = "translation", math.acosh(max(1.0, (tr - 1.0) / 2.0))
        ident = float(np.linalg.norm(iso - np.eye(3)))
    closed = bool(ident < 1e-6 and worst < 1e-6)
    if closed:
        kind = "identity"
    return HolonomyReport(
        kind=kind,
        angle_or_length=float(value),
        residual=worst,
        closed=closed,
    )
