import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foliata.cli import main
from foliata.errors import InvalidParams, NotFlat, PeriodUnavailable, SingularCrossing, TooFewNodes
from foliata import field as field_module
from foliata.field import (
    GridSpec,
    OmegaField,
    ReconstructedSource,
    ResidualAccumulator,
    _interior_laplacian,
    assemble_omega,
    assemble_omega_degenerate,
    field_from_source,
    row_blocks,
)
from foliata import immersion
from foliata.immersion import (
    ChartSpace,
    FrameField,
    build_mesh,
    flat_route_gap,
    harmonic_residual,
    holonomy,
    hopf_deviation,
    integrate_frame,
    isometry_check,
    mesh_row_curvature,
    obj_chunks,
    rk4_row_gap,
    weierstrass_flat,
)
from foliata.moduli import ModuliPoint, derive_params
from foliata.profile import ProfileFunction, integrate_profile, profile_period

DISK = ChartSpace(-1.0)
PLANE = ChartSpace(0.0)
SPHERE = ChartSpace(1.0)
#: Charts off the unit curvatures: each is a unit chart scaled by 1/sqrt|c0|.
SCALED = [ChartSpace(c0) for c0 in (-4.0, -0.25, 0.25, 4.0)]


def reconstructed(c0, c, d, grid, a=None, trivial_f=False, trivial_g=False, step=1e-3):
    dp = derive_params(ModuliPoint(c0, c, d), a)
    fsol = integrate_profile(dp, "F", (grid.x0, grid.x1), step, trivial=trivial_f)
    gsol = integrate_profile(dp, "G", (grid.y0, grid.y1), step, trivial=trivial_g)
    return assemble_omega(fsol, gsol, grid)


def assert_frame_record(frame, field):
    """psi and u are finite exactly where the frame is valid, which is off
    the field's singular set."""
    finite = np.isfinite(frame.psi) & np.isfinite(frame.u).all(-1)
    assert (finite == frame.valid).all()
    assert not (frame.valid & field.mask).any()
    assert not frame.valid.flags.writeable


@pytest.fixture(scope="module")
def flat_trivial_frame():
    grid = GridSpec(0, 1, 0, 1, 21, 21)
    field = reconstructed(0, 0, 0, grid, a=0.0, trivial_f=True, trivial_g=True)
    return field, integrate_frame(field, seed=(0.0, 0.0))


@pytest.fixture(scope="module")
def sphere_pair():
    grid = GridSpec(0, 1, 0, 1, 101, 101)
    field = reconstructed(1, -1, -1, grid)
    return field, integrate_frame(field)


def test_chart_of_curvature():
    # the chart of c0 itself: the disk of radius 1/2 at c0 = -4
    space = ChartSpace(-4.0)
    assert (space.c0, space.q, space.axis, space.sigma) == (-4.0, 2.0, 0, 1.0)
    assert space.bound == (immersion.DISK_EDGE / 2.0) ** 2
    assert (PLANE.q, PLANE.axis, PLANE.sigma, PLANE.bound) == (1.0, 2, 2.0, math.inf)
    assert (SPHERE.axis, SPHERE.bound) == (2, immersion.STEREO_GUARD**2)
    assert vars(ChartSpace(-1)) == vars(DISK) and repr(SPHERE) == "ChartSpace(1.0)"
    for bad in (math.nan, math.inf, "stereographic"):
        with pytest.raises((InvalidParams, ValueError)):
            ChartSpace(bad)


def test_frame_carries_its_field_and_chart():
    # the frame of a field is in the chart of the c0 the field was given,
    # 1 ulp off (cbar + dbar) / 2 at (1, -1.383, -0.2)
    points = [((0.0, -0.25, -0.25), 1.0)] + [
        ((sign * 4.0**k, -(16.0**k), (-1.0 if sign > 0 else -0.25) * 16.0**k), 2.0**-k)
        for sign in (1.0, -1.0) for k in (-1, 0, 1)
    ] + [((1.0, -1.383, -0.2), 0.5)]
    for (c0, c, d), side in points:
        dp = derive_params(ModuliPoint(c0, c, d), 0.0 if c0 == 0 else None)
        source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
        lo, hi = 0.5 * side, 1.5 * side
        field = field_from_source(source, GridSpec(lo, hi, lo, hi, 11, 11))
        frame = integrate_frame(field)
        assert frame.field is field and frame.grid is field.grid
        assert frame.space.c0 == field.c0 == c0
        assert frame.valid.any()


def test_chart_factor_values():
    assert DISK.factor_many(0.0, 0.0) == (4.0, 0.0, 0.0)
    assert PLANE.factor_many(0.3, -0.7) == (1.0, 0.0, 0.0)
    rho, l1, l2 = SPHERE.factor_many(1.0, 0.0)
    assert rho == 1.0
    assert l1 == pytest.approx(-2.0) and l2 == 0.0


@pytest.mark.parametrize(
    "space,expected",
    [(DISK, -1.0), (PLANE, 0.0), (SPHERE, 1.0)] + [(space, space.c0) for space in SCALED],
)
def test_chart_curvature_by_finite_differences(space, expected):
    # K = -(1 / 2 rho) lap(log rho) must equal the ambient curvature
    h = 1e-4 / space.q

    def logrho(u1, u2):
        rho, _, _ = space.factor_many(np.asarray(u1), np.asarray(u2))
        return math.log(float(rho))

    for u in [(0.0, 0.0), (0.3 / space.q, 0.2 / space.q), (-0.4 / space.q, 0.5 / space.q)]:
        lap = (
            logrho(u[0] + h, u[1]) + logrho(u[0] - h, u[1])
            + logrho(u[0], u[1] + h) + logrho(u[0], u[1] - h)
            - 4 * logrho(*u)
        ) / h**2
        rho, _, _ = space.factor_many(np.asarray(u[0]), np.asarray(u[1]))
        assert -lap / (2 * float(rho)) == pytest.approx(expected, rel=1e-6, abs=1e-6)


def test_lift_quadrics():
    # c0 <p, p> = 1 in the model's form: the hyperboloid and the sphere of
    # radius 1/sqrt|c0|, over the disk's radius and three times the sphere's
    u1 = np.linspace(-0.7, 0.7, 11)
    u2 = np.linspace(-0.6, 0.6, 11)
    for space in (DISK, SPHERE, *SCALED):
        reach = 1.0 if space.c0 < 0 else 3.0
        p = space.lift(reach * u1 / space.q, reach * u2 / space.q)
        quad = np.einsum("ni,ij,nj->n", p, MODEL_FORMS[math.copysign(1.0, space.c0)], p)
        assert np.abs(space.c0 * quad - 1).max() <= 1e-12


@pytest.mark.parametrize("space", [DISK, PLANE, SPHERE, *SCALED],
                         ids=["poincare_disk", "euclidean_plane", "stereographic",
                              "c0=-4", "c0=-0.25", "c0=0.25", "c0=4"])
def test_chart_is_one_closed_form(space):
    # lift_jacobian is the derivative of the lift and chart_state inverts the
    # frame's lift and pushforward, on the plane's lift (u1, u2, 1) as well
    rng = np.random.default_rng(5)
    u1, u2 = rng.uniform(-0.5, 0.5, (2, 40)) / space.q
    psi = rng.uniform(-3.0, 3.0, 40)
    h = 1e-6 / space.q
    d1, d2 = space.lift_jacobian(u1, u2)
    assert np.abs(d1 - (space.lift(u1 + h, u2) - space.lift(u1 - h, u2)) / (2 * h)).max() <= 1e-8
    assert np.abs(d2 - (space.lift(u1, u2 + h) - space.lift(u1, u2 - h)) / (2 * h)).max() <= 1e-8
    m = immersion._frame_matrix(space, u1, u2, psi)
    v1, v2, angle = space.chart_state(m[..., 2], m[..., 0])
    assert max(np.abs(v1 - u1).max(), np.abs(v2 - u2).max()) <= 1e-15 / space.q
    assert np.abs(np.angle(np.exp(1j * (angle - psi)))).max() <= 1e-14
    if space is PLANE:
        assert (m[..., 2, 2] == 1.0).all() and (m[..., 2, :2] == 0.0).all()


def test_flat_trivial_frame_is_a_plane(flat_trivial_frame):
    field, frame = flat_trivial_frame
    grid = field.grid
    assert np.nanmax(np.abs(frame.psi)) == 0.0
    assert np.nanmax(np.abs(frame.u[..., 0] - grid.xs[None, :])) == 0.0
    assert np.nanmax(np.abs(frame.u[..., 1])) == 0.0
    assert rk4_row_gap(frame) == 0.0
    assert isometry_check(frame).linf <= 1e-14
    re_err, im_err = hopf_deviation(frame)
    assert re_err <= 1e-14 and im_err <= 1e-14
    assert harmonic_residual(frame).linf <= 1e-12


def test_frame_seed_state_is_exact(sphere_pair):
    _, frame = sphere_pair
    # the frame starts at the chart origin at angle 0, exactly
    i0, j0 = frame.seed
    assert frame.psi[j0, i0] == 0.0
    assert tuple(frame.u[j0, i0]) == (0.0, 0.0)


#: The quadratic form each model's frame (T, N, p) preserves; the plane's
#: frame keeps the Gram block of (T, N) and its homogeneous row (0, 0, 1).
MODEL_FORMS = {-1.0: np.diag([-1.0, 1.0, 1.0]), 0.0: np.diag([1.0, 1.0, 0.0]), 1.0: np.eye(3)}


@pytest.mark.parametrize("c0, c, d, domain", [
    (1, -1, -1, (0, 1, 0, 1)),
    (-1, -1, 1, (0, 1, 1, 1.9)),
    (0, -0.25, -0.25, (0.5, 2.5, 0.5, 2.5)),
], ids=["sphere", "hyperboloid", "plane"])
def test_seed_node_moves_the_surface_by_an_isometry(c0, c, d, domain):
    # the frames from two seed nodes differ by an isometry of the model: the
    # Gram matrix of the lifted vertices in the model's form (pairwise
    # distances on the plane) agrees, to the fourth order of the Magnus column
    dp = derive_params(ModuliPoint(c0, c, d), 0.0 if c0 == 0 else None)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    space = ChartSpace(c0)

    def gap(n):
        field = field_from_source(source, GridSpec(*domain, n, n))
        xs, ys = field.grid.xs, field.grid.ys
        frames = [integrate_frame(field, seed=(xs[k], ys[k])) for k in (n // 4, 3 * n // 4)]
        assert frames[0].seed != frames[1].seed
        assert frames[0].valid.all() and frames[1].valid.all()
        nodes = np.linspace(0, n * n - 1, 200).astype(int)
        grams = []
        for frame in frames:
            u = frame.u.reshape(-1, 2)[nodes]
            if c0 == 0:
                w = u[:, 0] + 1j * u[:, 1]
                grams.append(np.abs(w[:, None] - w[None, :]))
            else:
                p = space.lift(u[:, 0], u[:, 1])
                grams.append(p @ MODEL_FORMS[c0] @ p.T)
        return np.abs(grams[0] - grams[1]).max()

    coarse, fine = gap(41), gap(81)
    assert fine <= 1e-8
    assert coarse >= 8.0 * fine


def test_frame_validity_is_derived_from_psi():
    # the strip |y| < pi/2 of the constant-profile field: rows beyond it are
    # singular, and the frame is placed on none of them
    field = assemble_omega_degenerate(0.0, 1.0, GridSpec(-2, 2, -2, 2, 41, 41))
    frame = integrate_frame(field)
    assert field.mask.any() and frame.valid.any()
    assert_frame_record(frame, field)
    with pytest.raises(ValueError):
        frame.valid[frame.seed[::-1]] = False
    with pytest.raises(AttributeError):
        frame.valid = np.ones_like(frame.valid)


def test_frame_rejects_singular_seed():
    dp = derive_params(ModuliPoint(-1, 0, 2))
    fsol = integrate_profile(dp, "F", (0, 1), 1e-3, trivial=True)
    gsol = integrate_profile(dp, "G", (-0.5, 0.5), 1e-3)
    field = assemble_omega(fsol, gsol, GridSpec(0, 1, -0.5, 0.5, 11, 11))
    with pytest.raises(SingularCrossing):
        integrate_frame(field, seed=(0.0, 0.0))


def test_isometry_and_harmonic_residuals_refine(sphere_pair):
    _, frame_f = sphere_pair
    frame_c = integrate_frame(reconstructed(1, -1, -1, GridSpec(0, 1, 0, 1, 51, 51)))
    iso = [isometry_check(frame_c).linf, isometry_check(frame_f).linf]
    harm = [harmonic_residual(frame_c).linf, harmonic_residual(frame_f).linf]
    assert iso[0] / iso[1] >= 2.8  # order >= 1.5
    assert harm[0] / harm[1] == pytest.approx(4.0, abs=0.6)


@pytest.mark.parametrize("nx, ny", [(4, 21), (21, 4), (2, 2)])
def test_frame_diagnostics_need_five_by_five_nodes(nx, ny):
    field = reconstructed(1, -1, -1, GridSpec(0, 1, 0, 1, nx, ny))
    frame = integrate_frame(field)
    with pytest.raises(TooFewNodes):
        isometry_check(frame)
    with pytest.raises(TooFewNodes):
        hopf_deviation(frame)
    with pytest.raises(TooFewNodes):
        harmonic_residual(frame)


def test_harmonic_residual_negative_control(sphere_pair):
    field, frame = sphere_pair
    rng = np.random.default_rng(0)
    noisy = frame.u + 1e-3 * rng.standard_normal(frame.u.shape)
    assert harmonic_residual(replace(frame, u=noisy)).linf > 1.0


def full_grid_frame_residuals(frame):
    """The oracle of the row-block pass, on whole-grid arrays: the three
    isometry residuals stacked, the two Hopf errors and the harmonic
    residual, at the grid's interior nodes."""
    grid, omega = frame.grid, frame.field.omega
    u1, u2 = frame.u[..., 0], frame.u[..., 1]
    fy1, fx1 = np.gradient(u1, grid.hy, grid.hx)
    fy2, fx2 = np.gradient(u2, grid.hy, grid.hx)
    rho, l1, l2 = frame.space.factor_many(u1, u2)
    xx = rho * (fx1 * fx1 + fx2 * fx2)
    yy = rho * (fy1 * fy1 + fy2 * fy2)
    xy = rho * (fx1 * fy1 + fx2 * fy2)
    f = u1 + 1j * u2
    fy, fx = np.gradient(f, grid.hy, grid.hx)
    fz, fzb = 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)
    harm = np.abs(0.25 * _interior_laplacian(f, grid.hx, grid.hy) + 0.5 * (l1 - 1j * l2) * fz * fzb)
    inner = (slice(1, -1), slice(1, -1))
    iso = np.stack([xx - np.cosh(omega) ** 2, yy - np.sinh(omega) ** 2, xy])[:, 1:-1, 1:-1]
    hopf = (np.nanmax(np.abs(0.25 * (xx - yy) - 0.25)[inner]), np.nanmax(np.abs(0.5 * xy)[inner]))
    return iso, hopf, harm[inner]


@pytest.mark.parametrize("rows", [None, 5], ids=["one_block", "blocks_of_5_rows"])
def test_frame_residuals_match_the_full_grid(monkeypatch, rows):
    # the disk edge, where the frame leaves nodes unplaced: every value is
    # the whole-grid one, and l2 keeps its bits when the grid is one block
    grid = GridSpec(-2, 2, -2, 2, 41, 41)
    frame = integrate_frame(reconstructed(-1, -1, 1, grid))
    assert not frame.valid.all()
    if rows:
        monkeypatch.setattr(field_module, "BLOCK_NODES", rows * grid.nx)
        assert len(list(row_blocks(grid, 1))) == 8
    iso, hopf, harm = full_grid_frame_residuals(frame)
    assert hopf_deviation(frame) == hopf
    for got, residual in ((isometry_check(frame), iso), (harmonic_residual(frame), harm)):
        acc = ResidualAccumulator()
        acc.add(residual)
        want = acc.stats()
        assert (got.linf, got.count) == (want.linf, want.count)
        assert got.l2 == (want.l2 if rows is None else pytest.approx(want.l2, rel=1e-13))


def test_frame_residuals_hold_one_row_block_at_a_time():
    # at 801^2 the pass behind the three diagnostics holds one row block
    # (0.99x omega's bytes, against 10-21x through whole-grid arrays), and
    # the RK4 gap the march's three arrays and one block (3.2x, against 7.25x)
    dp = derive_params(ModuliPoint(1, -1, -1))
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    frame = integrate_frame(field_from_source(source, GridSpec(0, 1, 0, 1, 801, 801)))
    peaks = []
    for run in (immersion._frame_residuals, rk4_row_gap):
        tracemalloc.start()
        try:
            run(frame)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    omega_bytes = frame.field.omega.nbytes
    assert peaks[0] < 1.5 * omega_bytes
    assert peaks[1] < 4.0 * omega_bytes


def test_verify_immersion_differentiates_the_chart_map_once(tmp_path, monkeypatch):
    # 101^2 nodes are one row block, which the three diagnostics share:
    # five np.gradient calls in three whole-grid passes became one pass
    grid_args = ["--domain", "0", "1", "0", "1", "--nx", "101", "--ny", "101"]
    path = tmp_path / "field.json"
    assert main(["field", "--c0", "1", "--c", "-1", "--d", "-1", *grid_args, "--out", str(path)]) == 0
    assert len(list(row_blocks(GridSpec(0, 1, 0, 1, 101, 101), 1))) == 1
    calls, gradient = [], np.gradient

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return gradient(*args, **kwargs)

    monkeypatch.setattr(np, "gradient", counted)
    assert main(["verify", "--input", str(path), "--immersion", "--out", str(tmp_path / "v.json")]) == 0
    assert 0 < len(calls) <= 3


def test_rotational_columns_project_to_geodesics():
    grid = GridSpec(0, 2, 0, 2, 81, 81)
    field = reconstructed(1, 0, -0.25, grid, trivial_f=True)
    frame = integrate_frame(field)
    i0, j0 = frame.seed
    col = frame.u[frame.valid[:, i0], i0, :]
    far = col[np.argmax(np.hypot(col[:, 0], col[:, 1]))]
    direction = far / np.hypot(*far)
    cross = np.abs(col[:, 0] * direction[1] - col[:, 1] * direction[0])
    assert cross.max() <= 1e-9


def test_degenerate_frame_and_meshed_horocycle_curvature():
    gaps = []
    for n in (61, 121):
        grid = GridSpec(-0.6, 0.6, -0.6, 0.6, n, n)
        field = assemble_omega_degenerate(0.0, 1.0, grid)
        frame = integrate_frame(field, seed=(0.0, 0.0))
        k = mesh_row_curvature(frame, n // 2)
        gaps.append(np.nanmax(np.abs(k - 1.0)))
    assert gaps[0] <= 2e-4
    assert gaps[0] / gaps[1] >= 2.0  # at least first order in h


def test_meshed_row_curvature_matches_g():
    grid = GridSpec(0, 2, 0, 2, 101, 101)
    field = reconstructed(1, 0, -0.25, grid, trivial_f=True)
    frame = integrate_frame(field)
    g_vals = field.source.gfn.eval_many(grid.ys)[0]
    worst = 0.0
    for j in range(5, 96, 10):
        k = mesh_row_curvature(frame, j)
        worst = max(worst, np.nanmax(np.abs(k[2:-2] - g_vals[j])))
    assert worst <= 2e-3


def test_build_mesh_sphere_lift(sphere_pair):
    field, frame = sphere_pair
    mesh = build_mesh(frame)
    pts = mesh.ambient_vertices[mesh.valid]
    assert pts.shape[1] == 4
    assert np.abs((pts[:, :3] ** 2).sum(axis=1) - 1.0).max() <= 1e-10
    # heights are the conformal y coordinate itself
    t = mesh.ambient_vertices[..., 3]
    assert np.allclose(t, field.grid.ys[:, None])
    lines = "".join(obj_chunks(mesh)).splitlines()
    assert sum(line.startswith("f ") for line in lines) == 100 * 100
    assert sum(line.startswith("l ") for line in lines) == 101


def test_region_one_mesh_clips_at_disk_boundary():
    dp = derive_params(ModuliPoint(-1, -1, 1))
    grid = GridSpec(-2, 2, -2, 2, 81, 81)
    fsol = integrate_profile(dp, "F", (-2, 2), 1e-3)
    gsol = integrate_profile(dp, "G", (-2, 2), 1e-3)
    field = assemble_omega(fsol, gsol, grid)
    frame = integrate_frame(field)
    assert_frame_record(frame, field)
    mesh = build_mesh(frame)
    assert 0.3 < mesh.valid.mean() < 1.0  # clipped, not empty
    pts = mesh.ambient_vertices[mesh.valid]
    # X0 reaches ~557 at the chart edge, so the hyperboloid constraint is
    # checked against the rounding floor of each vertex, eps * |X|^2
    def on_hyperboloid(x):
        sq = x[:, :3] ** 2
        return bool(np.all(np.abs(-sq[:, 0] + sq[:, 1] + sq[:, 2] + 1.0)
                           <= 8.0 * np.finfo(float).eps * sq.sum(axis=1)))

    assert on_hyperboloid(pts)
    assert not on_hyperboloid(pts * np.array([1.0 + 1e-12, 1.0, 1.0, 1.0]))
    r = np.hypot(*frame.u[mesh.valid].T)
    assert r.max() < 1.0


def test_write_obj_structure(flat_trivial_frame):
    field, frame = flat_trivial_frame
    mesh = build_mesh(frame)
    mesh.metadata.update(c=0.0, d=0.0)
    lines = "".join(obj_chunks(mesh)).splitlines()
    assert lines[0].startswith("#")
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_f = sum(1 for ln in lines if ln.startswith("f "))
    n_l = sum(1 for ln in lines if ln.startswith("l "))
    assert n_v == 21 * 21 and not any(ln.startswith("vt ") for ln in lines)
    assert n_f == 20 * 20 and n_l == 21
    assert any("# c = 0.0" == ln for ln in lines)
    # quad indices are 1-based and in range
    first_face = next(ln for ln in lines if ln.startswith("f "))
    idx = [int(tok) for tok in first_face.split()[1:]]
    assert min(idx) >= 1 and max(idx) <= n_v


def test_weierstrass_flat_matches_frame_route():
    dp = derive_params(ModuliPoint(0, -0.25, -0.25), a=0.0)
    grid = GridSpec(0.5, 2.5, 0.5, 2.5, 101, 101)
    fsol = integrate_profile(dp, "F", (0.5, 2.5), 1e-3)
    gsol = integrate_profile(dp, "G", (0.5, 2.5), 1e-3)
    field = assemble_omega(fsol, gsol, grid)
    frame = integrate_frame(field)
    mesh = weierstrass_flat(frame)
    # the third coordinate is y - y_seed, in closed form
    assert (mesh.ambient_vertices[..., 2] == (grid.ys - grid.ys[frame.seed[1]])[:, None]).all()
    assert mesh.metadata["cauchy_riemann_linf"] <= 1e-2
    assert flat_route_gap(frame) <= 1e-6


@pytest.mark.parametrize("seed", [(0.5, 1.5), (2.5, 1.5)], ids=["first-column", "last-column"])
def test_flat_route_gap_on_an_edge_seed_column(seed):
    # the alignment direction comes from neighbours inside the grid, so a
    # seed on the first or last column aligns as well as an inner one (4.7e-6)
    dp = derive_params(ModuliPoint(0, -0.25, -0.25), a=0.0)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    field = field_from_source(source, GridSpec(0.5, 2.5, 0.5, 2.5, 41, 41))
    frame = integrate_frame(field, seed=seed)
    assert field.grid.xs[frame.seed[0]] == seed[0]
    assert flat_route_gap(frame) <= 1e-5


def _pole_beside_the_seed_frame():
    """(0, -0.5, -0.5) with a = 0.3 on [0, 1] x [0, 2] at 31 x 57: the node
    (0, 0) is singular, and the default seed moves to its neighbour (1, 0)."""
    dp = derive_params(ModuliPoint(0, -0.5, -0.5), a=0.3)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    frame = integrate_frame(field_from_source(source, GridSpec(0.0, 1.0, 0.0, 2.0, 31, 57)))
    assert frame.seed == (1, 0) and not frame.valid[0, 0]
    return frame


@pytest.mark.filterwarnings("error")
def test_flat_route_gap_aligns_along_the_valid_chord():
    # the chord to the singular node would read NaN: the seed and its other
    # neighbour align instead.  The gap itself is the pole's (ROADMAP item 2)
    gap = flat_route_gap(_pole_beside_the_seed_frame())
    assert math.isfinite(gap) and gap > 1.0


def test_flat_route_gap_refuses_a_seed_with_no_valid_row_neighbour():
    frame = _pole_beside_the_seed_frame()
    i0, j0 = frame.seed
    psi = frame.psi.copy()
    psi[j0, i0 - 1:i0 + 2:2] = np.nan
    with pytest.raises(SingularCrossing, match="no valid neighbour"):
        flat_route_gap(replace(frame, psi=psi))


def weierstrass_loop_reference(field, frame):
    """Weierstrass vertices summed by one Python loop per direction out from
    the seed: the reference of weierstrass_flat's running sums of the first
    two components.  The third is y - y_seed."""
    grid = frame.grid
    phi, dphi = immersion._weierstrass_forms(field.omega, frame.psi,
                                             field.source.eval_grid(grid.xs, grid.ys))

    def panel(a, da, b, db, dz):
        return np.real(0.5 * dz * (a + b) + dz * dz / 12.0 * (da - db))

    i0, j0 = frame.seed
    x = np.zeros((grid.ny, grid.nx, 2))
    for j in range(j0 + 1, grid.ny):
        x[j, i0] = x[j - 1, i0] + panel(phi[j - 1, i0], dphi[j - 1, i0], phi[j, i0], dphi[j, i0],
                                        1j * grid.hy)
    for j in range(j0 - 1, -1, -1):
        x[j, i0] = x[j + 1, i0] + panel(phi[j + 1, i0], dphi[j + 1, i0], phi[j, i0], dphi[j, i0],
                                        -1j * grid.hy)
    for i in range(i0 + 1, grid.nx):
        x[:, i] = x[:, i - 1] + panel(phi[:, i - 1], dphi[:, i - 1], phi[:, i], dphi[:, i], grid.hx)
    for i in range(i0 - 1, -1, -1):
        x[:, i] = x[:, i + 1] + panel(phi[:, i + 1], dphi[:, i + 1], phi[:, i], dphi[:, i], -grid.hx)
    height = np.broadcast_to((grid.ys - grid.ys[j0])[:, None, None], (grid.ny, grid.nx, 1))
    return np.concatenate([x, height], axis=-1)


@pytest.mark.parametrize("domain, seed", [
    ((0.5, 2.5, 0.5, 2.5), None),
    ((0.5, 2.5, 0.5, 2.5), (0.5, 0.5)),
    ((0.5, 2.5, 0.5, 2.5), (2.5, 2.5)),
    ((0.5, 2.5, 0.5, 2.5), (0.5, 2.5)),
    ((-3.0, 3.0, -3.0, 3.0), None),  # singular nodes: the sums carry NaN
])
def test_weierstrass_sums_match_the_loop_reference(domain, seed):
    dp = derive_params(ModuliPoint(0, -0.25, -0.25), a=0.0)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    field = field_from_source(source, GridSpec(*domain, 31, 31))
    frame = integrate_frame(field, seed=seed)
    mesh = weierstrass_flat(frame)
    want = weierstrass_loop_reference(field, frame)
    assert mesh.ambient_vertices[mesh.valid].tobytes() == want[mesh.valid].tobytes()
    # flat_route_gap reads x1 and x2, which are not finite at invalid nodes
    assert (~np.isfinite(mesh.ambient_vertices[~mesh.valid][:, :2])).any(axis=-1).all()


def test_weierstrass_trivial_plane_first_component_vanishes(flat_trivial_frame):
    # data G = 1 kills the first coordinate; the image is a vertical plane
    field, frame = flat_trivial_frame
    mesh = weierstrass_flat(frame)
    assert np.nanmax(np.abs(mesh.ambient_vertices[..., 0])) <= 1e-14
    spans = mesh.ambient_vertices[..., 1]
    assert np.nanmax(np.abs(spans - spans[:1, :])) <= 1e-14


@pytest.mark.parametrize("nx,ny", [(2, 9), (9, 2)])
def test_weierstrass_route_needs_three_nodes_per_axis(nx, ny):
    # both the mesh and the route gap refuse before any work
    dp = derive_params(ModuliPoint(0, -0.25, -0.25), a=0.0)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    frame = integrate_frame(field_from_source(source, GridSpec(0.5, 2.5, 0.5, 2.5, nx, ny)))
    for route in (weierstrass_flat, flat_route_gap):
        with pytest.raises(TooFewNodes, match=f"at least 3x3 nodes, got {nx}x{ny}"):
            route(frame)


@pytest.mark.parametrize("grid", [
    # the lattice of 261 rows over [-2, -0.79...] is unevenly spaced in its
    # last bits: the residual takes the grid's spacing, not the lattice's
    GridSpec(0.5, 2.5, -2.0, -0.7932398007551105, 1001, 261),
    GridSpec(0.0, 1.0, 0.0, 1.0, 33, 33),  # evenly spaced, h = 1/32
], ids=["uneven", "even"])
def test_cauchy_riemann_residual_is_the_whole_grid_gradient(grid):
    # the header's residual is taken one row block at a time, with the bits
    # of np.gradient over the whole grid at its spacing; the residual peaks
    # in the last block
    xs, ys = grid.xs, grid.ys
    *_, (_, slab, _) = row_blocks(grid, 1)
    bump = np.exp(-(((ys - ys[(slab.start + slab.stop) // 2]) / (3.0 * grid.hy)) ** 2))[:, None]
    omega, psi = bump * np.sin(3.0 * ys)[:, None] + 0.0 * xs, bump * np.cos(xs)
    field = OmegaField(grid=grid, c0=0.0, omega=omega, provenance="test")
    frame = FrameField(psi=psi, u=np.zeros((grid.ny, grid.nx, 2)), seed=(0, 0), field=field)
    wy, wx = np.gradient(omega, grid.hy, grid.hx)
    py, px = np.gradient(psi, grid.hy, grid.hx)
    want = np.nanmax(np.fmax(np.abs(wx - py), np.abs(wy + px))[1:-1, 1:-1])
    assert immersion._cauchy_riemann_linf(frame) == want


def test_weierstrass_mesh_holds_its_vertices_alone():
    # the one-form is integrated a row block at a time into the vertex
    # array, and the writer derives quads and leaves from valid as it goes
    # and keeps no text from one row to the next: 2.24x the vertex bytes at
    # the mesh's peak and 1.19x while writing
    dp = derive_params(ModuliPoint(0, -0.25, -0.25), a=0.0)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    frame = integrate_frame(field_from_source(source, GridSpec(0.5, 2.5, 0.5, 2.5, 201, 201)))
    assert frame.valid.all()
    tracemalloc.start()
    try:
        mesh = weierstrass_flat(frame)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in obj_chunks(mesh):
            pass
        writer_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x_bytes = mesh.ambient_vertices.nbytes
    assert held <= 1.1 * x_bytes
    assert peak <= 3.5 * x_bytes
    assert writer_peak <= 1.5 * x_bytes


def test_onduloid_mesh_and_writer_store_no_quads():
    # build_mesh holds no vertex array (the chart vertices are the frame's
    # own u, and the writer lifts each row as it writes it): 0.05 of the
    # frame's psi and u bytes after build_mesh and 0.25 while writing; the
    # writer's transient memory stays under a quarter of a (faces x 4)
    # int64 array: no such array is built
    grid = GridSpec(0, 2, 0, 2, 201, 201)
    frame = integrate_frame(reconstructed(1, 0, -0.25, grid, trivial_f=True), seed=(0, 1.48))
    assert frame.valid.all()
    tracemalloc.start()
    try:
        mesh = build_mesh(frame)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in obj_chunks(mesh):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ny, nx = mesh.valid.shape
    quad_bytes = 4 * 8 * (ny - 1) * (nx - 1)
    frame_bytes = frame.psi.nbytes + frame.u.nbytes
    assert held <= 0.1 * frame_bytes
    assert peak <= 0.5 * frame_bytes
    assert peak - held <= 0.25 * quad_bytes


#: (c0, c, d), grid, trivial F, seed: one mesh at each kind of chart scale
CHART_CASES = [
    ((-4.0, -4.0, -4.0), GridSpec(0, 0.5, 0, 0.5, 41, 41), False, None),
    ((-1.0, -1.0, 1.0), GridSpec(-2, 2, -2, 2, 81, 81), False, None),  # the disk edge
    ((0.0, -0.25, -0.25), GridSpec(0.5, 2.5, 0.5, 2.5, 41, 41), False, None),
    ((0.25, -0.0625, -0.0625), GridSpec(0, 4, 0, 4, 41, 41), False, None),
    ((1.0, 0.0, -0.25), GridSpec(0, 3, 0, 2, 31, 21), True, (0, 1.48)),  # the onduloid
]


@pytest.mark.parametrize("point, grid, trivial_f, seed", CHART_CASES,
                         ids=["c0=-4", "disk-edge", "plane", "c0=1/4", "sphere-onduloid"])
def test_chart_point_is_a_closed_function_of_v(point, grid, trivial_f, seed):
    # the OBJ writes no chart point: u = sigma (X_a, X_b) / (1 + q X_w), with
    # w the model's axis, recovers it from each v record, bit for bit on the
    # plane, where v = (u1, u2, y), and to the rounding of the lift elsewhere
    frame = integrate_frame(reconstructed(*point, grid, trivial_f=trivial_f), seed=seed)
    text = "".join(obj_chunks(build_mesh(frame)))
    assert not any(line.startswith("vt ") for line in text.splitlines())
    x = np.array([line.split()[1:-1] for line in text.splitlines() if line.startswith("v ")],
                 dtype=float)
    u, c0 = frame.u[frame.valid], point[0]
    if c0 == 0:
        assert x.tobytes() == u.tobytes()
        return
    q = math.sqrt(abs(c0))
    w, a, b = (0, 1, 2) if c0 < 0 else (2, 0, 1)
    got = x[:, [a, b]] / (1.0 + q * x[:, w])[:, None]
    unit = (np.finfo(float).eps * (1.0 + q * np.abs(x).max(axis=1))
            * np.fmax(1.0, np.hypot(*u.T)))
    assert (np.abs(got - u).max(axis=1) <= 16.0 * unit).all()


def test_march_stops_a_nan_start_lane_alone():
    # NaN is the one stop signal: a lane that starts at NaN stays NaN, and
    # the finite lanes beside it march bit for bit as they do alone
    field = reconstructed(1, -1, -1, GridSpec(0, 1, 0, 1, 21, 15))
    space, xs, lanes = SPHERE, field.grid.xs, field.grid.ys[:4]
    psi0, u0 = np.array([0.1, np.nan, 0.2, 0.3]), np.array([0.0, np.nan, -0.1, 0.05])
    state = np.stack(immersion._march(field.source, space, "x", lanes, xs, 3, psi0, u0, -u0))
    assert np.isnan(state[:, :, 1]).all()
    keep = [0, 2, 3]
    alone = np.stack(immersion._march(field.source, space, "x", lanes[keep], xs, 3,
                                      psi0[keep], u0[keep], -u0[keep]))
    assert np.isfinite(alone).all()
    assert state[:, :, keep].tobytes() == alone.tobytes()


def test_weierstrass_rejects_curved(sphere_pair):
    field, frame = sphere_pair
    with pytest.raises(NotFlat):
        weierstrass_flat(frame)


def test_holonomy_for_flat_plane_is_pure_translation(flat_trivial_frame):
    # x-advance slides the plane along itself: no rotation part, zero residual
    field, _ = flat_trivial_frame
    report = holonomy(field, 0.5, seed=(0.0, 0.0))
    assert report.kind == "translation"
    assert report.angle_or_length == pytest.approx(0.5, abs=1e-12)
    assert report.residual <= 1e-12


def test_holonomy_rotation_for_onduloid():
    dp = derive_params(ModuliPoint(1, 0, -0.25))
    t_g = profile_period(dp, "G")
    grid = GridSpec(0, 3, 0, 2, 151, 101)
    field = reconstructed(1, 0, -0.25, grid, trivial_f=True)
    seed = (0.0, t_g / 4)
    frame = integrate_frame(field, seed=seed)
    rep1 = holonomy(field, 1.0, seed=seed)
    rep2 = holonomy(field, 2.0, seed=seed)
    assert rep1.kind == "rotation"
    assert rep1.residual <= 1e-6
    assert rep2.angle_or_length == pytest.approx(2 * rep1.angle_or_length, rel=1e-6)
    # independent oracle: meridian columns project onto great circles whose
    # planes meet at the rotation angle per unit conformal time
    i0, j0 = frame.seed
    normals = []
    for i in (i0, i0 + 25):
        pts = frame.u[frame.valid[:, i], i, :]
        lifted = SPHERE.lift(pts[:, 0], pts[:, 1])
        _, _, vt = np.linalg.svd(lifted, full_matrices=False)
        normals.append(vt[-1])
    angle = math.acos(min(1.0, abs(float(np.dot(normals[0], normals[1])))))
    speed = angle / (grid.xs[i0 + 25] - grid.xs[i0])
    assert rep1.angle_or_length == pytest.approx(speed, abs=1e-6)


def test_holonomy_closes_region_one_annulus():
    dp = derive_params(ModuliPoint(-1, -1, 1))
    t_f = profile_period(dp, "F")
    gsol_probe = integrate_profile(dp, "G", (0, 3), 1e-3)
    ys = np.linspace(0, 3, 400)
    g, _ = gsol_probe.fn.eval_many(ys)
    band = ys[g**2 > 1.3]
    y0, y1 = band.min() + 0.05, band.max() - 0.05
    grid = GridSpec(0, t_f + 1.5, y0, y1, 161, 81)
    field = reconstructed(-1, -1, 1, grid)
    report = holonomy(field, t_f)
    assert report.kind == "identity"
    assert report.residual <= 1e-6


@pytest.mark.parametrize("c0, c, d, domain, nx, ny, period, seed", [
    (1, -1, -1, (0, 1, 0, 1), 61, 21, 0.37, None),
    (-1, -1, 1, (0, 6, 0.98, 1.99), 241, 121, 1.3, None),
    # the oracle's frame starts off the chart origin, at the (x, y, psi, u) of
    # the case: the holonomy takes no frame
    (-1, -1, 1, (0, 6, 0.98, 1.99), 241, 121, 1.3, (2.0, 1.5, 0.4, (0.3, -0.2))),
])
def test_holonomy_matches_rk4_frame_oracle(c0, c, d, domain, nx, ny, period, seed):
    # the angle reference marches the frame along the seed row at a quarter of
    # the grid step, through every base and target, and lifts each state to
    # its model frame; the residual reference is the spread of the period
    # arclengths by composite Simpson quadrature
    dp = derive_params(ModuliPoint(c0, c, d))
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    field = field_from_source(source, GridSpec(*domain, nx, ny))
    point, psi0, u0 = (None, 0.0, (0.0, 0.0)) if seed is None else (seed[:2], *seed[2:])
    report = holonomy(field, period, seed=point)
    space, grid = ChartSpace(c0), field.grid
    i0, j0 = immersion._seed_node(field, point)
    assert not field.mask[j0].any()
    bases = [x for x in grid.xs if x + period <= grid.x1 + 1e-12]
    bases = np.array(bases[:: max(1, len(bases) // 8)])
    nodes = np.union1d(np.linspace(grid.x0, grid.x1, 4 * nx - 3), [*bases, *(bases + period)])
    psi, u1, u2 = immersion._march(
        source, space, "x", grid.ys[j0:j0 + 1], nodes, int(np.searchsorted(nodes, grid.xs[i0])),
        np.array([psi0]), np.array([u0[0]]), np.array([u0[1]]),
    )
    assert np.isfinite(psi).all()

    def frame_at(x):
        k = int(np.searchsorted(nodes, x))
        return immersion._frame_matrix(space, u1[k, 0], u2[k, 0], psi[k, 0])

    iso = frame_at(bases[0] + period) @ np.linalg.inv(frame_at(bases[0]))
    lengths = _simpson_lengths(source, bases, period, grid.ys[j0])
    assert report.kind == "rotation"
    assert report.angle_or_length == pytest.approx(math.acos((np.trace(iso) - 1) / 2), abs=1e-8)
    assert report.residual == pytest.approx(np.max(np.abs(lengths - lengths[0])), abs=1e-8)


def _simpson_lengths(source, bases, period, y, panels=4096):
    """The integral of cosh(omega) over [x, x + period] on the row y, for each
    base x, by composite Simpson quadrature."""
    xs = bases[:, None] + np.linspace(0.0, period, 2 * panels + 1)
    weights = np.ones(2 * panels + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    cosh = source.eval_bc(xs, np.full_like(xs, y)).cosh
    return cosh @ weights * period / (6 * panels)


@pytest.mark.parametrize("c0, c, d, domain, nx, ny, period", [
    (1, -1, -1, (0, 1, 0, 1), 61, 21, 0.37),
    (-1, -1, 1, (0, 6, 0.98, 1.99), 241, 121, 1.3),
])
def test_holonomy_does_not_depend_on_the_seed_column(c0, c, d, domain, nx, ny, period):
    # the isometry is conjugate to the leaf motion whatever node of the row
    # the seed is: every seed on a row with no singular cell gives one report
    dp = derive_params(ModuliPoint(c0, c, d))
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    field = field_from_source(source, GridSpec(*domain, nx, ny))
    j = ny // 3
    assert not field.mask[j].any()
    y = field.grid.ys[j]
    reports = {holonomy(field, period, seed=(x, y)) for x in field.grid.xs}
    assert len(reports) == 1


def test_holonomy_far_hyperbolic_row_residual_is_a_length():
    # every row of (-1, -0.5, 0.5) over [-0.4, 0.4] meets a pole of omega,
    # where f^2 = -c0 - g^2 and the arclength diverges: it is refused
    dp = derive_params(ModuliPoint(-1, -0.5, 0.5))
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    with pytest.raises(SingularCrossing, match="meets a pole"):
        holonomy(field_from_source(source, GridSpec(0, 4, -0.4, 0.4, 81, 41)), 0.7, seed=(0.5, 0.1))
    # on a steep pole-free row (g^2 ~ 1.003) cosh(omega) peaks near 470,
    # which the grid's quadrature does not resolve: the residual is still a
    # spread of the period arclengths, never larger than the longest of them
    field = field_from_source(source, GridSpec(0, 4, 1.0, 1.2, 81, 41))
    report = holonomy(field, 0.7, seed=(0.5, 1.1246))
    assert report.kind == "rotation"
    _, j0 = immersion._seed_node(field, (0.5, 1.1246))
    assert not field.mask[j0].any()
    xs, y = field.grid.xs, field.grid.ys[j0]
    bases = np.flatnonzero(xs + 0.7 <= xs[-1] + 1e-12)
    ends = np.searchsorted(xs, xs[bases] + 0.7, side="right") - 1
    # the arclength over [x_b, x_b + period]: the grid cells, then the last part
    longest = max(
        immersion._row_lengths(source, np.r_[xs[b:e], xs[e]], np.r_[xs[b + 1:e + 1], xs[b] + 0.7],
                               [y])[0].sum()
        for b, e in zip(bases, ends)
    )
    assert math.isfinite(report.residual)
    assert report.residual <= longest


def test_holonomy_refuses_poles_but_not_removable_zeros():
    # at (-1, -0.5, -0.3) the row y = 0 has c0 + f^2 + g^2 = 0 where f^2 = 1,
    # and there f' = +-g'(0) with g'(0) > 0.  Over [1.7, 5.0], inside
    # (T/4, 3T/4) of the f-period T, f' < 0 at every zero: each is removable
    # and omega stays bounded.  Over [5.1, 8.2] f' > 0 at the zeros: poles.
    dp = derive_params(ModuliPoint(-1, -0.5, -0.3))
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    t = source.ffn.period
    assert t / 4 < 1.7 and 5.0 < 3 * t / 4
    assert source.gfn.eval_many(0.0)[1] > 0
    removable = field_from_source(source, GridSpec(1.7, 5.0, -0.3, 0.3, 81, 41))
    sinh = source.eval_bc(np.linspace(1.7, 5.0, 100001), 0.0).sinh
    assert np.all(np.abs(sinh) < 3)
    report = holonomy(removable, 3.0, seed=(3.0, 0.0))
    assert report.kind == "translation" and math.isfinite(report.residual)
    sinh = source.eval_bc(np.linspace(5.1, 8.2, 100001), 0.0).sinh
    assert np.nanmax(np.abs(sinh)) > 1e4
    with pytest.raises(SingularCrossing, match="meets a pole"):
        holonomy(field_from_source(source, GridSpec(5.1, 8.2, -0.3, 0.3, 81, 41)), 3.0,
                 seed=(6.0, 0.0))


@settings(max_examples=30)
@given(st.sampled_from([-1.0, 1.0]), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_holonomy_over_natural_period_is_identity(c0, c_size, d_size):
    # AnnulusFamily (c0 = -1, c < 0 < d) and RiemannTypeS2 (c0 = 1, c, d < 0):
    # on a row with g^2 + c0 > 0 the leaf is a circle closing after one F-period
    c, d = -c_size, (d_size if c0 < 0 else -d_size)
    dp = derive_params(ModuliPoint(c0, c, d))
    t_f, t_g = profile_period(dp, "F"), profile_period(dp, "G")
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    ys = np.linspace(0.0, t_g, 65)
    y0 = float(ys[np.argmax(source.gfn.eval_many(ys)[0] ** 2)])
    assert source.gfn.eval_many(y0)[0] ** 2 + c0 > 0
    field = field_from_source(source, GridSpec(0.0, 1.25 * t_f, y0 - 0.01, y0 + 0.01, 81, 3))
    assert not field.mask[1].any()
    report = holonomy(field, t_f, seed=(0.0, y0))
    assert report.kind == "identity"
    assert report.residual <= 1e-9


@pytest.mark.parametrize("period, kind", [(0.3, "parabolic"), (4e-7, "identity")])
def test_holonomy_near_a_horocycle_keeps_its_type_under_dilatation(period, kind):
    # k^2 + c0 = -5e-13 at c0 = -1, within HOROCYCLE_TOL of a horocycle; the
    # dilatation by s to c0 = -s^2 scales k^2 + c0 by s^2 and the period
    # arclength by 1/s, and does not move the type
    beta = math.sqrt(1.0 - 5e-13)
    alpha = math.sqrt(1.0 - beta * beta)
    for k in (-2, -1, 0, 1, 2):
        s = 2.0**k
        grid = GridSpec(-0.5 / s, 0.5 / s, -0.5 / s, 0.5 / s, 41, 41)
        field = assemble_omega_degenerate(alpha * s, beta * s, grid, -s * s)
        report = holonomy(field, period / s, seed=(0.0, 0.0))
        assert report.kind == kind, s
        assert report.angle_or_length * s == pytest.approx(period, rel=1e-9)
        assert report.residual * s <= 1e-12


@pytest.mark.parametrize("alpha2", [2e-12, 1e-11])
def test_holonomy_near_a_horocycle_that_moves_the_seed_is_not_closed(alpha2):
    # k^2 + c0 = -alpha^2 at c0 = -1, just beyond HOROCYCLE_TOL: the rapidity
    # over the period is below 1e-6, yet the isometry moves the seed point by
    # about the period arclength 0.3
    beta = math.sqrt(1.0 - alpha2)
    alpha = math.sqrt(1.0 - beta * beta)
    field = assemble_omega_degenerate(alpha, beta, GridSpec(-0.5, 0.5, -0.5, 0.5, 41, 41), -1.0)
    report = holonomy(field, 0.3, seed=(0.0, 0.0))
    assert report.angle_or_length < 1e-6 and report.residual < 1e-6
    assert report.kind == "translation"


#: (key, defect, (period in T_F, seed row in T_G) of the reference run and of
#: the defective one, least change): each key of the holonomy document moves
#: under a named defect of its input.  On (-1, -1, 1) every circle row closes
#: over T_F: the reference with the natural period reads (identity, 0, 9e-16).
HOLONOMY_DEFECTS = [
    ("type", "a period 10% short", (1.0, 0.5), (0.9, 0.5), None),
    ("angle_or_length", "a period 10% short", (1.0, 0.5), (0.9, 0.5), 0.5),
    ("angle_or_length", "the seed on another row", (0.9, 0.5), (0.9, 0.35), 0.3),
    ("residual", "a period 10% short", (1.0, 0.5), (0.9, 0.5), 0.05),
    ("residual", "the seed on another row", (0.9, 0.5), (0.9, 0.35), 0.5),
]


@pytest.mark.parametrize("key, defect, reference, defective, change", HOLONOMY_DEFECTS,
                         ids=[f"{key}-{defect}" for key, defect, *_ in HOLONOMY_DEFECTS])
def test_each_holonomy_key_moves_under_a_defect(key, defect, reference, defective, change):
    # the type, the value and the residual can each fail, so each stays in the
    # document; no key there only repeats another
    dp = derive_params(ModuliPoint(-1, -1, 1))
    t_f, t_g = profile_period(dp, "F"), profile_period(dp, "G")
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    field = field_from_source(source, GridSpec(0.0, 1.5 * t_f, 0.3 * t_g, 0.7 * t_g, 121, 41))
    good, bad = (holonomy(field, period * t_f, seed=(0.0, row * t_g)).document()
                 for period, row in (reference, defective))
    assert set(good) == set(bad) == {"type", "angle_or_length", "residual"}
    if change is None:
        assert (good[key], bad[key]) == ("identity", "rotation")
    else:
        assert abs(bad[key] - good[key]) > change


def test_holonomy_requires_period(flat_trivial_frame):
    field, _ = flat_trivial_frame
    with pytest.raises(PeriodUnavailable):
        holonomy(field, None)
    with pytest.raises(PeriodUnavailable):
        holonomy(field, 5.0)  # domain shorter than the period


def test_gamma_axis_rotation_speed():
    # constant-profile family at c = d = 1/4: along the axis line
    # alpha x + beta y = 0 the frame angle advances at rate 1/alpha in y
    alpha = beta = math.sqrt(0.5)
    n = 161
    grid = GridSpec(-0.4, 0.4, -0.4, 0.4, n, n)
    field = assemble_omega_degenerate(alpha, beta, grid)
    frame = integrate_frame(field, seed=(0.0, 0.0))
    diag_psi = np.array([frame.psi[j, n - 1 - j] for j in range(n)])
    mid = n // 2
    dpsi_dy = (diag_psi[mid + 1] - diag_psi[mid - 1]) / (grid.ys[mid + 1] - grid.ys[mid - 1])
    assert abs(dpsi_dy) == pytest.approx(1.0 / alpha, abs=1e-4)


def test_frame_compat_small(sphere_pair):
    field, frame = sphere_pair
    assert rk4_row_gap(frame) <= 1e-6


class CountingSource:
    """Delegates to a field source and counts its eval_bc calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def eval_bc(self, x, y):
        self.calls += 1
        return self.inner.eval_bc(x, y)


def test_only_the_row_oracle_marches(monkeypatch, tmp_path):
    marches = []
    march = immersion._march

    def counted(src, space, direction, lanes, t_nodes, *rest):
        marches.append((direction, len(lanes), len(t_nodes) - 1))
        return march(src, space, direction, lanes, t_nodes, *rest)

    monkeypatch.setattr(immersion, "_march", counted)
    field = reconstructed(1, -1, -1, GridSpec(0, 1, 0, 1, 21, 15))
    source = CountingSource(field.source)
    integrate_frame(replace(field, source=source))
    assert marches == []
    # the column: one evaluation at its grid and Gauss nodes; the rows: one
    # quadrature evaluation per row block
    assert source.calls == 1 + 1

    grid = ["--c0", "1", "--c", "-1", "--d", "-1", "--domain", "0", "1", "0", "1",
            "--nx", "21", "--ny", "15"]
    assert main(["mesh", *grid, "--out", str(tmp_path / "m.obj")]) == 0
    assert marches == []
    # only the RK4 row oracle of verify --immersion marches, along x
    assert main(["field", *grid, "--out", str(tmp_path / "f.json")]) == 0
    assert main(["verify", "--input", str(tmp_path / "f.json"), "--immersion",
                 "--out", str(tmp_path / "v.json")]) == 0
    assert marches == [("x", 15, 20)]


def _regular_field(c0, c_size, d_size, a, nx=33, ny=33):
    """Field of a drawn point on a box of side 0.5 around its smallest |omega|."""
    c, d = -c_size, (d_size if c0 < 0 else -d_size if c0 > 0 else -c_size)
    dp = derive_params(ModuliPoint(c0, c, d), a if c0 == 0 else None)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    probe = GridSpec(-2, 2, -2, 2, 41, 41)
    omega = source.eval_grid(probe.xs, probe.ys).omega  # NaN on D
    j, i = np.unravel_index(np.nanargmin(np.abs(omega)), omega.shape)
    x0, y0 = float(probe.xs[i]), float(probe.ys[j])
    return field_from_source(source, GridSpec(x0 - 0.25, x0 + 0.25, y0 - 0.25, y0 + 0.25, nx, ny))


@settings(max_examples=12)
@given(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(0.05, 2.0), st.floats(0.05, 2.0),
       st.floats(-1.0, 1.0), st.floats(0.5, 3.0), st.floats(0.1, 0.5), st.floats(-0.5, -0.1))
def test_magnus_column_matches_rk4_column(c0, c_size, d_size, a, psi0, u1, u2):
    space = ChartSpace(c0)

    # the column starts off the chart origin, at (u1, u2) and angle psi0
    m0 = immersion._frame_matrix(space, u1, u2, psi0)

    def column_gap(ny):
        field = _regular_field(c0, c_size, d_size, a, nx=5, ny=ny)
        assert not field.mask.any()
        grid = field.grid
        j0 = (ny - 1) // 5  # the same y at both steps
        m, (c1, c2, cpsi), _ = immersion._seed_column(
            field.source, space, grid.xs[2], grid.ys, j0, m0
        )
        psi, v1, v2 = immersion._march(
            field.source, space, "y", grid.xs[2:3], grid.ys, j0,
            np.array([psi0]), np.array([u1]), np.array([u2]),
        )
        assert np.isfinite(psi).all() and np.isfinite(cpsi).all()
        turn = np.abs(np.angle(np.exp(1j * (psi[:, 0] - cpsi)))).max()
        return m, max(turn, np.abs(v1[:, 0] - c1).max(), np.abs(v2[:, 0] - c2).max())

    m, fine = column_gap(101)
    _, coarse = column_gap(51)
    assert fine <= 1e-8
    # both routes are fourth order: their gap falls by about 16 per halving
    assert coarse >= 8.0 * fine

    # the Magnus frames stay in the isometry group of the model
    form = MODEL_FORMS[c0]
    gram = np.transpose(m, (0, 2, 1)) @ form @ m
    seed_gram = m0.T @ form @ m0
    if c0 == 0:
        gram, seed_gram = gram[:, :2, :2], seed_gram[:2, :2]
        assert np.abs(m[:, 2] - [0.0, 0.0, 1.0]).max() <= 1e-12
    assert np.abs(gram - seed_gram).max() <= 1e-12


@settings(max_examples=12)
@given(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(0.05, 2.0), st.floats(0.05, 2.0),
       st.floats(-1.0, 1.0))
def test_closed_form_rows_match_rk4_rows(c0, c_size, d_size, a):
    field = _regular_field(c0, c_size, d_size, a)
    assert not field.mask.any()
    frame = integrate_frame(field)
    assert frame.valid.all()
    assert_frame_record(frame, field)
    assert rk4_row_gap(frame) <= 1e-6
    if c0 == 0:
        # a leaf of the plane is a circle or line: its angle turns at the rate k
        i0 = frame.seed[0]
        xs, ys = field.grid.xs, field.grid.ys
        lengths, _ = immersion._row_lengths(field.source, xs[:-1], xs[1:], ys)
        arc = np.concatenate([np.zeros((len(ys), 1)), np.cumsum(lengths, axis=1)], axis=1)
        k = field.source.eval_bc(xs[i0], ys).g
        turned = frame.psi[:, i0:i0 + 1] + k[:, None] * (arc - arc[:, i0:i0 + 1])
        assert np.abs(frame.psi - turned).max() <= 1e-13


def _flatness(points, c0):
    """Smallest singular value of a curve's model points relative to the
    largest: 0 on a plane through the origin.  On the plane (c0 = 0) the
    chart points are centred, so it is 0 on a line."""
    pts = points[:, :2] - points[:, :2].mean(axis=0) if c0 == 0 else points[:, :3]
    sv = np.linalg.svd(pts, compute_uv=False)
    return sv[-1] / sv[0]


@pytest.mark.parametrize("c0, c, d, a, domain", [
    (1, -1, -1, None, (-1, 3, -1, 3)),
    (1, -0.3, -0.7, None, (-1, 3, -1, 3)),
    (-1, -1, 1, None, (-0.5, 0.5, -0.5, 0.5)),
    (0, -0.5, -0.5, 0.3, (-1, 3, 0.5, 2.5)),
])
def test_symmetry_curves_are_planar(c0, c, d, a, domain):
    # where f(x0) = 0 the column x0 lies in a vertical plane (gamma x R, gamma
    # a geodesic): planar at order 4, with the seed off the column; where
    # g(y0) = 0 the row y0 is a horizontal geodesic, exactly (k = g(y0) = 0).
    # A column and a row off the zeros are the controls
    dp = derive_params(ModuliPoint(c0, c, d), a)
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    x0, x1, y0, y1 = domain
    column, controls = [], []
    for n in (41, 81):
        field = field_from_source(source, GridSpec(*domain, n, n))
        xs, ys = field.grid.xs, field.grid.ys
        frame = integrate_frame(field, seed=(x0 + 0.75 * (x1 - x0), 0.5 * (y0 + y1)))
        v = build_mesh(frame).ambient_vertices
        i, j = int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys)))
        ic = int(np.argmin(np.abs(xs - x0 - 0.425 * (x1 - x0))))
        jc = int(np.argmin(np.abs(ys - y0 - 0.425 * (y1 - y0))))
        assert xs[i] == 0 and frame.valid[:, [i, ic]].all() and frame.valid[jc].all()
        column.append(_flatness(v[:, i], c0))
        controls.append([_flatness(v[:, ic], c0), _flatness(v[jc], c0)])
        if c0 == 1:  # g(0) = 0: the row y = 0, seeded off it and on it (the default)
            assert ys[j] == 0
            assert _flatness(v[j], c0) <= 1e-14
            assert _flatness(build_mesh(integrate_frame(field)).ambient_vertices[j], c0) <= 1e-14
    assert column[0] >= 12 * column[1]
    assert column[0] <= 1e-7
    assert np.min(controls) >= 1e-3
    assert np.all(np.array(controls[1]) >= 0.5 * np.array(controls[0]))


def _reference_runs(valid):
    runs = []
    for j, row in enumerate(valid):
        run = []
        for i, ok in enumerate(row):
            if ok:
                run.append(j * valid.shape[1] + i)
                continue
            if len(run) > 1:
                runs.append(tuple(run))
            run = []
        if len(run) > 1:
            runs.append(tuple(run))
    return tuple(runs)


@pytest.mark.parametrize("density", [0.0, 0.3, 0.6, 0.9, 1.0])
def test_foliation_runs_match_reference_loop(density):
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (1, 6), (7, 1), (2, 2), (9, 13), (30, 41)]:
        valid = rng.random(shape) < density
        nx = shape[1]
        runs = tuple(
            tuple(range(j * nx + a, j * nx + b))
            for j, row in enumerate(valid)
            for a, b in zip(*(ends.tolist() for ends in immersion._leaf_runs(row)))
        )
        assert runs == _reference_runs(valid)


def _cli_products(tmp_path, point, side, n=41):
    """(field document, verify --immersion report, mesh v records, holonomy
    report over half the side) of a point on [0, side]^2 at n^2 nodes."""
    c0, c, d = point
    argv = ["--c0", repr(c0), "--c", repr(c), "--d", repr(d), "--domain", "0", repr(side),
            "0", repr(side), "--nx", str(n), "--ny", str(n)]
    field, report, mesh, hol = (tmp_path / name for name in ("f.json", "v.json", "m.obj", "h.json"))
    assert main(["field", *argv, "--out", str(field)]) == 0
    assert main(["verify", "--input", str(field), "--immersion", "--out", str(report)]) == 0
    assert main(["mesh", *argv, "--out", str(mesh)]) == 0
    assert main(["holonomy", *argv, "--period", repr(side / 2), "--out", str(hol)]) == 0
    v = [line.split()[1:4] for line in mesh.read_text().splitlines() if line.startswith("v ")]
    return (json.loads(field.read_text()), json.loads(report.read_text()),
            np.array(v, dtype=float), json.loads(hol.read_text()))


@pytest.fixture(scope="module")
def dilatation_bases(tmp_path_factory):
    bases = {}
    for point in ((1.0, -1.0, -1.0), (-1.0, -0.25, -0.25)):
        bases[point] = _cli_products(tmp_path_factory.mktemp("base"), point, 1.0)
    return bases


@pytest.mark.parametrize("k", [-1, 1, 2])
@pytest.mark.parametrize("base", [(1.0, -1.0, -1.0), (-1.0, -0.25, -0.25)], ids=["sphere", "hyperboloid"])
def test_dilatation_moves_no_figure(tmp_path, dilatation_bases, base, k):
    # (c0 s^2, c s^4, d s^4) on the domain divided by s is the same surface
    # scaled by 1/s: omega is the same, the conformality and Hopf residuals
    # and the holonomy's angle or rapidity are ratios of lengths, and the
    # harmonic and holonomy residuals scale as 1/length and length
    s = 2.0**k
    c0, c, d = base
    field, report, v, hol = _cli_products(tmp_path, (c0 * s * s, c * s**4, d * s**4), 1.0 / s)
    want_field, want, _, want_hol = dilatation_bases[base]
    assert field["omega"] == want_field["omega"] and field["mask"] == want_field["mask"]
    for key in ("isometry_linf", "hopf_real_err", "hopf_imag_err"):
        assert report[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)
    assert report["harmonic_linf"] == pytest.approx(s * want["harmonic_linf"], rel=1e-12, abs=0.0)
    if c0 > 0:
        assert report["isometry_linf"] < 1e-3
    assert hol["type"] == want_hol["type"] == ("rotation" if c0 > 0 else "translation")
    assert hol["angle_or_length"] == pytest.approx(want_hol["angle_or_length"], rel=1e-12, abs=0.0)
    assert hol["residual"] == pytest.approx(want_hol["residual"] / s, rel=1e-12, abs=0.0)
    # every vertex lies on the model quadric <p, p> = 1/c0
    form = MODEL_FORMS[c0]
    assert len(v) and np.abs(c0 * s * s * np.einsum("ni,ij,nj->n", v, form, v) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["sphere", "hyperboloid"])
def test_plane_is_the_two_sided_limit_of_the_curved_charts(sign):
    # (eps, d + a eps, d) has the separation constant a and tends to the
    # flat point (0, d, d) with that a, from S^2 x R (eps > 0) and from
    # H^2 x R (eps < 0): omega converges at O(eps), and the chart point as
    # 2u -> u(0), since sigma is 1 off the plane and 2 on it
    grid, d, a = GridSpec(0.2, 2.2, 0.3, 2.3, 81, 81), -0.25, 0.3

    def frame(c0):
        dp = derive_params(ModuliPoint(c0, d + a * c0, d), a)
        source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
        return integrate_frame(field_from_source(source, grid), seed=(1.2, 1.3))

    flat = frame(0.0)
    gaps = []
    for eps in (1e-3, 1e-4):
        curved = frame(sign * eps)
        assert curved.valid.all() and flat.valid.all()
        gaps.append([np.abs(curved.field.omega - flat.field.omega).max(),
                     np.abs(2.0 * curved.u - flat.u).max()])
    (omega3, u3), (omega4, u4) = gaps
    # 3.0e-2 -> 3.1e-3 in omega and 4.8e-2 -> 4.8e-3 in 2u, from both sides
    assert 8.0 <= omega3 / omega4 <= 12.0 and 8.0 <= u3 / u4 <= 12.0
    assert omega4 <= 4e-3 and u4 <= 6e-3


def _circle_centres(v):
    """Centre of the circle fitted to each row of points (x, y, ...) by
    algebraic least squares: x^2 + y^2 + D x + E y + F = 0."""
    x, y = v[..., 0], v[..., 1]
    rows = np.stack([x, y, np.ones_like(x)], axis=-1)
    coef = [np.linalg.lstsq(a, -(xx * xx + yy * yy), rcond=None)[0] for a, xx, yy in zip(rows, x, y)]
    return -0.5 * np.array(coef)[:, :2]


@pytest.mark.parametrize("c, a", [(-0.25, 0.3), (-0.5, 0.3), (-0.25, 0.6)])
def test_riemann_examples_drift_at_sqrt_minus_c_r_squared(c, a):
    # Riemann's law for the minimal surfaces of R^3 foliated by circles in
    # parallel planes: the centres move in one fixed direction at speed
    # lambda r^2 per unit height, here lambda = sqrt(-c) whatever a is.
    # Between two rows the centre steps by sqrt(-c) times the integral of
    # r^2 = 1 / g^2, taken by 8-point Gauss-Legendre on the G profile's
    # closed form; the law and the quadrature are nowhere in the frame code.
    # The gap is the Magnus column's error: order 4 from 81^2 to 161^2
    dp = derive_params(ModuliPoint(0, c, c), a)
    t_f, t_g = profile_period(dp, "F"), profile_period(dp, "G")
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    gaps = []
    for n in (81, 161):
        grid = GridSpec(0.0, t_f, 0.05 * t_g, 0.45 * t_g, n, n)
        mesh = build_mesh(integrate_frame(field_from_source(source, grid), seed=(0.3 * t_f, 0.25 * t_g)))
        assert mesh.valid.all()
        steps = np.diff(_circle_centres(mesh.ambient_vertices), axis=0) @ [1.0, 1j]
        half, mid = 0.5 * np.diff(grid.ys), 0.5 * (grid.ys[1:] + grid.ys[:-1])
        r2 = half * (source.gfn.eval_many(mid[:, None] + half[:, None] * nodes)[0] ** -2.0 @ weights)
        speed_gap = np.abs(np.abs(steps) / r2 - math.sqrt(-c)).max()
        turn = np.abs(np.angle(steps / steps[0])).max()
        gaps.append((speed_gap, turn))
    # (c, a) = (-0.25, 0.3): 8.1e-10 -> 5.1e-11 in speed, 3.3e-9 -> 2.1e-10 in direction
    (speed81, turn81), (speed161, turn161) = gaps
    assert speed81 <= 2e-9 and turn81 <= 1e-8
    assert 12.0 <= speed81 / speed161 <= 20.0 and 12.0 <= turn81 / turn161 <= 20.0


@pytest.mark.parametrize("c0", [1.0, 4.0])
@pytest.mark.parametrize("reach, placed", [(1e7, True), (1e9, False)])
def test_sphere_row_stops_where_the_chart_loses_its_digits(c0, reach, placed):
    # (c0, 0, -c0^2 / 4) with f = 0: the row y = 0 has k = g(0) = 0 and
    # sinh(omega) = 1/2, so it is a great circle through the seed at the chart
    # origin, whose arclength s = sqrt(5/4) x reaches the antipode at
    # q s = pi, and |u| q = tan(q s / 2).  The last node sits at |u| q =
    # ``reach``.  chart_state divides by 1 + q p_w, about 2 / (|u| q)^2: at
    # 1e7 that is 2e-14, some 200 rounding units of p_w, and the node is
    # placed, its model point right to 1e-9 / q; at 1e9 it is below one and
    # the row stops.  STEREO_GUARD = 1e8 lies between: below 1e7 it would
    # drop good nodes
    q, cosh = math.sqrt(c0), math.sqrt(1.25)
    dp = derive_params(ModuliPoint(c0, 0.0, -c0 * c0 / 4.0))
    source = ReconstructedSource(ProfileFunction(dp, "F", trivial=True), ProfileFunction(dp, "G"))
    x1 = 2.0 * math.atan(reach) / (q * cosh)
    frame = integrate_frame(field_from_source(source, GridSpec(0.0, x1, -0.1, 0.1, 9, 3)), seed=(0.0, 0.0))
    assert frame.valid[1, :-1].all() and frame.valid[1, -1] == placed
    if placed:
        assert np.hypot(*frame.u[1, -1]) * q == pytest.approx(reach, rel=1e-2)
        angle = q * cosh * x1
        exact = np.array([math.sin(angle), 0.0, math.cos(angle)]) / q
        assert np.abs(build_mesh(frame).ambient_vertices[1, -1, :3] - exact).max() <= 1e-9 / q
