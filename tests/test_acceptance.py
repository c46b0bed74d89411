"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (run with ``pytest -s`` to see them all);
a failed assertion marks the criterion red.  Tolerances are fixed here, not
configurable.
"""

import math

import numpy as np
import pytest

from foliata.field import (
    GridSpec,
    OmegaField,
    assemble_omega,
    assemble_omega_degenerate,
    sinh_gordon_residual,
    solve_sinh_gordon,
)
from foliata.immersion import (
    build_mesh,
    flat_route_gap,
    harmonic_residual,
    hopf_deviation,
    integrate_frame,
    isometry_check,
    mesh_row_curvature,
    rk4_row_gap,
)
from foliata.moduli import ModuliPoint, RegionLabel, classify, derive_params
from foliata.profile import integrate_profile, period_from_ode, profile_period
from foliata.shiffman import jacobi_residual, shiffman_field

EPS = np.finfo(float).eps

# independent oracle for criterion 3, frozen: 4 * int_0^1 dt / sqrt(1 - t^4)
LEMNISCATE_PERIOD = 5.2441151085842396


def _ok(n, msg):
    print(f"PASS criterion {n}: {msg}")


def reconstructed(c0, c, d, grid, a=None, trivial_f=False, trivial_g=False):
    dp = derive_params(ModuliPoint(c0, c, d), a)
    fsol = integrate_profile(dp, "F", (grid.x0, grid.x1), 1e-3, trivial=trivial_f)
    gsol = integrate_profile(dp, "G", (grid.y0, grid.y1), 1e-3, trivial=trivial_g)
    return assemble_omega(fsol, gsol, grid)


def test_criterion_1_moduli_algebra():
    rng = np.random.default_rng(20240817)
    checked = 0
    worst = 0.0
    while checked < 10_000:
        c, d = rng.uniform(-2.0, 2.0, size=2)
        dp = derive_params(ModuliPoint(-1, c, d))
        if dp.delta < 0:
            continue
        checked += 1
        worst = max(
            worst,
            abs(dp.xminus + dp.yplus - 1.0),
            abs(dp.xplus + dp.yminus - 1.0),
        )
    assert worst <= 8 * EPS

    labeled = [
        ((1, 0, -0.5), RegionLabel.ONDULOID_ROTATIONAL),
        ((1, -1, 0), RegionLabel.HELICOID_S2),
        ((-1, -1, 1), RegionLabel.ANNULUS_FAMILY),
        ((-1, 1, -1), RegionLabel.ONDULATED_HELICOID),
        ((-1, 1, 1), RegionLabel.OUTSIDE_MODULI),
        ((-1, -1, -1), RegionLabel.RIEMANN_FAMILY_H2),
    ]
    for point, expected in labeled:
        report = classify(ModuliPoint(*point))
        assert report.label is expected, (point, report.label)
    delta_11 = derive_params(ModuliPoint(-1, 1, 1)).delta
    assert delta_11 < 0
    _ok(1, f"root identities <= {worst/EPS:.1f} eps over 10^4 samples; labels match")


def test_criterion_2_ode_conservation():
    dp = derive_params(ModuliPoint(1, -1, 0))
    period = profile_period(dp, "F")
    span = (0.0, 10.0 * period)
    drift = integrate_profile(dp, "F", span, 1e-3).first_integral_drift
    drift_half = integrate_profile(dp, "F", span, 5e-4).first_integral_drift
    assert drift <= 1e-9
    assert drift >= 8.0 * drift_half
    _ok(2, f"drift {drift:.2e} <= 1e-9; halving ratio {drift/drift_half:.1f} >= 8")


def test_criterion_3_period():
    dp = derive_params(ModuliPoint(1, -1, 0))
    t_quad = profile_period(dp, "F")
    t_ode = period_from_ode(dp, "F")
    assert abs(t_quad - LEMNISCATE_PERIOD) <= 1e-5
    assert abs(t_quad - 5.24412) <= 1e-5
    assert abs(t_quad - t_ode) / t_quad <= 1e-8
    _ok(3, f"period {t_quad:.10f}; ODE agreement {abs(t_quad-t_ode)/t_quad:.2e}")


def test_criterion_4_sinh_gordon_refinement():
    ratios = {}
    for name, make in (
        ("reconstructed", lambda n: reconstructed(1, -1, -1, GridSpec(0, 1, 0, 1, n, n))),
        ("degenerate", lambda n: assemble_omega_degenerate(
            0.0, 1.0, GridSpec(-0.6, 0.6, -0.6, 0.6, n, n))),
    ):
        linf = [sinh_gordon_residual(make(n)).linf for n in (51, 101, 201)]
        r1, r2 = linf[0] / linf[1], linf[1] / linf[2]
        assert 3.5 <= r1 <= 4.5, (name, r1)
        assert 3.5 <= r2 <= 4.5, (name, r2)
        ratios[name] = (r1, r2)
    _ok(4, f"refinement ratios {ratios}")


def test_criterion_5_shiffman_vanishing():
    consts = []
    for n in (101, 201):
        grid = GridSpec(0, 1, 0, 1, n, n)
        field = reconstructed(1, -1, -1, grid)
        u = shiffman_field(field)
        consts.append(float(np.nanmax(np.abs(u))) / grid.hx**2)
    assert 0.5 <= consts[0] / consts[1] <= 2.0

    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, 11, 11)
    x, y = np.meshgrid(grid.xs, grid.ys)
    control = OmegaField(
        grid=grid, c0=1.0, omega=x * y, provenance="Synthetic",
    )
    u0 = shiffman_field(control)[5, 5]
    assert u0 == pytest.approx(1.0, abs=1e-12)
    _ok(5, f"max|u| = C h^2 with C in {{{consts[0]:.3f}, {consts[1]:.3f}}}; control u(0,0) = {u0}")


def test_criterion_6_jacobi_identity_refinement():
    dp = derive_params(ModuliPoint(-1, -0.25, -0.25))
    fsol = integrate_profile(dp, "F", (0, 1), 1e-3)
    gsol = integrate_profile(dp, "G", (0, 1), 1e-3)
    linf = []
    for n in (51, 101, 201):
        grid = GridSpec(0, 1, 0, 1, n, n)
        recon = assemble_omega(fsol, gsol, grid)
        boundary = recon.omega.copy()
        boundary[-1, :] += 0.1 * np.sin(np.pi * grid.xs) ** 3
        solved = solve_sinh_gordon(-1.0, grid, boundary)
        u = shiffman_field(solved)
        assert np.nanmax(np.abs(u)) > 1e-2  # genuinely 2-D, u does not vanish
        linf.append(jacobi_residual(solved, u, margin=0.1).linf)
    r1, r2 = linf[0] / linf[1], linf[1] / linf[2]
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5
    _ok(6, f"Jacobi residual ratios {r1:.2f}, {r2:.2f}")


def test_criterion_7_immersion_fidelity():
    iso, hre, him, harm, compat = [], [], [], [], []
    for n in (101, 201):
        grid = GridSpec(0, 1, 0, 1, n, n)
        field = reconstructed(1, -1, -1, grid)
        frame = integrate_frame(field)
        iso.append(isometry_check(frame).linf)
        re_err, im_err = hopf_deviation(frame)
        hre.append(re_err)
        him.append(im_err)
        harm.append(harmonic_residual(frame).linf)
        compat.append(rk4_row_gap(frame))
    assert iso[1] <= 1e-4 and hre[1] <= 1e-4 and him[1] <= 1e-4
    assert iso[0] / iso[1] >= 2.0 ** 1.5
    assert hre[0] / hre[1] >= 2.0 ** 1.5
    assert harm[0] / harm[1] == pytest.approx(4.0, abs=0.6)
    assert compat[1] <= 1e-6
    _ok(
        7,
        f"iso {iso[1]:.2e} hopf ({hre[1]:.2e}, {him[1]:.2e}) "
        f"orders ({math.log2(iso[0]/iso[1]):.2f}, {math.log2(harm[0]/harm[1]):.2f}) "
        f"compat {compat[1]:.2e}",
    )


def test_criterion_8_weierstrass_cross_method():
    grid = GridSpec(0.5, 2.5, 0.5, 2.5, 201, 201)
    field = reconstructed(0, -0.25, -0.25, grid, a=0.0)
    frame = integrate_frame(field)
    gap = flat_route_gap(frame)
    assert gap <= 1e-6
    _ok(8, f"Weierstrass vs frame gap {gap:.2e}")


def test_criterion_9_geometry_closure():
    # meshed horizontal-curve curvature reproduces the g profile at O(h)
    worst = []
    for n in (101, 201):
        grid = GridSpec(0, 2, 0, 2, n, n)
        field = reconstructed(1, 0, -0.25, grid, trivial_f=True)
        frame = integrate_frame(field)
        g_vals = field.source.gfn.eval_many(grid.ys)[0]
        errs = [
            float(np.nanmax(np.abs(mesh_row_curvature(frame, j)[2:-2] - g_vals[j])))
            for j in range(5, n - 5, max(1, n // 10))
        ]
        worst.append(max(errs))
    h = 2.0 / 100
    assert worst[0] <= 1.0 * h  # O(h) with a visible constant
    assert worst[0] / worst[1] >= 1.8  # shrinks at least linearly

    # constant-profile family: every horizontal curve is a horocycle, k = 1
    grid = GridSpec(-0.6, 0.6, -0.6, 0.6, 121, 121)
    field = assemble_omega_degenerate(0.0, 1.0, grid)
    data = field.source.eval_grid(grid.xs, grid.ys)
    k_h = -data.wy / data.cosh
    horo = float(np.nanmax(np.abs(k_h - 1.0)))
    assert horo <= 1e-6
    _ok(9, f"meshed curvature error {worst[0]:.2e} -> {worst[1]:.2e}; |k_h - 1| {horo:.2e}")


def test_criterion_10_ambient_lifts():
    grid = GridSpec(0, 2, 0, 2, 101, 101)
    field = reconstructed(1, 0, -0.25, grid, trivial_f=True)
    frame = integrate_frame(field)
    mesh = build_mesh(frame)
    pts = mesh.ambient_vertices[mesh.valid]
    sphere_err = float(np.abs((pts[:, :3] ** 2).sum(axis=1) - 1.0).max())
    assert sphere_err <= 1e-10

    dp = derive_params(ModuliPoint(-1, -1, 1))
    t_f = profile_period(dp, "F")
    probe = integrate_profile(dp, "G", (0, 3), 1e-3)
    ys = np.linspace(0, 3, 400)
    g, _ = probe.fn.eval_many(ys)
    band = ys[g**2 > 1.3]
    grid = GridSpec(0, t_f + 0.5, band.min() + 0.05, band.max() - 0.05, 121, 81)
    field = reconstructed(-1, -1, 1, grid)
    frame = integrate_frame(field)
    mesh = build_mesh(frame)
    pts = mesh.ambient_vertices[mesh.valid]
    hyper_err = float(np.abs(-pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2 + 1.0).max())
    assert hyper_err <= 1e-10
    _ok(10, f"sphere lift {sphere_err:.2e}; hyperboloid lift {hyper_err:.2e}")
