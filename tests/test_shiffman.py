import numpy as np
import pytest

from foliata.field import (
    GridSpec,
    OmegaField,
    assemble_omega,
    assemble_omega_degenerate,
    solve_sinh_gordon,
)
from foliata.moduli import ModuliPoint, derive_params
from foliata.profile import integrate_profile
from foliata.shiffman import (
    gauss_curvature,
    gauss_dual_route_linf,
    jacobi_potential,
    jacobi_residual,
    potential_identity_linf,
    shiffman_document,
    shiffman_field,
    shiffman_from_curvature,
)


def reconstructed(c0, c, d, n, span=(0, 1)):
    dp = derive_params(ModuliPoint(c0, c, d))
    fsol = integrate_profile(dp, "F", span, 1e-3)
    gsol = integrate_profile(dp, "G", span, 1e-3)
    return assemble_omega(fsol, gsol, GridSpec(*span, *span, n, n))


def synthetic(omega, grid, c0=1.0):
    return OmegaField(
        grid=grid, c0=c0, omega=omega, sinh_omega=np.sinh(omega),
        mask=np.zeros_like(omega, dtype=bool), provenance="Synthetic",
    )


@pytest.fixture(scope="module")
def bump_solved():
    # boundary data from an exact solution, smoothly perturbed on one edge
    dp = derive_params(ModuliPoint(-1, -0.25, -0.25))
    fsol = integrate_profile(dp, "F", (0, 1), 1e-3)
    gsol = integrate_profile(dp, "G", (0, 1), 1e-3)
    fields = []
    for n in (51, 101):
        grid = GridSpec(0, 1, 0, 1, n, n)
        recon = assemble_omega(fsol, gsol, grid)
        boundary = recon.omega.copy()
        boundary[-1, :] += 0.1 * np.sin(np.pi * grid.xs) ** 3
        fields.append(solve_sinh_gordon(-1.0, grid, boundary))
    return fields


def test_shiffman_vanishes_on_reconstructed_fields():
    consts = []
    for n in (51, 101):
        field = reconstructed(1, -1, -1, n)
        u = shiffman_field(field)
        consts.append(np.nanmax(np.abs(u)) / field.grid.hx**2)
    assert consts[0] == pytest.approx(consts[1], rel=0.5)


def test_shiffman_vanishes_on_degenerate_field():
    field = assemble_omega_degenerate(0.0, 1.0, GridSpec(-0.6, 0.6, -0.6, 0.6, 101, 101))
    u = shiffman_field(field)
    assert np.nanmax(np.abs(u)) <= 1e-4


def test_shiffman_cross_stencil_analytic():
    # omega = x y has omega_xy = 1 exactly under the 4-point cross stencil
    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, 11, 11)
    x, y = np.meshgrid(grid.xs, grid.ys)
    u = shiffman_field(synthetic(x * y, grid))
    assert u[5, 5] == pytest.approx(1.0, abs=1e-12)


def test_shiffman_zero_field():
    grid = GridSpec(0, 1, 0, 1, 9, 9)
    u = shiffman_field(synthetic(np.zeros((9, 9)), grid))
    assert np.nanmax(np.abs(u)) == 0.0


def test_shiffman_curvature_route_agrees():
    field = reconstructed(1, -1, -1, 101)
    direct = shiffman_field(field)
    via_curvature = shiffman_from_curvature(field)
    gap = np.abs(direct - via_curvature)[2:-2, 2:-2]
    assert np.nanmax(gap) <= 1e-4


def test_jacobi_identity_refines_at_second_order(bump_solved):
    linf = [
        jacobi_residual(f, shiffman_field(f), margin=0.1).linf for f in bump_solved
    ]
    assert 3.5 <= linf[0] / linf[1] <= 4.5


def test_jacobi_residual_small_for_system_fields():
    # reconstructed fields have u = O(h^2), so the residual is tiny too
    field = reconstructed(1, -1, -1, 101)
    stats = jacobi_residual(field, shiffman_field(field))
    assert stats.linf <= 1e-2 * np.nanmax(np.abs(field.omega))


def test_jacobi_negative_control():
    # for an arbitrary test function the identity must fail loudly
    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, 21, 21)
    x, y = np.meshgrid(grid.xs, grid.ys)
    field = synthetic(np.zeros((21, 21)), grid, c0=-1.0)
    v = np.sin(3 * x) * np.cos(2 * y)
    stats = jacobi_residual(field, v)
    assert stats.linf > 1.0


def test_potential_constant_for_zero_field():
    grid = GridSpec(0, 1, 0, 1, 9, 9)
    for c0 in (-1.0, 0.0, 2.5):
        pot = jacobi_potential(synthetic(np.zeros((9, 9)), grid, c0=c0))
        assert np.nanmax(np.abs(pot - c0)) == 0.0


def test_potential_sign_and_identity():
    field = reconstructed(1, -1, 0, 101, span=(0.1, 1.1))
    pot = jacobi_potential(field)
    assert np.nanmin(pot) >= 0.0
    assert potential_identity_linf(field) <= 1e-12


def test_gauss_curvature_zero_field():
    grid = GridSpec(0, 1, 0, 1, 9, 9)
    K = gauss_curvature(synthetic(np.zeros((9, 9)), grid))
    assert np.nanmax(np.abs(K)) == 0.0


def test_gauss_curvature_bounded_by_ambient():
    field = reconstructed(1, -1, -1, 101)
    K = gauss_curvature(field)
    assert np.nanmax(K) <= 1.0 + 1e-12


def test_gauss_dual_route_second_order():
    gaps = []
    for n in (51, 101):
        field = assemble_omega_degenerate(0.0, 1.0, GridSpec(-0.6, 0.6, -0.6, 0.6, n, n))
        gaps.append(gauss_dual_route_linf(field))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.6)
    field = reconstructed(1, -1, -1, 101)
    assert gauss_dual_route_linf(field) <= 1e-3


def test_shiffman_document_keys(bump_solved):
    doc = shiffman_document(bump_solved[0], margin=0.1)
    assert set(doc) == {
        "max_u", "jacobi_residual", "potential_identity_linf", "gauss_dual_route_linf"
    }
    assert set(doc["jacobi_residual"]) == {"linf", "l2", "h"}


def test_shiffman_document_takes_one_gradient_pass(monkeypatch):
    field = reconstructed(1, -1, -1, 21)
    calls = []
    gradient = np.gradient

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(np, "gradient", counted)
    shiffman_document(field)
    assert calls == [(21, 21)]
