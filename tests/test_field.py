import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from foliata import field as field_module
from foliata._jsonfmt import dumps
from foliata.errors import (
    AllSingular,
    FoliataError,
    GridMismatch,
    InvalidParams,
    NonConverged,
    TooFewNodes,
)
from foliata.field import (
    EPS_DEN,
    OVERFLOW_GUARD,
    DegenerateSource,
    GridSpec,
    OmegaField,
    ReconstructedSource,
    ResidualAccumulator,
    assemble_omega,
    assemble_omega_degenerate,
    field_document,
    field_from_document,
    field_from_source,
    level_curvatures,
    sinh_gordon_residual,
    solve_sinh_gordon,
)
from foliata.moduli import ModuliPoint, derive_params
from foliata.profile import ProfileFunction, integrate_profile


def profiles(c0, c, d, xr=(0, 1), yr=(0, 1), a=None, trivial_f=False, trivial_g=False):
    dp = derive_params(ModuliPoint(c0, c, d), a)
    fsol = integrate_profile(dp, "F", xr, 1e-3, trivial=trivial_f)
    gsol = integrate_profile(dp, "G", yr, 1e-3, trivial=trivial_g)
    return fsol, gsol


# ---------------------------------------------------------------------------
# identity oracles for reconstructed fields
# ---------------------------------------------------------------------------

def reconstruction_agreement(source, grid):
    """Max relative gap between the two quotients where both are defined."""
    f, fx = source.ffn.eval_many(grid.xs)
    g, gy = source.gfn.eval_many(grid.ys)
    den = source.c0 + f[None, :] ** 2 + g[:, None] ** 2
    den_fb = fx[None, :] - gy[:, None]
    eps = field_module.EPS_DEN
    both = (np.abs(den) > eps) & (np.abs(den_fb) > eps)
    prim = (fx[None, :] + gy[:, None]) / np.where(both, den, 1.0)
    fall = (g[:, None] ** 2 - f[None, :] ** 2 - source.dp.a) / np.where(both, den_fb, 1.0)
    rel = np.abs(prim - fall) / np.maximum(1.0, np.abs(prim))
    return float(np.max(np.where(both, rel, 0.0)))


def quartic_identity_residual(source, grid):
    """Max relative residual of f'^2 - g'^2 = (c0+f^2+g^2)(g^2-f^2-a)."""
    f, fx = source.ffn.eval_many(grid.xs)
    g, gy = source.gfn.eval_many(grid.ys)
    lhs = fx[None, :] ** 2 - gy[:, None] ** 2
    rhs = (source.c0 + f[None, :] ** 2 + g[:, None] ** 2) * (
        g[:, None] ** 2 - f[None, :] ** 2 - source.dp.a
    )
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


def compatibility_residual(source, grid):
    """Max absolute value of the two separation-compatibility expressions.

    Both must vanish identically once cbar = c0 + a and dbar = c0 - a:
    f (c0^2 - cbar c0 + c - d) + f g^2 (2 c0 - cbar - dbar) and its mirror.
    """
    dp = source.dp
    c0 = source.c0
    c, d = dp.c_const, dp.d_const
    f, _ = source.ffn.eval_many(grid.xs)
    g, _ = source.gfn.eval_many(grid.ys)
    f2 = f[None, :] ** 2
    g2 = g[:, None] ** 2
    expr_f = f[None, :] * (c0 * c0 - dp.cbar * c0 + c - d) + f[None, :] * g2 * (
        2.0 * c0 - dp.cbar - dp.dbar
    )
    expr_g = g[:, None] * (c0 * c0 - dp.dbar * c0 + d - c) + f2 * g[:, None] * (
        2.0 * c0 - dp.dbar - dp.cbar
    )
    return float(max(np.max(np.abs(expr_f)), np.max(np.abs(expr_g))))


@pytest.fixture(scope="module")
def sphere_field():
    fsol, gsol = profiles(1, -1, -1)
    return assemble_omega(fsol, gsol, GridSpec(0, 1, 0, 1, 101, 101))


def test_grid_spec_basics():
    g = GridSpec(0, 1, 0, 2, 11, 21)
    assert g.hx == pytest.approx(0.1)
    assert g.hy == pytest.approx(0.1)
    assert g.xs[0] == 0 and g.xs[-1] == 1
    with pytest.raises(InvalidParams):
        GridSpec(0, 0, 0, 1, 5, 5)


def test_trivial_profiles_give_zero_omega():
    fsol, gsol = profiles(-1, 0, 0, trivial_f=True, trivial_g=True)
    field = assemble_omega(fsol, gsol, GridSpec(0, 1, 0, 1, 11, 11))
    assert not field.mask.any()
    assert np.abs(field.omega).max() == 0.0


def test_positive_curvature_is_never_singular(sphere_field):
    assert not sphere_field.mask.any()
    assert np.isfinite(sphere_field.omega).all()


def test_reconstruction_formulas_agree(sphere_field):
    src = sphere_field.source
    assert reconstruction_agreement(src, sphere_field.grid) <= 1e-8


def test_quartic_identity(sphere_field):
    assert quartic_identity_residual(sphere_field.source, sphere_field.grid) <= 1e-8


def test_compatibility_constants_vanish(sphere_field):
    assert compatibility_residual(sphere_field.source, sphere_field.grid) <= 1e-10


def test_compatibility_constants_vanish_flat():
    fsol, gsol = profiles(0, -0.25, -0.25, xr=(0.5, 2.5), yr=(0.5, 2.5), a=0.0)
    grid = GridSpec(0.5, 2.5, 0.5, 2.5, 41, 41)
    field = assemble_omega(fsol, gsol, grid)
    assert compatibility_residual(field.source, grid) <= 1e-10
    assert quartic_identity_residual(field.source, grid) <= 1e-8


def _source_field(c0, c, d, a, grid):
    dp = derive_params(ModuliPoint(c0, c, d), a)
    return field_from_source(ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G")),
                             grid)


def test_conjugate_involution_transposes_omega():
    # (c0, c, d, a) -> (c0, d, c, -a) exchanges f and g, so the swapped
    # point's field on the transposed box is omega transposed, NaN nodes
    # included; draws whose profiles or fields do not exist are refused
    # alike on both sides
    rng = np.random.default_rng(18)
    built = refused = 0
    worst = 0.0
    for _ in range(400):
        c0 = float(rng.choice([0.0, 0.25, -0.25, 1.0, -1.0, 4.0, -4.0]))
        c, d = rng.uniform(-3, 3, size=2)
        a = None
        if c0 == 0:
            d, a = c, rng.uniform(-1, 1)
        x0, y0 = rng.uniform(-2, 2, size=2)
        x1, y1 = x0 + rng.uniform(0.25, 2), y0 + rng.uniform(0.25, 2)
        swap = (c0, d, c, None if a is None else -a, GridSpec(y0, y1, x0, x1, 17, 21))
        try:
            omega = _source_field(c0, c, d, a, GridSpec(x0, x1, y0, y1, 21, 17)).omega
        except FoliataError:
            refused += 1
            with pytest.raises(FoliataError):
                _source_field(*swap)
            continue
        swapped = _source_field(*swap).omega.T
        assert (np.isnan(omega) == np.isnan(swapped)).all()
        gap = np.abs(omega - swapped) / np.cosh(omega)
        assert np.nanmax(gap, initial=0.0) <= 1e-11
        worst = max(worst, np.nanmax(gap, initial=0.0))
        built += 1
    print(f"conjugate involution: {built} field pairs, {refused} draws refused, "
          f"worst gap {worst:.1e} cosh(omega)")
    assert built > 100


def test_assemble_rejects_mismatched_profiles():
    fsol, _ = profiles(1, -1, -1)
    _, gsol = profiles(1, -1, -0.5)
    with pytest.raises(GridMismatch):
        assemble_omega(fsol, gsol, GridSpec(0, 1, 0, 1, 11, 11))


def test_assemble_rejects_grid_outside_samples():
    fsol, gsol = profiles(1, -1, -1)
    with pytest.raises(GridMismatch):
        assemble_omega(fsol, gsol, GridSpec(0, 2, 0, 1, 11, 11))


def test_singular_rows_on_catenoid_family():
    # c = 0 with the f = 0 branch: omega blows up exactly where g^2 = 1
    dp = derive_params(ModuliPoint(-1, 0, 2))
    fsol = integrate_profile(dp, "F", (0, 1), 1e-3, trivial=True)
    gsol = integrate_profile(dp, "G", (-0.5, 0.5), 1e-3)
    # canonical start g(0) = sqrt(Y-) = 1, so y = 0 lies on the singular line
    grid = GridSpec(0, 1, -0.5, 0.5, 11, 11)
    field = assemble_omega(fsol, gsol, grid)
    assert field.mask[5, :].all()
    assert field.mask.sum() == 11


def test_flat_isolated_singular_points():
    fsol, gsol = profiles(0, -1, -1, xr=(-1, 1), yr=(-1, 1), a=0.0)
    grid = GridSpec(-1, 1, -1, 1, 21, 21)
    field = assemble_omega(fsol, gsol, grid)
    assert field.mask.sum() == 1
    assert field.mask[10, 10]


def test_all_singular_raises():
    # a grid confined to the singular row
    dp = derive_params(ModuliPoint(-1, 0, 2))
    fsol = integrate_profile(dp, "F", (0, 1), 1e-3, trivial=True)
    gsol = integrate_profile(dp, "G", (-1e-15, 1e-15), 1e-3)
    with pytest.raises(AllSingular):
        assemble_omega(fsol, gsol, GridSpec(0, 1, -1e-15, 1e-15, 5, 5))


def test_degenerate_field_values():
    grid = GridSpec(-0.5, 0.5, 0, math.pi / 4, 5, 5)
    field = assemble_omega_degenerate(0.0, 1.0, grid)
    assert field.provenance == "Degenerate"
    assert field.omega[0, 0] == 0.0  # the axis y = 0
    assert field.omega[-1, 0] == pytest.approx(-math.asinh(1.0), abs=1e-12)


def test_degenerate_marks_outside_strip_singular():
    grid = GridSpec(-0.2, 0.2, 0, 3.0, 9, 31)
    field = assemble_omega_degenerate(0.0, 1.0, grid)
    ys = grid.ys
    outside = np.abs(ys) >= math.pi / 2
    assert (field.mask[outside, :]).all()
    assert not field.mask[np.abs(ys) < 1.4, :].any()


def test_degenerate_overflow_guard_band():
    # nodes inside the strip but with |tan| beyond the overflow guard are
    # singular before arcsinh can blow up
    edge = math.pi / 2 - 1e-9
    grid = GridSpec(0, 1, 0, edge, 5, 5)
    field = assemble_omega_degenerate(0.0, 1.0, grid)
    assert field.mask[-1, :].all()
    assert not field.mask[0, :].any()


def test_degenerate_rejects_bad_constants():
    with pytest.raises(InvalidParams):
        assemble_omega_degenerate(0.5, 0.5, GridSpec(0, 1, 0, 1, 5, 5))
    # alpha^2 + beta^2 = -c0 at any c0 < 0
    grid = GridSpec(0, 0.5, 0, 0.5, 5, 5)
    assert assemble_omega_degenerate(math.sqrt(2), math.sqrt(2), grid, -4.0).c0 == -4.0
    for alpha, beta, c0 in ((0.0, 1.0, -4.0), (2.0, 0.0, 4.0), (0.0, 0.0, 0.0)):
        with pytest.raises(InvalidParams):
            assemble_omega_degenerate(alpha, beta, grid, c0)


def test_degenerate_horizontal_curvature_is_one():
    # cosh(omega) = sec(y), omega_y = -sec(y) for (alpha, beta) = (0, 1),
    # so -omega_y / cosh(omega) == 1 everywhere on the strip
    grid = GridSpec(-0.6, 0.6, -0.6, 0.6, 41, 41)
    field = assemble_omega_degenerate(0.0, 1.0, grid)
    data = field.source.eval_grid(grid.xs, grid.ys)
    k_h = -data.wy / data.cosh
    assert np.abs(k_h - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda n: assemble_omega(*profiles(1, -1, -1), GridSpec(0, 1, 0, 1, n, n)),
        lambda n: assemble_omega_degenerate(
            0.0, 1.0, GridSpec(-0.6, 0.6, -0.6, 0.6, n, n)
        ),
    ],
    ids=["reconstructed", "degenerate"],
)
def test_sinh_gordon_residual_second_order(make):
    linf = []
    for n in (51, 101):
        stats = sinh_gordon_residual(make(n))
        linf.append(stats.linf)
    ratio = linf[0] / linf[1]
    assert 3.5 <= ratio <= 4.5


def test_sinh_gordon_residual_zero_field():
    z = np.zeros((9, 9))
    field = OmegaField(
        grid=GridSpec(0, 1, 0, 1, 9, 9), c0=-1.0, omega=z, provenance="Synthetic",
    )
    assert sinh_gordon_residual(field).linf == 0.0
    with pytest.raises(TooFewNodes):
        sinh_gordon_residual(
            OmegaField(
                grid=GridSpec(0, 1, 0, 1, 4, 4), c0=-1.0, omega=np.zeros((4, 4)),
                provenance="Synthetic",
            )
        )


def test_newton_zero_boundary_gives_zero():
    grid = GridSpec(0, 1, 0, 1, 17, 17)
    field = solve_sinh_gordon(-1.0, grid, np.zeros((17, 17)))
    assert field.provenance == "Relaxation"
    assert np.abs(field.omega).max() == 0.0


def test_newton_matches_reconstruction_at_second_order():
    fsol, gsol = profiles(-1, -0.25, -0.25)
    errs = []
    for n in (26, 51):
        grid = GridSpec(0, 1, 0, 1, n, n)
        recon = assemble_omega(fsol, gsol, grid)
        solved = solve_sinh_gordon(-1.0, grid, recon.omega)
        errs.append(np.abs(solved.omega - recon.omega).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_newton_bump_boundary_converges():
    fsol, gsol = profiles(-1, -0.25, -0.25)
    grid = GridSpec(0, 1, 0, 1, 51, 51)
    recon = assemble_omega(fsol, gsol, grid)
    boundary = recon.omega.copy()
    boundary[-1, :] += 0.1 * grid.xs * (1 - grid.xs)
    solved = solve_sinh_gordon(-1.0, grid, boundary)
    assert sinh_gordon_residual(solved).linf < 1e-10


def test_newton_non_convergence_reports_residual_and_step(monkeypatch):
    fsol, gsol = profiles(-1, -0.25, -0.25)
    grid = GridSpec(0, 1, 0, 1, 51, 51)
    boundary = assemble_omega(fsol, gsol, grid).omega.copy()
    boundary[-1, :] += 0.1 * grid.xs * (1 - grid.xs)
    monkeypatch.setattr(field_module, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConverged) as info:
        solve_sinh_gordon(-1.0, grid, boundary)
    found = re.search(r"last residual norm (\S+), last step factor (\S+)\)", str(info.value))
    assert found is not None
    norm, lam = float(found.group(1)), float(found.group(2))
    assert math.isfinite(norm) and norm > 0
    assert 0 < lam <= 1


def test_newton_steep_initial_guess_converges():
    # cosh(2 omega) reaches 7e8 on this field: the diagonal outweighs the
    # Laplacian by far near the corners
    fsol, gsol = profiles(-1, -1, 1, xr=(-1, 1), yr=(-1, 1))
    grid = GridSpec(-1, 1, -1, 1, 101, 101)
    recon = assemble_omega(fsol, gsol, grid)
    assert np.cosh(2.0 * recon.omega).max() > 1e8
    solved = solve_sinh_gordon(-1.0, grid, recon.omega)
    assert sinh_gordon_residual(solved).linf <= 1e-10


def test_newton_start_interior_changes_the_solve_only_at_rounding_level():
    # criterion 6's input: the first iterate is the start array's interior
    fsol, gsol = profiles(-1, -0.25, -0.25)
    grid = GridSpec(0, 1, 0, 1, 51, 51)
    recon = assemble_omega(fsol, gsol, grid).omega
    start = recon.copy()
    start[-1, :] += 0.1 * np.sin(np.pi * grid.xs) ** 3
    zero = start.copy()
    zero[1:-1, 1:-1] = 0.0
    from_recon = solve_sinh_gordon(-1.0, grid, start)
    from_zero = solve_sinh_gordon(-1.0, grid, zero)
    for solved in (from_recon, from_zero):
        assert sinh_gordon_residual(solved).linf < 1e-10
    assert np.abs(from_recon.omega - from_zero.omega).max() <= 1e-12


@pytest.mark.filterwarnings("error")
def test_newton_refuses_data_beyond_the_overflow_guard():
    # sinh(400) cosh(400) ~ 1e347: the residual of such a field overflows
    start = np.zeros((9, 9))
    start[[0, -1], :] = start[:, [0, -1]] = 400.0
    with pytest.raises(InvalidParams, match=r"boundary has omega 400.0 at node \(i=0, j=0\)"):
        solve_sinh_gordon(-1.0, GridSpec(0, 1, 0, 1, 9, 9), start)
    start = np.zeros((9, 9))
    start[4, -1] = np.nan
    with pytest.raises(InvalidParams, match=r"boundary has omega nan at node \(i=8, j=4\)"):
        solve_sinh_gordon(-1.0, GridSpec(0, 1, 0, 1, 9, 9), start)


@pytest.mark.filterwarnings("error")
def test_newton_refuses_a_solution_beyond_the_overflow_guard():
    # c0 > 0 has no maximum principle: from data at 19.1, inside the guard,
    # the solution on a small square bulges past arcsinh(1e8) = 19.1138
    grid = GridSpec(0, 1e-8, 0, 1e-8, 9, 9)
    with pytest.raises(InvalidParams, match=r"omega at node \(i=\d, j=\d\) is 19.11\d*, beyond"):
        solve_sinh_gordon(1.0, grid, np.full((9, 9), 19.1))
    assert np.abs(solve_sinh_gordon(1.0, grid, np.full((9, 9), 19.0)).omega).max() < 19.1


def test_newton_indefinite_jacobian_converges():
    # on [0, 6]^2 the lowest Dirichlet eigenvalue 2 (pi/6)^2 < 1 = c0 cosh(2 omega)
    # near omega = 0, so the Jacobian has eigenvalues of both signs
    grid = GridSpec(0, 6, 0, 6, 81, 81)
    start = np.array([[0.05 * math.sin(x) * math.cos(y) for x in grid.xs] for y in grid.ys])
    start[1:-1, 1:-1] = 0.0
    solved = solve_sinh_gordon(1.0, grid, start)
    assert sinh_gordon_residual(solved).linf <= 1e-12


def test_newton_strongly_indefinite_problem_fails_fast():
    # on [0, 20]^2 some 26 Dirichlet eigenvalues lie below c0 cosh(2 omega):
    # when no step factor down to 2^-10 lowers the residual the solve stops
    grid = GridSpec(0, 20, 0, 20, 81, 81)
    start = 0.05 * np.sin(grid.xs)[None, :] * np.cos(grid.ys)[:, None]
    start[1:-1, 1:-1] = 0.0
    with pytest.raises(NonConverged, match="decreases"):
        solve_sinh_gordon(1.0, grid, start)


def test_newton_step_matches_dense_solve_on_non_square_grid(monkeypatch):
    grid = GridSpec(0, 1, 0, 2, 23, 17)
    xs, ys = grid.xs, grid.ys
    boundary = 0.5 * np.sin(2.0 * xs[None, :]) * np.cos(ys[:, None]) + 0.3 * ys[:, None]
    initial = 0.8 * np.outer(ys, xs)
    w0 = boundary.copy()
    w0[1:-1, 1:-1] = initial[1:-1, 1:-1]
    c0 = -1.0
    # dense Jacobian of the five-point residual at w0, interior nodes row-major
    m, n = grid.ny - 2, grid.nx - 2
    ax, ay = grid.hx ** -2, grid.hy ** -2
    second = lambda k, a: a * (np.eye(k, k=1) + np.eye(k, k=-1) - 2.0 * np.eye(k))
    inner = w0[1:-1, 1:-1]
    jac = (np.kron(np.eye(m), second(n, ax)) + np.kron(second(m, ay), np.eye(n))
           + np.diag(c0 * np.cosh(2.0 * inner).ravel()))
    lap = ((w0[1:-1, 2:] - 2.0 * inner + w0[1:-1, :-2]) * ax
           + (w0[2:, 1:-1] - 2.0 * inner + w0[:-2, 1:-1]) * ay)
    expect = np.linalg.solve(jac, -(lap + c0 * np.sinh(inner) * np.cosh(inner)).ravel())
    # an infinite tolerance stops after the first, undamped, Newton step,
    # here solved exactly: the forcing cap at CG_RTOL
    monkeypatch.setattr(field_module, "NEWTON_TOL", math.inf)
    monkeypatch.setattr(field_module, "CG_FORCING_MAX", field_module.CG_RTOL)
    step = solve_sinh_gordon(c0, grid, w0).omega - w0
    assert np.linalg.norm(step[1:-1, 1:-1].ravel() - expect) <= 1e-12 * np.linalg.norm(expect)
    assert not step[[0, -1], :].any() and not step[:, [0, -1]].any()


def test_newton_inner_solve_failure_raises(monkeypatch):
    grid = GridSpec(0, 1, 0, 1, 17, 17)
    # at most 17.92, inside arcsinh(OVERFLOW_GUARD)
    boundary = np.fromfunction(lambda j, i: 0.07 * i * j, (17, 17))
    monkeypatch.setattr(field_module, "CG_MAX_ITER", 1)
    with pytest.raises(NonConverged, match="conjugate gradients"):
        solve_sinh_gordon(-1.0, grid, boundary)
    # a non-finite first iterate ends in the same typed error, never a NaN step
    monkeypatch.undo()
    boundary[8, 8] = np.nan
    with pytest.raises(NonConverged, match="conjugate gradients"):
        solve_sinh_gordon(-1.0, grid, boundary)


@pytest.mark.filterwarnings("error")
def test_newton_overflowing_trial_steps_are_halved_quietly(monkeypatch):
    # omega = 19 at c0 = 1, inside the overflow guard: full Newton steps
    # overshoot until sinh(omega) overflows in the trial residual, which must
    # halve the step without a RuntimeWarning and end in the typed error
    overflowed = []
    norm = np.linalg.norm

    def counted(x):
        value = norm(x)
        overflowed.append(not np.isfinite(value))
        return value

    monkeypatch.setattr(np.linalg, "norm", counted)
    # exact Newton steps: the forcing cap at CG_RTOL
    monkeypatch.setattr(field_module, "CG_FORCING_MAX", field_module.CG_RTOL)
    with pytest.raises(NonConverged, match="no Newton step factor"):
        solve_sinh_gordon(1.0, GridSpec(0, 1, 0, 1, 9, 9), np.full((9, 9), 19.0))
    assert any(overflowed)


def bump_start(n):
    """The criterion-6 Dirichlet data: the (-1, -0.25, -0.25) field on [0, 1]^2
    with a bump on its top row, whose interior is the first iterate."""
    fsol, gsol = profiles(-1, -0.25, -0.25)
    grid = GridSpec(0, 1, 0, 1, n, n)
    start = assemble_omega(fsol, gsol, grid).omega.copy()
    start[-1, :] += 0.1 * np.sin(np.pi * grid.xs) ** 3
    return grid, start


def test_newton_steps_are_solved_to_the_forcing_term(monkeypatch):
    grid, start = bump_start(101)
    applied = []
    inverse = field_module._dirichlet_inverse

    def counted(*args):
        apply = inverse(*args)
        return lambda r: applied.append(1) or apply(r)

    monkeypatch.setattr(field_module, "_dirichlet_inverse", counted)
    inexact = solve_sinh_gordon(-1.0, grid, start).omega
    assert len(applied) <= 24
    # every step solved to CG_RTOL: the same solution
    with monkeypatch.context() as mp:
        mp.setattr(field_module, "CG_FORCING_MAX", field_module.CG_RTOL)
        exact = solve_sinh_gordon(-1.0, grid, start).omega
    assert np.abs(inexact - exact).max() <= 1e-12
    # an infinite tolerance stops after the first, undamped, step: its linear
    # residual F + J delta is at most the first forcing term times |F|
    monkeypatch.setattr(field_module, "NEWTON_TOL", math.inf)
    delta = solve_sinh_gordon(-1.0, grid, start).omega - start
    inner = start[1:-1, 1:-1]
    lap = lambda a: field_module._interior_laplacian(a, grid.hx, grid.hy)[1:-1, 1:-1]
    fv = lap(start) - np.sinh(inner) * np.cosh(inner)
    linear = fv + lap(delta) - np.cosh(2.0 * inner) * delta[1:-1, 1:-1]
    ratio = np.linalg.norm(linear) / np.linalg.norm(fv)
    assert 1e3 * field_module.CG_RTOL < ratio <= field_module.CG_FORCING_MAX


def test_level_curvature_matches_g_profile():
    fsol, gsol = profiles(1, 0, -0.25, trivial_f=True)
    grid = GridSpec(0, 1, 0, 1, 101, 101)
    field = assemble_omega(fsol, gsol, grid)
    k_h, _ = level_curvatures(field)
    g_vals = gsol.fn.eval_many(grid.ys)[0]
    assert np.nanmax(np.abs(k_h - g_vals[:, None])) <= 5e-5
    # horizontal curvature depends on y only
    assert np.nanmax(np.abs(k_h - k_h[:, :1])) <= 1e-12


def test_vertical_curvature_projection():
    fsol, gsol = profiles(1, -1, 0, xr=(0.2, 1.2), trivial_g=True)
    grid = GridSpec(0.2, 1.2, 0, 1, 101, 101)
    field = assemble_omega(fsol, gsol, grid)
    _, k_v = level_curvatures(field)
    f_vals = fsol.fn.eval_many(grid.xs)[0]
    prod = k_v * np.tanh(field.omega)
    assert np.nanmax(np.abs(prod + f_vals[None, :])) <= 5e-5


def test_level_curvature_zero_field():
    z = np.zeros((11, 11))
    field = OmegaField(
        grid=GridSpec(0, 1, 0, 1, 11, 11), c0=1.0, omega=z, provenance="Synthetic",
    )
    k_h, k_v = level_curvatures(field)
    assert np.nanmax(np.abs(k_h)) == 0.0
    assert np.isnan(k_v).all()


def test_field_document_round_trip():
    fsol, gsol = profiles(-1, 0, 2, trivial_f=True, yr=(-0.5, 0.5))
    grid = GridSpec(0, 1, -0.5, 0.5, 11, 11)
    field = assemble_omega(fsol, gsol, grid)
    doc = field_document(field)
    assert set(doc) == {"c0", "domain", "nx", "ny", "provenance", "omega", "mask"}
    parsed = json.loads(dumps(doc))
    assert parsed["omega"][5 * 11] is None  # singular row serializes as null
    back = field_from_document(parsed)
    assert back.c0 == field.c0
    assert (back.mask == field.mask).all()
    # 17 significant digits round-trip every double
    assert np.array_equal(back.omega, field.omega, equal_nan=True)


def test_residual_l2_never_overflows():
    def stats(residual):
        acc = ResidualAccumulator()
        acc.add(residual)
        return acc.stats()

    # squares past the largest double once gave l2 = inf, written as null
    big = stats(np.array([1e200, -1e200, np.nan, 3e307]))
    assert big.linf == 3e307 and big.count == 3
    assert big.l2 == pytest.approx(3e307 / math.sqrt(3), rel=1e-15)
    # a residual below 2 keeps the plain sqrt(mean(r^2)) to the last bit
    small = np.random.default_rng(3).uniform(-1.9, 1.9, 1000)
    assert stats(small).l2 == np.sqrt(np.mean(small * small))


def test_omega_field_owns_its_singular_set():
    grid = GridSpec(0, 1, 0, 1, 5, 5)
    good = np.full((5, 5), 0.25)
    good[2, 3] = np.nan

    def record(omega):
        return OmegaField(grid=grid, c0=1.0, omega=omega, provenance="Synthetic")

    field = record(good.copy())
    assert np.array_equal(field.mask, np.isnan(good))
    with pytest.raises(ValueError):
        field.mask[0, 0] = True
    # every omega is NaN or within arcsinh(OVERFLOW_GUARD) = 19.11
    for node, value in (((0, 0), 1e308), ((1, 0), -1e308), ((4, 1), np.inf), ((3, 2), -np.inf),
                        ((2, 4), 19.2)):
        omega = good.copy()
        omega[node] = value
        message = f"omega at node (i={node[1]}, j={node[0]}) is {value}, beyond arcsinh("
        with pytest.raises(InvalidParams, match=re.escape(message)):
            record(omega)


def test_omega_field_arrays_immutable(sphere_field):
    with pytest.raises(ValueError):
        sphere_field.omega[0, 0] = 1.0


def test_every_builder_derives_the_mask_from_omega(tmp_path):
    # both closed-form sources (each with a singular set), the solver, and a
    # written field file read back: the mask is omega's NaNs, and both are
    # read-only
    fsol, gsol = profiles(-1, 0, 2, trivial_f=True, yr=(-0.5, 0.5))
    reconstructed = assemble_omega(fsol, gsol, GridSpec(0, 1, -0.5, 0.5, 11, 11))
    degenerate = assemble_omega_degenerate(0.6, 0.8, GridSpec(-2, 2, -2, 2, 21, 21))
    start = np.zeros((9, 9))
    start[0, :] = 0.5
    solved = solve_sinh_gordon(-1.0, GridSpec(0, 1, 0, 1, 9, 9), start)
    path = tmp_path / "field.json"
    path.write_text(dumps(field_document(reconstructed)))
    read = field_from_document(json.loads(path.read_text()))
    assert reconstructed.mask.any() and degenerate.mask.any() and read.mask.any()
    for field in (reconstructed, degenerate, solved, read):
        assert np.array_equal(field.mask, np.isnan(field.omega))
        assert not (field.omega.flags.writeable or field.mask.flags.writeable)
        with pytest.raises(AttributeError):
            field.mask = np.zeros_like(field.mask)
    assert np.array_equal(read.omega, reconstructed.omega, equal_nan=True)


@pytest.mark.parametrize("kind", ["reconstructed", "degenerate"])
def test_field_from_source_holds_omega_alone(kind):
    # each row block's sinh goes straight into omega through arcsinh: no
    # full-grid sinh or mask is held on return, nor allocated on the way
    if kind == "reconstructed":
        dp = derive_params(ModuliPoint(1, -1, -1))
        source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
        grid = GridSpec(0, 1, 0, 1, 801, 801)
    else:
        source = DegenerateSource(0.6, 0.8)
        grid = GridSpec(-2, 2, -2, 2, 801, 801)
    tracemalloc.start()
    try:
        field = field_from_source(source, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kind == "reconstructed" or field.mask.any()
    assert held <= 1.05 * field.omega.nbytes
    # the reconstructed blocks assemble sinh in one output array (1.26x)
    assert peak <= (1.3 if kind == "reconstructed" else 1.5) * field.omega.nbytes


def _three_way_sinh(source, f, fx, g, gy):
    """sinh(omega) by three full-size np.where selections: the reference of
    ReconstructedSource._sinh, which assembles the same values in place."""
    den = source.c0 + f * f + g * g
    num = fx + gy
    den_fb = fx - gy
    num_fb = g * g - f * f - source.dp.a
    use_p = np.abs(den) > EPS_DEN
    use_f = ~use_p & (np.abs(den_fb) > EPS_DEN)
    sinh = np.where(
        use_p,
        num / np.where(use_p, den, 1.0),
        np.where(use_f, num_fb / np.where(use_f, den_fb, 1.0), np.nan),
    )
    return np.where(np.abs(sinh) <= OVERFLOW_GUARD, sinh, np.nan)


#: how a node's (g, g_y) puts it on each branch of _sinh, given its (f, f_x),
#: at c0 = -1: g^2 = 1 - f^2 makes |c0 + f^2 + g^2| a rounding error, and
#: g_y = f_x makes the fallback's denominator f_x - g_y zero
BRANCHES = {
    "primary": lambda f, fx, g, gy: (g, gy),
    "fallback": lambda f, fx, g, gy: (math.sqrt(1.0 - f * f), gy),
    "both-fail": lambda f, fx, g, gy: (math.sqrt(1.0 - f * f), fx),
    "primary-overflow": lambda f, fx, g, gy: (g, 1e12),
    "fallback-overflow": lambda f, fx, g, gy: (math.sqrt(1.0 - f * f), fx - 2e-9),
}
NODES = st.lists(st.tuples(st.sampled_from(sorted(BRANCHES)), st.floats(-1, 1), st.floats(-3, 3),
                           st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=6)


@given(NODES)
@example([(branch, 0.3, 0.7, 1.9, -0.4) for branch in sorted(BRANCHES)])
def test_reconstructed_sinh_keeps_its_bits(nodes):
    # each node's f and g (a row of nodes), and one x broadcast against a
    # column of y, give the bits of the three-way selection
    dp = derive_params(ModuliPoint(-1, -1, 1))
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    f, fx = (np.array([node[i] for node in nodes]) for i in (1, 2))
    g, gy = np.array([BRANCHES[b](f0, fx0, g0, gy0) for b, f0, fx0, g0, gy0 in nodes]).T
    x_f, x_fx = np.float64(f[0]), np.float64(fx[0])
    col = np.array([BRANCHES[b](x_f, x_fx, g0, gy0) for b, _, _, g0, gy0 in nodes])
    for args in ((f, fx, g, gy), (x_f, x_fx, col[:, :1], col[:, 1:])):
        got, want = source._sinh(*args), _three_way_sinh(source, *args)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()



def test_eps_den_parts_the_quotient_from_its_continuity_extension():
    # on the row y = 0 of (-1, -0.5, -0.3), c0 + f^2 + g^2 vanishes where
    # f^2 = 1 - g(0)^2: removably near x = 2.03, where f' = -g', and at a
    # pole near x = 5.41, where f' = g'.  EPS_DEN = 1e-9 must lie between the
    # two nodes below, each with |c0 + f^2 + g^2| in (1e-11, 1e-7)
    dp = derive_params(ModuliPoint(-1, -0.5, -0.3))
    source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
    g, gy = (float(v) for v in source.gfn.eval_many(0.0))

    def den(x):
        f, fx = source.ffn.eval_many(x)
        return -1.0 + f * f + g * g, 2.0 * f * fx

    def node(lo, hi, target):
        """x where the denominator is about ``target``, off its zero in [lo, hi]."""
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if (den(mid)[0] > 0) == (den(lo)[0] > 0) else (lo, mid)
        return lo + target / den(lo)[1]

    def sinh(x):
        return float(source.eval_bc(x, 0.0).sinh)

    # removable: the primary quotient divides two rounding-level numbers and
    # keeps about 1e-6 of sinh, the extension all of it.  The reference is the
    # cubic through the four nodes where the denominator is +-1e-4, +-2e-4,
    # on which the primary quotient is accurate
    for target in (1e-10, -1e-10, 5e-10, -5e-10):
        x = node(1.9, 2.2, target)
        offsets = np.array([-2e-4, -1e-4, 1e-4, 2e-4]) / den(x)[1]
        cubic = np.polynomial.Polynomial.fit(offsets, [sinh(x + t) for t in offsets], 3)
        f, fx = source.ffn.eval_many(x)
        assert abs(float((fx + gy) / den(x)[0]) - cubic(0.0)) > 1e-8  # the routes part
        assert sinh(x) == pytest.approx(cubic(0.0), rel=1e-10, abs=0)
    # pole: at |c0 + f^2 + g^2| = 3e-8, f' - g' is about 3.3e-8 as well, and
    # |sinh| = 2 g' / 3e-8 = 3.7e7 lies below OVERFLOW_GUARD: the node is off D
    for target in (3e-8, -3e-8):
        x = node(5.3, 5.5, target)
        assert sinh(x) == pytest.approx(2.0 * gy / target, rel=1e-6)

def test_grid_spec_refuses_more_than_max_nodes():
    # refused at construction, before any array of the grid is allocated
    assert GridSpec(0, 1, 0, 1, 10**4, 10**3).nx == 10**4
    with pytest.raises(InvalidParams, match=r"10000 x 1001 grid nodes, more than 10000000"):
        GridSpec(0, 1, 0, 1, 10**4, 10**3 + 1)


def test_source_broadcast_after_grid_assembly():
    # assembling fills the source's per-axis cache with 1-D arrays; a later
    # broadcast evaluation over the same abscissae must still give a grid
    fsol, gsol = profiles(1, -1, -1)
    grid = GridSpec(0, 1, 0, 1, 6, 6)
    field = assemble_omega(fsol, gsol, grid)
    data = field.source.eval_bc(grid.xs[None, :], grid.ys[:, None])
    assert data.sinh.shape == (6, 6)
    assert np.array_equal(np.arcsinh(data.sinh), field.omega, equal_nan=True)


def test_row_block_assembly_evaluates_each_axis_once(monkeypatch):
    # the blocks share one evaluation of each profile on its whole axis
    monkeypatch.setattr(field_module, "BLOCK_NODES", 3 * 7)
    fsol, gsol = profiles(1, -1, -1)
    calls = []
    eval_many = field_module.ProfileFunction.eval_many

    def counted(fn, x):
        calls.append((fn.kind, np.shape(x)))
        return eval_many(fn, x)

    monkeypatch.setattr(field_module.ProfileFunction, "eval_many", counted)
    assemble_omega(fsol, gsol, GridSpec(0, 1, 0, 1, 7, 20))
    assert sorted(calls) == [("F", (7,)), ("G", (20,))]
