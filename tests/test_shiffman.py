import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foliata import field as field_module, shiffman as shiffman_module
from foliata.errors import GridMismatch, InvalidParams, TooFewNodes
from foliata.field import (
    C0_BOUND,
    H_MIN,
    OVERFLOW_GUARD,
    DegenerateSource,
    GridSpec,
    OmegaField,
    ReconstructedSource,
    ResidualAccumulator,
    _interior_laplacian,
    assemble_omega,
    assemble_omega_degenerate,
    dilate_mask,
    field_from_source,
    level_curvatures,
    row_blocks,
    sinh_gordon_residual,
    solve_sinh_gordon,
)
from foliata.moduli import ModuliPoint, derive_params
from foliata.profile import ProfileFunction, integrate_profile
from foliata.shiffman import jacobi_residual, shiffman_document, shiffman_field


class FullGrid:
    """The grid diagnostics on the whole grid at once: the oracle of the
    row-block kernels, with the same scalar spacing and float operations."""

    def __init__(self, field):
        grid = field.grid
        self.field = field
        self.w = np.where(field.mask, np.nan, field.omega)
        self.wy, self.wx = np.gradient(self.w, grid.hy, grid.hx, edge_order=2)
        self.cosh = np.cosh(self.w)
        self.grad2 = self.wx * self.wx + self.wy * self.wy

    def shiffman(self):
        w, grid = self.w, self.field.grid
        wxy = np.full_like(w, np.nan)
        wxy[1:-1, 1:-1] = w[2:, 2:] - w[2:, :-2] - w[:-2, 2:] + w[:-2, :-2]
        u = wxy / (4.0 * grid.hx * grid.hy) - np.tanh(w) * self.wx * self.wy
        u[dilate_mask(self.field.mask)] = np.nan
        return u

    def jacobi_residual(self, u, margin):
        grid = self.field.grid
        res = _interior_laplacian(np.asarray(u, dtype=float), grid.hx, grid.hy)
        res += (self.field.c0 + 2.0 * self.grad2 / (self.cosh * self.cosh)) * u
        return margin_blank(res, grid, margin)

    def potential(self):
        cosh2 = self.cosh ** 2
        return self.field.c0 / cosh2 + 2.0 * self.grad2 / (cosh2 * cosh2)

    def potential_identity(self):
        cosh2 = self.cosh ** 2
        rhs = self.field.c0 + 2.0 * self.grad2 / cosh2
        return finite_max(np.abs(cosh2 * self.potential() - rhs))

    def gauss(self):
        return self.field.c0 * np.tanh(self.w) ** 2 - self.grad2 / (self.cosh ** 2 * self.cosh ** 2)

    def gauss_dual_route(self):
        grid = self.field.grid
        lap = _interior_laplacian(2.0 * np.log(self.cosh), grid.hx, grid.hy)
        route = -lap / (2.0 * self.cosh ** 2)
        return finite_max(np.abs(self.gauss() - route))

    def sinh_gordon_residual(self):
        field, grid = self.field, self.field.grid
        res = _interior_laplacian(field.omega, grid.hx, grid.hy)
        res += 0.5 * field.c0 * np.sinh(2.0 * field.omega)
        res[dilate_mask(field.mask)] = np.nan
        return res

    def level_curvatures(self):
        k_h = -self.wy / self.cosh
        with np.errstate(divide="ignore", invalid="ignore"):
            k_v = np.where(np.abs(self.w) >= field_module.EPS_DEN, self.wx / np.sinh(self.w), np.nan)
        return k_h, k_v


def margin_blank(res, grid, margin):
    """res with NaN at the nodes closer than ``margin`` to the domain's edge."""
    if margin <= 0:
        return res
    xs, ys = grid.xs, grid.ys
    keep_x = (xs >= grid.x0 + margin) & (xs <= grid.x1 - margin)
    keep_y = (ys >= grid.y0 + margin) & (ys <= grid.y1 - margin)
    return np.where(keep_y[:, None] & keep_x[None, :], res, np.nan)


def finite_max(values):
    vals = values[np.isfinite(values)]
    return float(np.max(vals)) if vals.size else float("nan")


def full_grid_source_field(source, grid):
    """Oracle of the row-block assembly: the source combined on the whole grid."""
    data = source.eval_grid(grid.xs, grid.ys)
    return data.omega, np.isnan(data.sinh)


def jacobi_potential(field):
    """Second-variation potential Ric(N) + |dN|^2 on the grid."""
    return FullGrid(field).potential()


def gauss_curvature(field):
    """K = c0 tanh^2(omega) - |grad omega|^2 / cosh^4(omega)."""
    return FullGrid(field).gauss()


def shiffman_from_curvature(field):
    """Cross-check route: -cosh(omega) d/dx of the horizontal curvature."""
    k_h, _ = level_curvatures(field)
    _, dk = np.gradient(k_h, field.grid.hy, field.grid.hx, edge_order=2)
    return -np.cosh(np.where(field.mask, np.nan, field.omega)) * dk


def reconstructed(c0, c, d, n, span=(0, 1)):
    dp = derive_params(ModuliPoint(c0, c, d))
    fsol = integrate_profile(dp, "F", span, 1e-3)
    gsol = integrate_profile(dp, "G", span, 1e-3)
    return assemble_omega(fsol, gsol, GridSpec(*span, *span, n, n))


def synthetic(omega, grid, c0=1.0):
    return OmegaField(
        grid=grid, c0=c0, omega=omega, provenance="Synthetic",
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


def test_jacobi_residual_refuses_a_u_off_the_grid():
    grid = GridSpec(0, 1, 0, 1, 21, 17)
    field = synthetic(np.zeros((17, 21)), grid)
    with pytest.raises(GridMismatch, match=r"\(17, 22\)"):
        jacobi_residual(field, np.zeros((17, 22)))


def test_residual_diagnostics_hold_one_row_block_at_a_time():
    # an 801^2 field: 4.9 MB of omega, each diagnostic's traced peak a
    # fraction of it (2.2-2.8 times it with full-grid residual arrays)
    field = reconstructed(1, -1, -1, 801)
    field.mask  # the field's own, built once
    u = shiffman_field(field)
    for run in (lambda: sinh_gordon_residual(field),
                lambda: jacobi_residual(field, u, margin=0.1),
                lambda: shiffman_document(field)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * field.omega.nbytes


def test_potential_constant_for_zero_field():
    grid = GridSpec(0, 1, 0, 1, 9, 9)
    for c0 in (-1.0, 0.0, 2.5):
        pot = jacobi_potential(synthetic(np.zeros((9, 9)), grid, c0=c0))
        assert np.nanmax(np.abs(pot - c0)) == 0.0


def test_potential_sign_and_identity():
    field = reconstructed(1, -1, 0, 101, span=(0.1, 1.1))
    pot = jacobi_potential(field)
    assert np.nanmin(pot) >= 0.0
    assert shiffman_document(field)["potential_identity_linf"] <= 1e-12


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
        gaps.append(shiffman_document(field)["gauss_dual_route_linf"])
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.6)
    field = reconstructed(1, -1, -1, 101)
    assert shiffman_document(field)["gauss_dual_route_linf"] <= 1e-3


@pytest.mark.parametrize("c0", [1.0, C0_BOUND, -C0_BOUND])
def test_stencils_stay_finite_at_the_smallest_spacing(c0):
    # a checkerboard of +-arcsinh(OVERFLOW_GUARD) holds the largest jumps a
    # field can, and its one-sided slab-edge gradients are the largest too
    n = 21
    w = np.where(np.indices((n, n)).sum(axis=0) % 2, 1.0, -1.0) * math.asinh(OVERFLOW_GUARD)
    span = H_MIN * (1 + 1e-12) * (n - 1)
    field = OmegaField(
        grid=GridSpec(0.0, span, 0.0, span, n, n), c0=c0, omega=w, provenance="Synthetic",
    )
    with np.errstate(all="raise"):
        assert math.isfinite(sinh_gordon_residual(field).linf)
        doc = shiffman_document(field)
        assert math.isfinite(doc["jacobi_residual"]["linf"])
        assert math.isfinite(jacobi_residual(field, shiffman_field(field)).linf)
    with pytest.raises(InvalidParams, match="grid spacing"):
        GridSpec(0.0, 1.0, 0.0, H_MIN * (1 - 1e-12) * (n - 1), n, n)


def test_shiffman_document_keys(bump_solved):
    doc = shiffman_document(bump_solved[0])
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


def assert_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def full_grid_stats(residual):
    """(linf, l2, count) over the finite nodes of the whole grid at once."""
    vals = residual[np.isfinite(residual)]
    return float(np.max(np.abs(vals))), float(np.sqrt(np.mean(vals * vals))), vals.size


def block_stats(residual, grid):
    """Oracle of the residual accumulator: (linf, l2, count) over the finite
    nodes, each row block's squares summed pairwise after scaling the block
    by a power of two to below 2, and the block sums added in row order at
    the largest block's scale."""
    parts = []
    for rows, _, _ in row_blocks(grid, 0):
        vals = np.abs(residual[rows][np.isfinite(residual[rows])])
        if vals.size:
            exp = max(math.frexp(vals.max())[1] - 1, 0)
            parts.append((vals.max(), exp, np.add.reduce((vals / 2.0 ** exp) ** 2), vals.size))
    top = max(exp for _, exp, _, _ in parts)
    total = sum(math.ldexp(s, 2 * (exp - top)) for _, exp, s, _ in parts)
    count = sum(n for *_, n in parts)
    return float(max(p[0] for p in parts)), math.ldexp(math.sqrt(total / count), top), count


def assert_same_max(actual, expected):
    assert actual == expected or (math.isnan(actual) and math.isnan(expected))


def drawn_field(kind, nx, ny, c0, rng, edge_rows):
    if kind == "degenerate":
        # |y| > pi/2 masks whole rows; the corners leave the strip as well
        theta = rng.uniform(0.0, 0.3)
        grid = GridSpec(-1.0, 1.0, -2.0, 2.0, nx, ny)
        return DegenerateSource(math.sin(theta), math.cos(theta)), grid
    if kind == "reconstructed":
        # the test's OVERFLOW_GUARD of 1.5 masks the nodes where
        # |sinh omega| > 1.5, whole rows of them at c0 = -1
        dp = derive_params(ModuliPoint(*((-1.0, -1.0, 1.0) if c0 < 0 else (1.0, -1.0, -1.0))))
        source = ReconstructedSource(ProfileFunction(dp, "F"), ProfileFunction(dp, "G"))
        return source, GridSpec(0.0, 1.5, 0.0, 1.5, nx, ny)
    grid = GridSpec(0.0, 1.0, 0.0, 2.0, nx, ny)
    omega = rng.uniform(-1.5, 1.5, (ny, nx))
    mask = rng.random((ny, nx)) < rng.choice([0.0, 0.03, 0.15])
    mask[edge_rows] = True
    omega[mask] = np.nan  # a field holds NaN exactly on its mask
    return OmegaField(grid=grid, c0=c0, omega=omega, provenance="Synthetic"), grid


@settings(max_examples=100)
@given(
    st.sampled_from(["synthetic", "degenerate", "reconstructed"]),
    st.integers(3, 6),  # rows per block
    st.integers(2, 4),  # blocks
    st.sampled_from([0, 1, 2]),  # tail rows the last block absorbs
    st.integers(5, 12),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.sampled_from([0.0, 0.1, 0.3]),
    st.integers(0, 2**32 - 1),
)
def test_row_blocks_match_the_full_grid(kind, size, blocks, tail, nx, c0, margin, seed):
    rng = np.random.default_rng(seed)
    ny = blocks * size + tail
    # rows on either side of each block edge, some masked whole
    edges = [r for k in range(1, blocks) for r in (k * size - 1, k * size)]
    edge_rows = [r for r in edges if rng.random() < 0.3]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field_module, "BLOCK_NODES", size * nx)
        if kind == "reconstructed":
            mp.setattr(field_module, "OVERFLOW_GUARD", 1.5)
        built, grid = drawn_field(kind, nx, ny, c0, rng, edge_rows)
        assert len(list(row_blocks(grid, 2))) == blocks
        if kind == "synthetic":
            field = built
        else:
            omega, mask = full_grid_source_field(built, grid)
            if mask.all():
                return
            field = field_from_source(built, grid)
            assert_bits(field.omega, omega)
            assert_bits(field.mask, mask)

        oracle = FullGrid(field)
        u = oracle.shiffman()
        assert_bits(shiffman_field(field), u)
        k_h, k_v = level_curvatures(field)
        want_h, want_v = oracle.level_curvatures()
        assert_bits(k_h, want_h)
        assert_bits(k_v, want_v)

        # each row block's residual as it reaches the accumulator
        seen = []
        add = ResidualAccumulator.add

        def recorded(acc, block):
            seen.append(block.copy())
            add(acc, block)

        mp.setattr(ResidualAccumulator, "add", recorded)
        checks = [
            (lambda: sinh_gordon_residual(field), oracle.sinh_gordon_residual()),
            (lambda: jacobi_residual(field, u, margin), oracle.jacobi_residual(u, margin)),
            (lambda: shiffman_document(field), oracle.jacobi_residual(u, 0.0)),
        ]
        for run, expected in checks:
            if not np.isfinite(expected).any():
                with pytest.raises(TooFewNodes):
                    run()
                continue
            seen.clear()
            result = run()
            assert len(seen) == blocks
            assert_bits(np.concatenate(seen), expected)
            want = block_stats(expected, grid)
            # the blocks' sum is the whole grid's at rounding level
            assert want[1] == pytest.approx(full_grid_stats(expected)[1], rel=1e-13)
            if isinstance(result, dict):
                max_u = math.nan if result["max_u"] is None else result["max_u"]
                assert_same_max(max_u, finite_max(np.abs(u)))
                assert_same_max(result["potential_identity_linf"], oracle.potential_identity())
                assert_same_max(result["gauss_dual_route_linf"], oracle.gauss_dual_route())
                result = result["jacobi_residual"]
                assert (result["linf"], result["l2"]) == want[:2]
            else:
                assert (result.linf, result.l2, result.count) == want
