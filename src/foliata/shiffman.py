"""The Shiffman field and second-variation diagnostics.

For any solution omega of the structure equation, the field

    u = omega_xy - tanh(omega) omega_x omega_y = -cosh(omega) d/dx k_h

is a Jacobi field:  lap(u) + (c0 + 2 |grad omega|^2 / cosh^2 omega) u = 0.
Its vanishing characterizes the fields whose horizontal level curves have
constant curvature.  Everything here is computed from omega alone on the
grid, with centered second-order stencils.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewNodes
from .field import (
    OmegaField,
    ResidualStats,
    _interior_laplacian,
    _margin_blank,
    dilate_mask,
    level_curvatures,
    stats_from,
)


def _masked_omega(field: OmegaField) -> np.ndarray:
    return np.where(field.mask, np.nan, field.omega)


def _finite_max(values: np.ndarray) -> float:
    vals = values[np.isfinite(values)]
    return float(np.max(vals)) if vals.size else float("nan")


def _gauss_log_route(grid, cosh: np.ndarray) -> np.ndarray:
    """Independent route K = -(1 / 2 lambda) lap(log lambda), lambda = cosh^2."""
    lap = _interior_laplacian(2.0 * np.log(cosh), grid.hx, grid.hy)
    return -lap / (2.0 * cosh ** 2)


class _Derivatives:
    """Masked omega of one field, its gradient from one np.gradient pass and
    cosh(omega), shared by the diagnostics below; ``nodes`` is the grid size
    the caller's stencils need, 3 (cross) or 5 (Jacobi)."""

    def __init__(self, field: OmegaField, nodes: int = 0):
        for need, stencil in ((3, "cross"), (5, "Jacobi")):
            if need <= nodes and (field.nx < need or field.ny < need):
                raise TooFewNodes(f"need at least {need}x{need} nodes for the {stencil} stencil")
        self.field = field
        self.w = _masked_omega(field)
        self.wy, self.wx = np.gradient(self.w, field.grid.ys, field.grid.xs, edge_order=2)
        self.cosh = np.cosh(self.w)
        self.grad2 = self.wx * self.wx + self.wy * self.wy

    def shiffman(self) -> np.ndarray:
        w, grid = self.w, self.field.grid
        wxy = np.full_like(w, np.nan)  # NaN on the boundary ring, and so is u
        wxy[1:-1, 1:-1] = w[2:, 2:] - w[2:, :-2] - w[:-2, 2:] + w[:-2, :-2]
        u = wxy / (4.0 * grid.hx * grid.hy) - np.tanh(w) * self.wx * self.wy
        u[dilate_mask(self.field.mask)] = np.nan
        return u

    def jacobi_residual(self, u: np.ndarray, margin: float) -> ResidualStats:
        grid = self.field.grid
        res = _interior_laplacian(np.asarray(u, dtype=float), grid.hx, grid.hy)
        res += (self.field.c0 + 2.0 * self.grad2 / (self.cosh * self.cosh)) * u
        return stats_from(_margin_blank(res, grid, margin), max(grid.hx, grid.hy))

    def potential(self) -> np.ndarray:
        cosh2 = self.cosh ** 2
        return self.field.c0 / cosh2 + 2.0 * self.grad2 / (cosh2 * cosh2)

    def potential_identity(self) -> float:
        cosh2 = self.cosh ** 2
        rhs = self.field.c0 + 2.0 * self.grad2 / cosh2
        return _finite_max(np.abs(cosh2 * self.potential() - rhs))

    def gauss(self) -> np.ndarray:
        return self.field.c0 * np.tanh(self.w) ** 2 - self.grad2 / self.cosh ** 4

    def gauss_dual_route(self) -> float:
        return _finite_max(np.abs(self.gauss() - _gauss_log_route(self.field.grid, self.cosh)))


def shiffman_field(field: OmegaField) -> np.ndarray:
    """u = omega_xy - tanh(omega) omega_x omega_y by centered differences.

    Defined on interior nodes clear of the dilated singular mask; NaN on the
    boundary ring and near the singular set.
    """
    return _Derivatives(field, 3).shiffman()


def shiffman_from_curvature(field: OmegaField) -> np.ndarray:
    """Cross-check route: -cosh(omega) d/dx of the horizontal curvature."""
    k_h, _ = level_curvatures(field)
    _, dk = np.gradient(k_h, field.grid.ys, field.grid.xs, edge_order=2)
    return -np.cosh(_masked_omega(field)) * dk


def jacobi_residual(field: OmegaField, u: np.ndarray, margin: float = 0.0) -> ResidualStats:
    """Residual of lap(u) + (c0 + 2 |grad omega|^2 / cosh^2) u.

    The identity holds in the continuum for the Shiffman field of any
    structure-equation solution; for an arbitrary u it has no reason to be
    small (that non-example is part of the test suite).
    """
    return _Derivatives(field, 5).jacobi_residual(u, margin)


def jacobi_potential(field: OmegaField) -> np.ndarray:
    """Second-variation potential Ric(N) + |dN|^2 on the grid.

    Equals c0 / cosh^2(omega) + 2 |grad omega|^2 / cosh^4(omega), with the
    gradient by finite differences.
    """
    return _Derivatives(field).potential()


def potential_identity_linf(field: OmegaField) -> float:
    """Max of |cosh^2 * potential - c0 - 2 |grad omega|^2 / cosh^2|."""
    return _Derivatives(field).potential_identity()


def gauss_curvature(field: OmegaField) -> np.ndarray:
    """K = c0 tanh^2(omega) - |grad omega|^2 / cosh^4(omega)."""
    return _Derivatives(field).gauss()


def gauss_dual_route_linf(field: OmegaField) -> float:
    return _Derivatives(field).gauss_dual_route()


def shiffman_document(field: OmegaField, margin: float = 0.0) -> dict:
    """JSON-ready summary used by the verification CLI, from one gradient pass."""
    d = _Derivatives(field, 5)
    u = d.shiffman()
    residual = d.jacobi_residual(u, margin)
    finite_u = u[np.isfinite(u)]
    return {
        "max_u": float(np.max(np.abs(finite_u))) if finite_u.size else None,
        "jacobi_residual": {"linf": residual.linf, "l2": residual.l2, "h": residual.grid_h},
        "potential_identity_linf": d.potential_identity(),
        "gauss_dual_route_linf": d.gauss_dual_route(),
    }
