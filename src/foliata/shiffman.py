"""The Shiffman field and second-variation diagnostics.

For any solution omega of the structure equation, the field

    u = omega_xy - tanh(omega) omega_x omega_y = -cosh(omega) d/dx k_h

is a Jacobi field:  lap(u) + (c0 + 2 |grad omega|^2 / cosh^2 omega) u = 0.
Its vanishing characterizes the fields whose horizontal level curves have
constant curvature.  Everything here is computed from omega alone on the
grid, with centered second-order stencils, in row blocks from one
derivative pass per block.
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
    row_blocks,
    stats_from,
)


def _finite_max(values: np.ndarray) -> float:
    vals = values[np.isfinite(values)]
    return float(np.max(vals)) if vals.size else float("nan")


class _Derivatives:
    """Masked omega on one row slab of a field, its gradient from one
    np.gradient pass and cosh(omega): the kernel of one row block.  A slab
    edge inside the grid gets one-sided differences, so callers keep only
    the rows their stencil reaches from inside the slab."""

    def __init__(self, field: OmegaField, slab: slice):
        grid = field.grid
        self.c0, self.hx, self.hy = field.c0, grid.hx, grid.hy
        self.mask = field.mask[slab]
        self.w = np.where(self.mask, np.nan, field.omega[slab])
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


def _check_nodes(field: OmegaField, nodes: int) -> None:
    """``nodes`` is the grid size the caller's stencils need, 3 (cross) or 5 (Jacobi)."""
    for need, stencil in ((3, "cross"), (5, "Jacobi")):
        if need <= nodes and (field.nx < need or field.ny < need):
            raise TooFewNodes(f"need at least {need}x{need} nodes for the {stencil} stencil")


def shiffman_field(field: OmegaField) -> np.ndarray:
    """u = omega_xy - tanh(omega) omega_x omega_y by centered differences.

    Defined on interior nodes clear of the dilated singular mask; NaN on the
    boundary ring and near the singular set.
    """
    _check_nodes(field, 3)
    u = np.empty(field.omega.shape)
    for rows, slab, out in row_blocks(field.grid, 1):
        u[rows] = _Derivatives(field, slab).shiffman()[out]
    return u


def jacobi_residual(field: OmegaField, u: np.ndarray, margin: float = 0.0) -> ResidualStats:
    """Residual of lap(u) + (c0 + 2 |grad omega|^2 / cosh^2) u.

    The identity holds in the continuum for the Shiffman field of any
    structure-equation solution; for an arbitrary u it has no reason to be
    small (that non-example is part of the test suite).
    """
    _check_nodes(field, 5)
    u = np.asarray(u, dtype=float)
    res = np.empty(field.omega.shape)
    for rows, slab, out in row_blocks(field.grid, 1):
        res[rows] = _Derivatives(field, slab).jacobi(u[slab])[out]
    return stats_from(_margin_blank(res, field.grid, margin), max(field.grid.hx, field.grid.hy))


def shiffman_document(field: OmegaField, margin: float = 0.0) -> dict:
    """JSON-ready summary used by the verification CLI, in row blocks that
    reach two rows out (lap u needs u one row out, u needs omega one more)."""
    _check_nodes(field, 5)
    res = np.empty(field.omega.shape)
    maxima = []
    for rows, slab, out in row_blocks(field.grid, 2):
        d = _Derivatives(field, slab)
        u = d.shiffman()
        res[rows] = d.jacobi(u)[out]
        top_u = _finite_max(np.abs(u[out]))
        maxima.append([top_u, d.potential_identity(out), d.gauss_dual_route(out)])
    max_u, potential, gauss = (_finite_max(column) for column in np.array(maxima).T)
    residual = stats_from(_margin_blank(res, field.grid, margin), max(field.grid.hx, field.grid.hy))
    return {
        "max_u": max_u if np.isfinite(max_u) else None,
        "jacobi_residual": {"linf": residual.linf, "l2": residual.l2, "h": residual.grid_h},
        "potential_identity_linf": potential,
        "gauss_dual_route_linf": gauss,
    }
