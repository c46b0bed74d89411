"""The Shiffman field and second-variation diagnostics.

For any solution omega of the structure equation, the field

    u = omega_xy - tanh(omega) omega_x omega_y = -cosh(omega) d/dx k_h

is a Jacobi field:  lap(u) + (c0 + 2 |grad omega|^2 / cosh^2 omega) u = 0.
Its vanishing characterizes the fields whose horizontal level curves have
constant curvature.  Everything here is computed from omega alone on the
grid, with centered second-order stencils, in row blocks from one pass
per block of the derivative kernel that the level curvatures share
(``field._Derivatives``).
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .field import (
    OmegaField,
    ResidualAccumulator,
    ResidualStats,
    _Derivatives,
    _finite_max,
    require_nodes,
    row_blocks,
)


def shiffman_field(field: OmegaField) -> np.ndarray:
    """u = omega_xy - tanh(omega) omega_x omega_y by centered differences.

    Defined on interior nodes clear of the dilated singular mask; NaN on the
    boundary ring and near the singular set.
    """
    require_nodes(field.grid, 3, "the cross stencil")
    u = np.empty(field.omega.shape)
    for rows, slab, out in row_blocks(field.grid, 1):
        u[rows] = _Derivatives(field, slab).shiffman()[out]
    return u


def jacobi_residual(field: OmegaField, u: np.ndarray, margin: float = 0.0) -> ResidualStats:
    """Residual of lap(u) + (c0 + 2 |grad omega|^2 / cosh^2) u, over the
    nodes at least ``margin`` inside the domain.

    The identity holds in the continuum for the Shiffman field of any
    structure-equation solution; for an arbitrary u it has no reason to be
    small (that non-example is part of the test suite).
    """
    grid = field.grid
    require_nodes(grid, 5, "the Jacobi stencil")
    u = np.asarray(u, dtype=float)
    if u.shape != field.omega.shape:
        raise GridMismatch(f"u is shaped {u.shape}, the field's grid {field.omega.shape}")
    xs, ys = grid.xs, grid.ys
    drop_x = ~((xs >= grid.x0 + margin) & (xs <= grid.x1 - margin))
    drop_y = ~((ys >= grid.y0 + margin) & (ys <= grid.y1 - margin))
    acc = ResidualAccumulator()
    for rows, slab, out in row_blocks(grid, 1):
        res = _Derivatives(field, slab).jacobi(u[slab], out)
        res[drop_y[rows]] = np.nan
        res[:, drop_x] = np.nan
        acc.add(res)
    return acc.stats()


def shiffman_document(field: OmegaField) -> dict:
    """JSON-ready summary used by the verification CLI, in row blocks that
    reach two rows out (lap u needs u one row out, u needs omega one more)."""
    grid = field.grid
    require_nodes(grid, 5, "the Jacobi stencil")
    acc = ResidualAccumulator()
    maxima = []
    for _, slab, out in row_blocks(grid, 2):
        d = _Derivatives(field, slab)
        u = d.shiffman()
        acc.add(d.jacobi(u, out))
        top_u = _finite_max(np.abs(u[out]))
        maxima.append([top_u, d.potential_identity(out), d.gauss_dual_route(out)])
    max_u, potential, gauss = (_finite_max(column) for column in np.array(maxima).T)
    residual = acc.stats()
    return {
        "max_u": max_u if np.isfinite(max_u) else None,
        "jacobi_residual": {"linf": residual.linf, "l2": residual.l2, "h": max(grid.hx, grid.hy)},
        "potential_identity_linf": potential,
        "gauss_dual_route_linf": gauss,
    }
