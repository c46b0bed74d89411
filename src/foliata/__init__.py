"""Minimal surfaces in M x R foliated by constant-curvature horizontal curves.

The pipeline: classify a parameter point (moduli), integrate its one-variable
profile functions (profile), assemble the conformal exponent on a grid and
verify the structure equation (field), check the Jacobi diagnostics
(shiffman), and integrate the frame of the immersion into a mesh (immersion).
"""

from .errors import (
    AllSingular,
    DriftExceeded,
    FoliataError,
    GridMismatch,
    InvalidParams,
    NoRealSolution,
    NonConverged,
    NonOscillatory,
    NotDegenerate,
    NotFlat,
    PeriodUnavailable,
    SingularCrossing,
    TooFewNodes,
)
from .field import (
    GridSpec,
    OmegaField,
    ResidualStats,
    assemble_omega,
    assemble_omega_degenerate,
    level_curvatures,
    sinh_gordon_residual,
    solve_sinh_gordon,
)
from .immersion import (
    ChartSpace,
    FrameField,
    HolonomyReport,
    SurfaceMesh,
    build_mesh,
    chart_for_curvature,
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
from .moduli import (
    DerivedParams,
    ModuliPoint,
    RegionLabel,
    RegionReport,
    classify,
    derive_params,
    moduli_scan,
    normalize_curvature,
)
from .profile import (
    ProfileSolution,
    degenerate_constants,
    integrate_profile,
    profile_period,
    sample_profile,
)
from .shiffman import jacobi_residual, shiffman_field

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
