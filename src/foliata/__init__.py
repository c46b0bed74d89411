"""Minimal surfaces in M x R foliated by constant-curvature horizontal curves.

The pipeline: classify a parameter point (moduli), integrate its one-variable
profile functions (profile), assemble the conformal exponent on a grid and
verify the structure equation (field), check the Jacobi diagnostics
(shiffman), and integrate the frame of the immersion into a mesh (immersion).

Each public name is imported from its module on first access, so importing
the package, or a command that needs one layer, loads no other layer.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each module.
_EXPORTS = {
    "errors": (
        "AllSingular", "DriftExceeded", "FoliataError", "GridMismatch", "InvalidParams",
        "NoRealSolution", "NonConverged", "NonOscillatory", "NotDegenerate", "NotFlat",
        "PeriodUnavailable", "SingularCrossing", "TooFewNodes",
    ),
    "field": (
        "GridSpec", "OmegaField", "ResidualStats", "assemble_omega",
        "assemble_omega_degenerate", "level_curvatures", "sinh_gordon_residual",
        "solve_sinh_gordon",
    ),
    "immersion": (
        "ChartSpace", "FrameField", "HolonomyReport", "SurfaceMesh", "build_mesh",
        "flat_route_gap", "harmonic_residual", "holonomy", "hopf_deviation",
        "integrate_frame", "isometry_check", "mesh_row_curvature", "obj_chunks",
        "rk4_row_gap", "weierstrass_flat",
    ),
    "moduli": (
        "DerivedParams", "ModuliPoint", "RegionLabel", "RegionReport", "classify",
        "derive_params", "moduli_scan", "normalize_curvature",
    ),
    "profile": (
        "ProfileSolution", "degenerate_constants", "integrate_profile", "profile_period",
        "sample_profile",
    ),
    "shiffman": ("jacobi_residual", "shiffman_field"),
}
#: The module of each public name.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
