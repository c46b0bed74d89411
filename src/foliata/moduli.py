"""Parameter algebra and classification of the (c0, c, d) moduli plane.

A surface in the family is indexed by the ambient curvature c0 and the two
first-integral constants (c, d) of its profile functions.  The separation
constant is a = (c - d)/c0 for c0 != 0, and the quadratics

    P(X) = X^2 + (c0 + a) X + c,      Q(Y) = Y^2 + (c0 - a) Y + d

share one discriminant  delta = (c0 + a)^2 - 4c = (c0 - a)^2 - 4d.  Profiles
exist iff delta >= 0 and the larger roots X+, Y+ are nonnegative; for c0 > 0
this reduces to c <= 0 and d <= 0.  The root sums obey X- + Y+ = X+ + Y- =
-c0, which for the hyperbolic plane is the classical "sum to one" identity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

from .errors import InvalidParams

#: Relative tolerance for the shared-discriminant cross-check.
DISCRIMINANT_RTOL = 1e-12


def normalize_curvature(c0: float) -> tuple[int, float]:
    """Split a curvature into (sign, coordinate scale sqrt(|c0|)).

    A dilatation by the scale reduces any ambient curvature to -1, 0 or +1,
    so every case analysis below only branches on the sign.
    """
    if not math.isfinite(c0):
        raise InvalidParams(f"curvature must be finite, got {c0}")
    if c0 == 0:
        return 0, 1.0
    return (1 if c0 > 0 else -1), math.sqrt(abs(c0))


@dataclass(frozen=True)
class ModuliPoint:
    """A point (c0, c, d) of the parameter space."""

    c0: float
    c: float
    d: float

    def validate(self) -> None:
        for name, v in (("c0", self.c0), ("c", self.c), ("d", self.d)):
            if not math.isfinite(v):
                raise InvalidParams(f"{name} must be finite, got {v}")
        if self.c0 == 0 and self.c != self.d:
            raise InvalidParams(
                f"flat ambient space requires c = d, got c={self.c}, d={self.d}"
            )


@dataclass(frozen=True)
class DerivedParams:
    """Separation constant, quadratic coefficients and roots at one point.

    Roots are None when delta < 0.  Root labels are ordered xminus <= xplus
    and yminus <= yplus, with ties at delta = 0.
    """

    a: float
    cbar: float
    dbar: float
    delta: float
    xminus: float | None
    xplus: float | None
    yminus: float | None
    yplus: float | None

    @property
    def c_const(self) -> float:
        """First-integral constant of the x-profile, recovered from delta."""
        return (self.cbar * self.cbar - self.delta) / 4.0

    @property
    def d_const(self) -> float:
        """First-integral constant of the y-profile, recovered from delta."""
        return (self.dbar * self.dbar - self.delta) / 4.0

    def document(self) -> dict:
        """JSON-ready fields in declaration order, as every output writes them."""
        return asdict(self)


def derive_params(p: ModuliPoint, a: float | None = None) -> DerivedParams:
    """Compute a, cbar = c0+a, dbar = c0-a, the shared discriminant and roots.

    For c0 != 0 the separation constant is forced to (c - d)/c0 and any given
    ``a`` is ignored; for c0 = 0 it is a free third parameter defaulting to 0.
    """
    p.validate()
    if p.c0 != 0:
        a_val = (p.c - p.d) / p.c0
    else:
        a_val = 0.0 if a is None else float(a)
        if not math.isfinite(a_val):
            raise InvalidParams(f"separation constant must be finite, got {a_val}")
    cbar = p.c0 + a_val
    dbar = p.c0 - a_val
    delta = cbar * cbar - 4.0 * p.c
    delta_mirror = dbar * dbar - 4.0 * p.d
    scale = max(1.0, abs(delta), abs(delta_mirror))
    if abs(delta - delta_mirror) > DISCRIMINANT_RTOL * scale:
        raise InvalidParams(
            f"discriminants disagree: {delta} vs {delta_mirror}"
        )
    if delta >= 0:
        sq = math.sqrt(delta)
        xminus, xplus = (-cbar - sq) / 2.0, (-cbar + sq) / 2.0
        yminus, yplus = (-dbar - sq) / 2.0, (-dbar + sq) / 2.0
    else:
        xminus = xplus = yminus = yplus = None
    return DerivedParams(a_val, cbar, dbar, delta, xminus, xplus, yminus, yplus)


class RegionLabel(str, enum.Enum):
    ONDULOID_ROTATIONAL = "OnduloidRotational"
    HELICOID_S2 = "HelicoidS2"
    RIEMANN_TYPE_S2 = "RiemannTypeS2"
    FLAT_VERTICAL_ANNULUS = "FlatVerticalAnnulus"
    GAMMA_HELICOIDAL_TYPE = "GammaHelicoidalType"
    HORIZONTAL_GEODESIC_FOLIATION = "HorizontalGeodesicFoliation"
    OBLIQUE_PLANE = "ObliquePlane"
    CATENOID_ROTATIONAL = "CatenoidRotational"
    CATENOID_EQUIDISTANT = "CatenoidEquidistant"
    GRAPH_EQUIDISTANT = "GraphEquidistant"
    ANNULUS_FAMILY = "AnnulusFamily"
    ONDULATED_HELICOID = "OndulatedHelicoid"
    BLOWED_HELICOID = "BlowedHelicoid"
    RIEMANN_FAMILY_H2 = "RiemannFamilyH2"
    CLASSICAL_RIEMANN_R3 = "ClassicalRiemannR3"
    VERTICAL_GEODESIC_PLANE = "VerticalGeodesicPlane"
    OUTSIDE_MODULI = "OutsideModuli"


@dataclass(frozen=True)
class RegionReport:
    """Classification outcome: label, inequality certificate, derived data.

    ``certificate`` lists every membership inequality in evaluation order as
    (name, lhs value, satisfied); the label is OutsideModuli exactly when one
    of them fails.
    """

    label: RegionLabel
    certificate: tuple[tuple[str, float, bool], ...]
    derived: DerivedParams


def _reduce_to_unit_curvature(p: ModuliPoint) -> ModuliPoint:
    # Dilatation (x, y) -> (x, y)/s sends (c0, c, d) to (sign, c/s^4, d/s^4).
    sign, scale = normalize_curvature(p.c0)
    if scale == 1.0:
        return ModuliPoint(float(sign), p.c, p.d) if p.c0 != sign else p
    s4 = scale ** 4
    return ModuliPoint(float(sign), p.c / s4, p.d / s4)


def classify(p: ModuliPoint, a: float | None = None) -> RegionReport:
    """Classify a moduli point into its surface family.

    General curvatures are first reduced to sign(c0) by dilatation; the
    certificate and derived parameters refer to the reduced point.  Boundary
    loci (delta = 0, the axes c = 0 and d = 0) get their own, more specific
    labels and count as inside the moduli.
    """
    p.validate()
    q = _reduce_to_unit_curvature(p)
    dp = derive_params(q, a)
    cert: list[tuple[str, float, bool]] = []

    if q.c0 > 0:
        cert.append(("c <= 0", q.c, q.c <= 0))
        cert.append(("d <= 0", q.d, q.d <= 0))
        if not all(ok for _, _, ok in cert):
            return RegionReport(RegionLabel.OUTSIDE_MODULI, tuple(cert), dp)
        if q.c == 0 and q.d == 0:
            label = RegionLabel.FLAT_VERTICAL_ANNULUS
        elif q.c == 0:
            label = RegionLabel.ONDULOID_ROTATIONAL
        elif q.d == 0:
            label = RegionLabel.HELICOID_S2
        else:
            label = RegionLabel.RIEMANN_TYPE_S2
        return RegionReport(label, tuple(cert), dp)

    cert.append(("delta >= 0", dp.delta, dp.delta >= 0))
    if dp.delta >= 0:
        cert.append(("x_plus >= 0", dp.xplus, dp.xplus >= 0))
        cert.append(("y_plus >= 0", dp.yplus, dp.yplus >= 0))
    if not all(ok for _, _, ok in cert):
        return RegionReport(RegionLabel.OUTSIDE_MODULI, tuple(cert), dp)

    if q.c0 == 0:
        label = (
            RegionLabel.VERTICAL_GEODESIC_PLANE
            if q.c == 0
            else RegionLabel.CLASSICAL_RIEMANN_R3
            if q.c < 0
            else RegionLabel.OUTSIDE_MODULI
        )
        return RegionReport(label, tuple(cert), dp)

    # hyperbolic ambient: one-parameter boundary families first
    if dp.delta == 0:
        label = RegionLabel.GAMMA_HELICOIDAL_TYPE
    elif q.c == 0 and q.d == 0:
        label = RegionLabel.VERTICAL_GEODESIC_PLANE
    elif q.d == 0:
        label = (
            RegionLabel.HORIZONTAL_GEODESIC_FOLIATION if q.c > 0 else RegionLabel.OBLIQUE_PLANE
        )
    elif q.c == 0:
        if q.d > 1:
            label = RegionLabel.CATENOID_ROTATIONAL
        elif q.d > 0:
            label = RegionLabel.CATENOID_EQUIDISTANT
        else:
            label = RegionLabel.GRAPH_EQUIDISTANT
    elif q.c < 0 and q.d > 0:
        label = RegionLabel.ANNULUS_FAMILY
    elif q.c > 0 and q.d < 0:
        label = RegionLabel.ONDULATED_HELICOID
    elif q.c > 0 and q.d > 0:
        label = RegionLabel.BLOWED_HELICOID
    else:
        label = RegionLabel.RIEMANN_FAMILY_H2
    return RegionReport(label, tuple(cert), dp)


def _cell_label(c0: float, c: float, d: float) -> RegionLabel:
    try:
        return classify(ModuliPoint(c0, c, d)).label
    except InvalidParams:
        # scan cells off the c = d diagonal at c0 = 0 carry no surface
        return RegionLabel.OUTSIDE_MODULI


def moduli_scan(
    c0: float,
    rect: tuple[float, float, float, float],
    nx: int,
    ny: int,
) -> list[list[RegionLabel]]:
    """Label the nx-by-ny cell centers of a (c, d) rectangle, row-major in d."""
    cmin, cmax, dmin, dmax = rect
    if nx < 2 or ny < 2:
        raise InvalidParams(f"scan needs nx, ny >= 2, got {nx}, {ny}")
    if not (cmin < cmax and dmin < dmax):
        raise InvalidParams(f"degenerate scan rectangle {rect}")
    wc = (cmax - cmin) / nx
    wd = (dmax - dmin) / ny
    centers_c = [cmin + (i + 0.5) * wc for i in range(nx)]
    centers_d = [dmin + (j + 0.5) * wd for j in range(ny)]
    return [[_cell_label(c0, c, d) for c in centers_c] for d in centers_d]


def scan_csv(c0, rect, nx, ny) -> str:
    """moduli_scan as CSV text: header c,d,label, one row per cell."""
    cmin, cmax, dmin, dmax = rect
    grid = moduli_scan(c0, rect, nx, ny)
    wc = (cmax - cmin) / nx
    wd = (dmax - dmin) / ny
    cs = [repr(cmin + (i + 0.5) * wc) for i in range(nx)]
    lines = ["c,d,label"]
    for j, row in enumerate(grid):
        d = repr(dmin + (j + 0.5) * wd)
        lines += [f"{c},{d},{label.value}" for c, label in zip(cs, row)]
    return "\n".join(lines) + "\n"


def classification_document(p: ModuliPoint, report: RegionReport) -> dict:
    """JSON-ready document for a classification result."""
    return {
        "c0": p.c0,
        "c": p.c,
        "d": p.d,
        "label": report.label.value,
        "certificate": [
            {"name": name, "value": value, "ok": ok}
            for name, value, ok in report.certificate
        ],
        "derived": report.derived.document(),
    }
