"""Parameter algebra and classification of the (c0, c, d) moduli plane.

A surface in the family is indexed by the ambient curvature c0 and the two
first-integral constants (c, d) of its profile functions.  The separation
constant is a = (c - d)/c0 for c0 != 0, and the quadratics

    P(X) = X^2 + (c0 + a) X + c,      Q(Y) = Y^2 + (c0 - a) Y + d

share one discriminant  delta = (c0 + a)^2 - 4c = (c0 - a)^2 - 4d.  Profiles
exist iff delta >= 0 and the larger roots X+, Y+ are nonnegative; for c0 > 0
this reduces to c <= 0 and d <= 0, and flat space (c0 = 0, c = d) also needs
c <= 0.  The root sums obey X- + Y+ = X+ + Y- =
-c0, which for the hyperbolic plane is the classical "sum to one" identity.
The roots are computed once, by ``_roots``, and every profile reads them.

The algebra and the label rules are written once, in ``_derive`` and
``_classify``, over primitives taken from a namespace passed in: ``_SCALAR``,
built on ``math``, runs them on Python floats for ``classify`` and
``derive_params``, and the numpy namespace of ``moduli_scan`` runs them over
arrays of cell centers at one c0.  The two give bit-identical results, and a
one-point lookup imports no numpy.  Scan cells that carry no surface (c != d
at c0 = 0, a failed discriminant check, a non-finite c0) are labelled
OutsideModuli.

This is the layer that ``classify`` loads, so it must load light, like
``_SCALAR``: its three records are named tuples, not dataclasses, whose
import (with the ``inspect``, ``ast`` and ``tokenize`` it pulls in) would
cost a fresh interpreter far more than the classification.
"""

from __future__ import annotations

import contextlib
import enum
import math
import operator
from collections import namedtuple
from itertools import chain
from types import SimpleNamespace

from ._jsonfmt import BLOCK_VALUES
from .errors import InvalidParams

#: Relative tolerance for the shared-discriminant cross-check.
DISCRIMINANT_RTOL = 1e-12
#: Most cells of a scan.  A larger scan is refused before its cell centers
#: are built.
MAX_CELLS = 10**7


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


class ModuliPoint(namedtuple("ModuliPoint", "c0 c d")):
    """A point (c0, c, d) of the parameter space."""

    __slots__ = ()

    def validate(self) -> None:
        for name, v in (("c0", self.c0), ("c", self.c), ("d", self.d)):
            if not math.isfinite(v):
                raise InvalidParams(f"{name} must be finite, got {v}")
        if self.c0 == 0 and self.c != self.d:
            raise InvalidParams(
                f"flat ambient space requires c = d, got c={self.c}, d={self.d}"
            )


class DerivedParams(namedtuple("DerivedParams", "a cbar dbar delta xminus xplus yminus yplus "
                                                "c_const d_const c0")):
    """Separation constant, quadratic coefficients and roots at one point.

    Every field is a float, except that the roots are None where they do
    not exist.  Root labels are ordered xminus <= xplus and yminus <= yplus,
    with ties at delta = 0.  ``c_const`` and ``d_const`` are the first-integral
    constants of the x- and y-profiles and ``c0`` the curvature: the point's
    own c, d and c0, so a zero constant stays exactly zero and a field holds
    the c0 it was given.
    """

    __slots__ = ()

    def document(self) -> dict:
        """JSON-ready fields in declaration order, as every output writes
        them, without the point's c, d and c0, which a document echoes."""
        doc = self._asdict()
        del doc["c_const"], doc["d_const"], doc["c0"]
        return doc


def _nan_maximum(x: float, y: float) -> float:
    """max(x, y), NaN if either is, as np.maximum."""
    return x + y if math.isnan(x) or math.isnan(y) else max(x, y)


def _first(conditions, choices):
    """The choice of the first true condition."""
    return next(choice for cond, choice in zip(conditions, choices) if cond)


#: The primitives of _derive and _classify over Python floats.
_SCALAR = SimpleNamespace(
    errstate=lambda **_: contextlib.nullcontext(),  # float arithmetic overflows to inf silently
    maximum=_nan_maximum,
    isfinite=math.isfinite,
    sqrt=lambda v: math.sqrt(v) if v >= 0 else math.nan,  # as np.sqrt, NaN below 0
    copysign=math.copysign,
    where=lambda cond, x, y: x if cond else y,
    logical_not=operator.not_,  # ~ on a bool gives -1 or -2
    all=all,
    select=_first,
)


def _array_namespace() -> SimpleNamespace:
    """The primitives of _derive and _classify over numpy arrays."""
    import numpy as np

    def select(conditions, choices):
        # select positions, not choices: np.select would turn the labels into str
        return np.array(choices, dtype=object)[np.select(conditions, range(len(choices)))]

    return SimpleNamespace(
        errstate=np.errstate,
        maximum=np.maximum,
        isfinite=np.isfinite,
        sqrt=np.sqrt,
        copysign=np.copysign,
        where=np.where,
        logical_not=np.logical_not,
        all=np.logical_and.reduce,
        select=select,
    )


def _derive(c0: float, c, d, a: float | None, xp: SimpleNamespace):
    """derive_params over (c, d) at one c0, NaN roots where they do not exist,
    in the primitives of ``xp``: Python floats with _SCALAR, arrays with numpy's.

    Also returns the mirror form dbar^2 - 4d of delta and where both forms
    are finite and agree to DISCRIMINANT_RTOL.
    """
    if c0 == 0 and a is not None and not math.isfinite(a):
        raise InvalidParams(f"separation constant must be finite, got {a}")
    with xp.errstate(all="ignore"):
        a = (c - d) / c0 if c0 != 0 else (0.0 if a is None else float(a))
        cbar = c0 + a
        dbar = c0 - a
        delta = cbar * cbar - 4.0 * c
        mirror = dbar * dbar - 4.0 * d
        scale = xp.maximum(1.0, xp.maximum(abs(delta), abs(mirror)))  # NaN if either is
        ok = xp.isfinite(scale) & (abs(delta - mirror) <= DISCRIMINANT_RTOL * scale)
        sq = xp.sqrt(delta)
        roots = *_roots(cbar, c, sq, xp), *_roots(dbar, d, sq, xp)
    return DerivedParams(a, cbar, dbar, delta, *roots, c, d, c0), mirror, ok


def _roots(coef, const, sq, xp: SimpleNamespace):
    """The roots r- <= r+ of X^2 + coef X + const, sq the square root of its
    discriminant, NaN where they do not exist: the larger in magnitude by the
    textbook formula, the other as const / (the first), which does not cancel
    (Higham, Accuracy and Stability of Numerical Algorithms, 1.8), so a zero
    constant gives a root of exactly 0.0, and an underflowed quotient of a
    nonzero constant keeps its sign as the least subnormal."""
    big = -0.5 * (coef + xp.copysign(sq, coef))
    # big = 0 only at coef = delta = 0, where R = X^2 + const: Q's d need not be 0 there
    flat = big == 0
    pair = xp.sqrt(-const)
    small = xp.where(flat, pair, const / (big + flat))  # big + flat is never 0
    small = xp.where((small == 0) & (const != 0), xp.copysign(5e-324, const * big), small)
    big = xp.where(flat, -pair, big)
    return -xp.maximum(-big, -small) + 0.0, xp.maximum(big, small) + 0.0


def _point_params(dp: DerivedParams, mirror, ok) -> DerivedParams:
    # the scalar case, None for the roots that do not exist
    if not ok:
        raise InvalidParams(f"discriminants disagree or overflow: {dp.delta} vs {mirror}")
    return DerivedParams(*(None if math.isnan(v) else float(v) for v in dp))


def derive_params(p: ModuliPoint, a: float | None = None) -> DerivedParams:
    """Compute a, cbar = c0+a, dbar = c0-a, the shared discriminant and roots.

    For c0 != 0 the separation constant is forced to (c - d)/c0 and any given
    ``a`` is ignored; for c0 = 0 it is a free third parameter defaulting to 0.
    """
    p.validate()
    return _point_params(*_derive(p.c0, float(p.c), float(p.d), a, _SCALAR))


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


class RegionReport(namedtuple("RegionReport", "label certificate derived")):
    """Classification outcome: label, inequality certificate, derived data.

    ``label`` is a RegionLabel and ``derived`` the DerivedParams.
    ``certificate`` lists the membership inequalities in evaluation order as
    (name, lhs value, satisfied), without those on roots that do not exist;
    the label is OutsideModuli exactly when one of them fails or is left out.
    """

    __slots__ = ()


def _classify(c0: float, c, d, a: float | None, xp: SimpleNamespace):
    """Derived values, membership inequalities and labels over (c, d) at one
    c0, in the primitives of ``xp`` as for _derive.

    Returns the _derive triple, the inequalities as (name, lhs, satisfied) and
    the RegionLabel (an object array of them with numpy).  Each label comes
    from the first rule that holds: points with no surface first, then the
    boundary loci, then the open regions they bound.
    """
    sign, scale = normalize_curvature(c0)
    if c0 != sign:  # the dilatation (x, y) -> (x, y)/s gives (sign, c/s^4, d/s^4)
        # s^4 = c0^2 underflows to 0 below |c0| ~ 1.5e-154; s^2 ~ |c0| never does
        c0, s2 = float(sign), scale * scale
        with xp.errstate(all="ignore"):
            c, d = c / s2 / s2, d / s2 / s2
    dp, mirror, ok = _derive(c0, c, d, a, xp)
    L = RegionLabel
    if c0 > 0:
        member = [("c <= 0", c, c <= 0), ("d <= 0", d, d <= 0)]
    else:  # the roots are NaN where they do not exist, which fails their inequalities
        member = [(f"{name} >= 0", v, v >= 0)
                  for name, v in (("delta", dp.delta), ("x_plus", dp.xplus), ("y_plus", dp.yplus))]
        if c0 == 0:  # flat space carries no surface at c > 0
            member.append(("c <= 0", c, c <= 0))
    inside = xp.all([ok] + [sat for _, _, sat in member])
    rules = [(xp.logical_not(inside), L.OUTSIDE_MODULI)]
    if c0 > 0:
        rules += [
            ((c == 0) & (d == 0), L.FLAT_VERTICAL_ANNULUS),
            (c == 0, L.ONDULOID_ROTATIONAL),
            (d == 0, L.HELICOID_S2),
            (True, L.RIEMANN_TYPE_S2),
        ]
    elif c0 == 0:
        rules += [
            (c != d, L.OUTSIDE_MODULI),  # flat space has surfaces on the diagonal only
            (c == 0, L.VERTICAL_GEODESIC_PLANE),
            (True, L.CLASSICAL_RIEMANN_R3),
        ]
    else:
        rules += [
            (dp.delta == 0, L.GAMMA_HELICOIDAL_TYPE),
            ((c == 0) & (d == 0), L.VERTICAL_GEODESIC_PLANE),
            ((d == 0) & (c > 0), L.HORIZONTAL_GEODESIC_FOLIATION),
            (d == 0, L.OBLIQUE_PLANE),
            ((c == 0) & (d > 1), L.CATENOID_ROTATIONAL),
            ((c == 0) & (d > 0), L.CATENOID_EQUIDISTANT),
            (c == 0, L.GRAPH_EQUIDISTANT),
            ((c < 0) & (d > 0), L.ANNULUS_FAMILY),
            ((c > 0) & (d < 0), L.ONDULATED_HELICOID),
            ((c > 0) & (d > 0), L.BLOWED_HELICOID),
            (True, L.RIEMANN_FAMILY_H2),
        ]
    return dp, mirror, ok, member, xp.select(*zip(*rules))


def classify(p: ModuliPoint, a: float | None = None) -> RegionReport:
    """Classify a moduli point into its surface family.

    General curvatures are first reduced to sign(c0) by dilatation; the
    certificate and derived parameters refer to the reduced point.  Boundary
    loci (delta = 0, the axes c = 0 and d = 0) get their own, more specific
    labels and count as inside the moduli.
    """
    p.validate()
    *derived, member, label = _classify(p.c0, float(p.c), float(p.d), a, _SCALAR)
    dp = _point_params(*derived)
    # inequalities on roots that do not exist are left out
    cert = tuple((name, float(v), bool(sat)) for name, v, sat in member if not math.isnan(v))
    return RegionReport(label, cert, dp)


def _cell_centers(rect, nx: int, ny: int) -> tuple[list[float], list[float]]:
    cmin, cmax, dmin, dmax = rect
    if nx < 2 or ny < 2:
        raise InvalidParams(f"scan needs nx, ny >= 2, got {nx}, {ny}")
    if nx * ny > MAX_CELLS:
        raise InvalidParams(f"{nx} x {ny} scan cells, more than {MAX_CELLS}")
    if not (cmin < cmax and dmin < dmax):
        raise InvalidParams(f"degenerate scan rectangle {rect}")
    wc, wd = (cmax - cmin) / nx, (dmax - dmin) / ny
    if not (math.isfinite(wc) and math.isfinite(wd)):  # an infinite bound as well
        raise InvalidParams(f"scan rectangle {rect} has a bound or cell width that is not finite")
    return [cmin + (i + 0.5) * wc for i in range(nx)], [dmin + (j + 0.5) * wd for j in range(ny)]


def moduli_scan(
    c0: float,
    rect: tuple[float, float, float, float],
    nx: int,
    ny: int,
) -> list[list[RegionLabel]]:
    """Label the nx-by-ny cell centers of a (c, d) rectangle, row-major in d,
    classified ``BLOCK_VALUES // nx`` rows at a time."""
    import numpy as np

    centers_c, centers_d = _cell_centers(rect, nx, ny)
    if not math.isfinite(c0):
        return [[RegionLabel.OUTSIDE_MODULI] * nx for _ in range(ny)]
    xp = _array_namespace()
    size = max(BLOCK_VALUES // nx, 1)
    labels = []
    for lo in range(0, ny, size):
        cs, ds = np.meshgrid(centers_c, centers_d[lo:lo + size])
        labels += _classify(c0, cs, ds, None, xp)[-1].tolist()
    return labels


def scan_csv(c0, rect, nx, ny) -> str:
    """moduli_scan as CSV text: header c,d,label, one row per cell."""
    grid = moduli_scan(c0, rect, nx, ny)
    centers_c, centers_d = _cell_centers(rect, nx, ny)
    cs = list(map(repr, centers_c))
    text = {label: label.value for label in RegionLabel}
    pieces = ["c,d,label\n"]
    for d, row in zip(map(repr, centers_d), grid):
        # the c column interleaved with the row's line ends ",d,label\n"
        tails = {label: f",{d},{value}\n" for label, value in text.items()}
        pieces += chain.from_iterable(zip(cs, map(tails.__getitem__, row)))
    return "".join(pieces)


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
