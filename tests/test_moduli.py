import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foliata.errors import InvalidParams
from foliata.moduli import (
    _SCALAR,
    ModuliPoint,
    RegionLabel,
    _array_namespace,
    _classify,
    _derive,
    classification_document,
    classify,
    derive_params,
    moduli_scan,
    normalize_curvature,
    scan_csv,
)

EPS = np.finfo(float).eps


def test_normalize_curvature():
    assert normalize_curvature(-4.0) == (-1, 2.0)
    assert normalize_curvature(0.0) == (0, 1.0)
    assert normalize_curvature(1.0) == (1, 1.0)
    with pytest.raises(InvalidParams):
        normalize_curvature(float("nan"))


def test_derive_params_hand_worked():
    dp = derive_params(ModuliPoint(-1, -1, 1))
    assert dp.a == 2.0
    assert dp.cbar == 1.0
    assert dp.dbar == -3.0
    assert dp.delta == 5.0
    # independent quadratic oracle
    xr = sorted(np.roots([1.0, dp.cbar, -1.0]).real)
    yr = sorted(np.roots([1.0, dp.dbar, 1.0]).real)
    assert dp.xminus == pytest.approx(xr[0], abs=1e-12)
    assert dp.xplus == pytest.approx(xr[1], abs=1e-12)
    assert dp.yminus == pytest.approx(yr[0], abs=1e-12)
    assert dp.yplus == pytest.approx(yr[1], abs=1e-12)
    assert dp.xplus == pytest.approx((-1 + math.sqrt(5)) / 2)
    assert dp.yplus == pytest.approx((3 + math.sqrt(5)) / 2)
    # root identity X+ + Y- = 1
    assert dp.xplus + dp.yminus == pytest.approx(1.0, abs=8 * EPS)


def test_derive_params_trivial_point():
    dp = derive_params(ModuliPoint(-1, 0, 0))
    assert dp.delta == 1.0
    assert (dp.xminus, dp.xplus, dp.yminus, dp.yplus) == (0.0, 1.0, 0.0, 1.0)


def test_derive_params_roots_absent_when_delta_negative():
    dp = derive_params(ModuliPoint(-1, 1, 2.5))
    assert dp.delta == pytest.approx(-3.75)
    assert dp.xplus is None and dp.yminus is None


def test_derive_params_flat_needs_c_equals_d():
    with pytest.raises(InvalidParams):
        derive_params(ModuliPoint(0, 1.0, 2.0))
    dp = derive_params(ModuliPoint(0, -1.0, -1.0), a=0.5)
    assert dp.cbar == 0.5 and dp.dbar == -0.5


def test_recovered_constants_round_trip():
    dp = derive_params(ModuliPoint(-1, -0.3, 0.7))
    assert (dp.c_const, dp.d_const) == (-0.3, 0.7)
    # a zero constant stays zero where delta = (c0 + a)^2 - 4c rounds
    dp = derive_params(ModuliPoint(1, -1.0862297129252647, 0))
    assert dp.d_const == 0.0 and dp.dbar**2 != dp.delta
    # and the curvature is the point's own, 1 ulp above (cbar + dbar) / 2 here
    dp = derive_params(ModuliPoint(1, -1.383, -0.2))
    assert dp.c0 == 1.0 and (dp.cbar + dp.dbar) / 2 != 1.0


CLASSIFY_CASES = [
    ((1, 0, -0.5), RegionLabel.ONDULOID_ROTATIONAL),
    ((1, -1, 0), RegionLabel.HELICOID_S2),
    ((1, -1, -1), RegionLabel.RIEMANN_TYPE_S2),
    ((1, 0, 0), RegionLabel.FLAT_VERTICAL_ANNULUS),
    ((1, 0.1, -1), RegionLabel.OUTSIDE_MODULI),
    ((-1, 0.25, 0.25), RegionLabel.GAMMA_HELICOIDAL_TYPE),
    ((-1, 0, 1), RegionLabel.GAMMA_HELICOIDAL_TYPE),
    ((-1, 0.5, 0), RegionLabel.HORIZONTAL_GEODESIC_FOLIATION),
    ((-1, -0.5, 0), RegionLabel.OBLIQUE_PLANE),
    ((-1, 0, 2), RegionLabel.CATENOID_ROTATIONAL),
    ((-1, 0, 0.5), RegionLabel.CATENOID_EQUIDISTANT),
    ((-1, 0, -0.5), RegionLabel.GRAPH_EQUIDISTANT),
    ((-1, 0, 0), RegionLabel.VERTICAL_GEODESIC_PLANE),
    ((-1, -1, 1), RegionLabel.ANNULUS_FAMILY),
    ((-1, 1, -1), RegionLabel.ONDULATED_HELICOID),
    ((-1, 1, 1), RegionLabel.OUTSIDE_MODULI),
    ((-1, 0.25, 0.1), RegionLabel.BLOWED_HELICOID),
    ((-1, -1, -1), RegionLabel.RIEMANN_FAMILY_H2),
    ((-1, 1, 2.5), RegionLabel.OUTSIDE_MODULI),
    ((0, -0.25, -0.25), RegionLabel.CLASSICAL_RIEMANN_R3),
    ((0, 0, 0), RegionLabel.VERTICAL_GEODESIC_PLANE),
    ((0, 1, 1), RegionLabel.OUTSIDE_MODULI),
]


@pytest.mark.parametrize("point,label", CLASSIFY_CASES)
def test_classify(point, label):
    report = classify(ModuliPoint(*point))
    assert report.label is label
    inside = all(ok for _, _, ok in report.certificate)
    assert inside == (label is not RegionLabel.OUTSIDE_MODULI)


def test_classify_certificate_records_failing_inequality():
    report = classify(ModuliPoint(-1, 1, 2.5))
    name, value, ok = report.certificate[0]
    assert name == "delta >= 0" and value == pytest.approx(-3.75) and not ok


@pytest.mark.parametrize(
    "c, a", [(1e-10, 1e10), (0.25, -1.0), (-0.25, 3.0), (0.0, 2.0), (1.0, 0.0)]
)
def test_flat_certificate_fails_exactly_when_outside(c, a):
    # at c = 1e-10, a = 1e10 the roots pass (x_plus rounds to 0.0); c > 0 alone
    # puts the point outside, so the certificate must carry c <= 0
    report = classify(ModuliPoint(0, c, c), a=a)
    inside = all(ok for _, _, ok in report.certificate)
    assert inside == (report.label is not RegionLabel.OUTSIDE_MODULI)
    assert ("c <= 0", c, c <= 0) in report.certificate


def test_classify_reduces_general_curvature_by_dilatation():
    # (c0, c, d) -> (sign, c/s^4, d/s^4) preserves the label
    base = classify(ModuliPoint(-1, -1, 1))
    scaled = classify(ModuliPoint(-4, -16, 16))
    assert scaled.label is base.label
    assert scaled.derived == base.derived
    assert classify(ModuliPoint(9, -81 * 0.5, 0)).label is RegionLabel.HELICOID_S2
    # one ulp above 1, sqrt(c0) rounds to 1.0; the reduced curvature is still 1
    near = classify(ModuliPoint(1.0000000000000002, -0.3, -0.7))
    assert near.derived == classify(ModuliPoint(1.0, -0.3, -0.7)).derived


@pytest.mark.parametrize("c0, c, d, label", [
    (1e-200, 0.0, 0.0, RegionLabel.FLAT_VERTICAL_ANNULUS),
    (-1e-200, 0.0, 0.0, RegionLabel.VERTICAL_GEODESIC_PLANE),
    (1e-200, -1e-300, -1e-300, RegionLabel.RIEMANN_TYPE_S2),
])
def test_dilatation_of_tiny_curvature_does_not_underflow(c0, c, d, label):
    # s^4 = c0^2 underflows to 0 here; the reduced point is (sign, c/c0^2, d/c0^2)
    assert classify(ModuliPoint(c0, c, d)).label is label


def test_root_sum_identities_bulk():
    # X- + Y+ = X+ + Y- = -c0, the "sum to one" identity at c0 = -1
    rng = np.random.default_rng(7)
    for c0 in (-1.0, 1.0):
        count = 0
        while count < 2000:
            c, d = rng.uniform(-2, 2, size=2)
            dp = derive_params(ModuliPoint(c0, c, d))
            if dp.delta < 0:
                continue
            count += 1
            assert abs(dp.xminus + dp.yplus + c0) <= 8 * EPS
            assert abs(dp.xplus + dp.yminus + c0) <= 8 * EPS


def test_shared_discriminant_bulk():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        c0 = rng.choice([-2.0, -1.0, 1.0, 3.0])
        c, d = rng.uniform(-3, 3, size=2)
        dp = derive_params(ModuliPoint(c0, c, d))
        other = dp.dbar**2 - 4 * dp.d_const
        scale = max(1.0, abs(dp.delta), abs(other))
        assert abs(dp.delta - other) <= 1e-12 * scale


def _conjugate_label(label: RegionLabel, c0: float, c: float) -> RegionLabel:
    """sigma: the label of (c0, d, c), given the label of (c0, c, d)."""
    L = RegionLabel
    if label is L.HORIZONTAL_GEODESIC_FOLIATION:  # d = 0 < c goes to c' = 0 < d'
        return L.CATENOID_ROTATIONAL if c > c0 * c0 else L.CATENOID_EQUIDISTANT
    pairs = {L.ANNULUS_FAMILY: L.ONDULATED_HELICOID, L.GRAPH_EQUIDISTANT: L.OBLIQUE_PLANE,
             L.HELICOID_S2: L.ONDULOID_ROTATIONAL}
    pairs.update({v: k for k, v in pairs.items()})
    pairs[L.CATENOID_ROTATIONAL] = pairs[L.CATENOID_EQUIDISTANT] = L.HORIZONTAL_GEODESIC_FOLIATION
    return pairs.get(label, label)


def test_swapped_profiles_take_the_conjugate_label():
    # (c0, c, d) -> (c0, d, c) swaps the x- and y-profiles, which gives the
    # conjugate surface: its label is sigma of the label, and delta, one
    # rational in both forms, agrees to rounding.  The curve delta = 0 is left
    # out: each side rounds its own delta, so a point on it may fall on either
    # side of the curve until the labels are exact (ROADMAP item 13)
    rng = np.random.default_rng(18)
    xp, n = _array_namespace(), 5000
    for c0 in (-1.0, 1.0, -4.0, 0.25):
        c, d = rng.uniform(-3, 3, size=(2, n))
        c[rng.random(n) < 0.15] = 0.0
        d[rng.random(n) < 0.15] = 0.0
        dp, _, labels = _classify(c0, c, d, None, xp)
        dp_swapped, _, swapped = _classify(c0, d, c, None, xp)
        for point, label, label_swapped in zip(zip(c.tolist(), d.tolist()), labels, swapped):
            assert label_swapped is _conjugate_label(label, c0, point[0]), (c0, point)
        assert (abs(dp_swapped.delta - dp.delta) <= 1e-12 * np.maximum(1.0, abs(dp.delta))).all()


def test_membership_matches_region_complement_description():
    # the inequality set {delta >= 0, X+ >= 0, Y+ >= 0} must carve out the
    # same region as the complement description
    # {delta >= 0 and c-1 <= d <= c+1} union {c <= 0} union {d <= 0}
    rng = np.random.default_rng(3)
    for _ in range(5000):
        c, d = rng.uniform(-4, 4, size=2)
        dp = derive_params(ModuliPoint(-1, c, d))
        mine = dp.delta >= 0 and dp.xplus >= 0 and dp.yplus >= 0
        union = (dp.delta >= 0 and c - 1 <= d <= c + 1) or c <= 0 or d <= 0
        assert mine == union, (c, d)


def test_moduli_scan_spec_cells():
    grid = moduli_scan(-1, (-2, 2, -2, 2), 4, 4)
    assert len(grid) == 4 and len(grid[0]) == 4
    assert grid[0][0] is RegionLabel.RIEMANN_FAMILY_H2  # cell center (-1.5, -1.5)
    grid2 = moduli_scan(1, (-1, -0.1, -1, -0.1), 2, 2)
    assert {lbl for row in grid2 for lbl in row} == {RegionLabel.RIEMANN_TYPE_S2}
    grid3 = moduli_scan(-1, (0.9, 1.1, 0.9, 1.1), 3, 3)
    assert grid3[1][1] is RegionLabel.OUTSIDE_MODULI


def test_moduli_scan_d_axis_row_is_inside():
    # g's quadratic has a root at exactly 0 on d = 0; the textbook formula
    # read it as -8e-17 in 88 of these 200 cells, which fell outside
    row = moduli_scan(-1, (1, 3, -1.5, 1.5), 200, 3)[1]  # cell centers d = -1, 0, 1
    assert set(row) == {RegionLabel.HORIZONTAL_GEODESIC_FOLIATION}


def test_moduli_scan_matches_transposed_evaluation():
    rect = (-1.5, 1.5, -1.5, 1.5)
    nx, ny = 5, 7
    grid = moduli_scan(-1, rect, nx, ny)
    wc = (rect[1] - rect[0]) / nx
    wd = (rect[3] - rect[2]) / ny
    for i in range(nx):  # transposed loop order
        for j in range(ny):
            c = rect[0] + (i + 0.5) * wc
            d = rect[2] + (j + 0.5) * wd
            assert grid[j][i] is classify(ModuliPoint(-1, c, d)).label


def test_moduli_scan_rejects_degenerate_rect():
    with pytest.raises(InvalidParams):
        moduli_scan(-1, (0, 0, -1, 1), 4, 4)
    with pytest.raises(InvalidParams):
        moduli_scan(-1, (0, 1, 0, 1), 1, 4)


def test_moduli_scan_flat_curvature_off_diagonal_cells():
    # at c0 = 0 only c = d carries a surface; other cells scan as outside
    grid = moduli_scan(0, (-1, 1, -1, 1), 4, 4)
    assert grid[0][3] is RegionLabel.OUTSIDE_MODULI
    assert grid[0][0] is RegionLabel.CLASSICAL_RIEMANN_R3  # center (-0.75, -0.75)
    # c and d a hair apart: the two discriminant forms agree, yet no surface
    near = moduli_scan(0, (-1.5, -0.5, -1.5 + 2**-40, -0.5 + 2**-40), 2, 2)
    assert near[0][0] is RegionLabel.OUTSIDE_MODULI


def _scan_label(c0, c, d):
    try:
        return classify(ModuliPoint(c0, c, d)).label
    except InvalidParams:
        return RegionLabel.OUTSIDE_MODULI


@settings(max_examples=40)
@given(
    c0=st.sampled_from([-4.0, -1.0, 0.0, 1.0, 9.0]),
    k=st.integers(1, 4),
    on_curve=st.booleans(),
    q=st.integers(-6, 6),
    nx=st.integers(2, 7),
    ny=st.integers(2, 7),
    i0=st.integers(0, 6),
    j0=st.integers(0, 6),
)
@example(c0=0.0, k=2, on_curve=False, q=0, nx=5, ny=5, i0=2, j0=2)  # c = d and c != d
@example(c0=-1.0, k=2, on_curve=True, q=-2, nx=3, ny=3, i0=1, j0=1)  # s = -1/2
def test_moduli_scan_matches_classify_on_boundary_loci(c0, k, on_curve, q, nx, ny, i0, j0):
    # Centers (p + i) h with a dyadic h are exact.  They hit the axes c = 0 and
    # d = 0 or, with h = 2^-2k, the point (s^2, (1 + s)^2) of the delta = 0
    # curve at s = q 2^-k.  The rect is scaled by c0^2 so that the dilatation
    # to unit curvature lands on the same exact values.
    i0, j0 = min(i0, nx - 1), min(j0, ny - 1)
    if on_curve:
        h = 2.0 ** (-2 * k)
        pc, pd = q * q - i0, (2**k + q) ** 2 - j0
    else:
        h = 2.0 ** -k
        pc, pd = -i0, -j0
    scale = c0 * c0 if c0 else 1.0
    rect = (scale * (pc - 0.5) * h, scale * (pc - 0.5 + nx) * h,
            scale * (pd - 0.5) * h, scale * (pd - 0.5 + ny) * h)
    grid = moduli_scan(c0, rect, nx, ny)
    cs = [scale * (pc + i) * h for i in range(nx)]
    ds = [scale * (pd + j) * h for j in range(ny)]
    lines = scan_csv(c0, rect, nx, ny).splitlines()[1:]
    assert lines[j0 * nx + i0].split(",")[:2] == [repr(cs[i0]), repr(ds[j0])]
    for j, d in enumerate(ds):
        for i, c in enumerate(cs):
            assert grid[j][i] is _scan_label(c0, c, d), (c, d)
    if on_curve and c0 in (-4.0, -1.0):
        assert derive_params(ModuliPoint(c0, cs[i0], ds[j0])).delta == 0.0


@settings(max_examples=60)
@given(
    c0=st.sampled_from([-4.0, -1.0, 1.0]),
    c=st.floats(-4, 4).filter(lambda v: v == 0 or abs(v) >= 1e-290),
    d=st.floats(-4, 4).filter(lambda v: v == 0 or abs(v) >= 1e-290),
    k=st.integers(-3, 3),
)
@example(c0=-1.0, c=0.25, d=2.25, k=-2)  # on delta = 0
@example(c0=-1.0, c=0.0, d=0.5, k=3)
def test_classify_dilatation_invariance(c0, c, d, k):
    # (c0, c, d) -> (c0 s^2, c s^4, d s^4) is exact for s = 2^k
    s2 = 4.0**k
    try:
        base = classify(ModuliPoint(c0, c, d))
    except InvalidParams:
        with pytest.raises(InvalidParams):
            classify(ModuliPoint(c0 * s2, c * s2 * s2, d * s2 * s2))
        return
    scaled = classify(ModuliPoint(c0 * s2, c * s2 * s2, d * s2 * s2))
    assert scaled.label is base.label
    assert scaled.derived == base.derived


def test_overflowing_discriminant_is_invalid():
    # |a| >~ 1.3e154 overflows (c0 + a)^2: no label, no derived data
    for point in [(-1, 1e300, -1e300), (1, -1e200, -1e-10), (-4, 0.0, 1e300)]:
        with pytest.raises(InvalidParams):
            derive_params(ModuliPoint(*point))
        with pytest.raises(InvalidParams):
            classify(ModuliPoint(*point))
    with pytest.raises(InvalidParams):
        derive_params(ModuliPoint(0, 1.0, 1.0), a=1e300)


def test_moduli_scan_masks_overflowing_discriminant():
    # centers -2e300, 0, 2e300: off the diagonal a = d - c overflows delta
    centers = [-2e300, 0.0, 2e300]
    grid = moduli_scan(-1, (-3e300, 3e300, -3e300, 3e300), 3, 3)
    assert grid[0][2] is RegionLabel.OUTSIDE_MODULI
    assert grid[0][0] is RegionLabel.RIEMANN_FAMILY_H2  # a = 0: delta = 1 + 8e300
    for j, d in enumerate(centers):
        for i, c in enumerate(centers):
            assert grid[j][i] is _scan_label(-1, c, d), (c, d)
    with pytest.raises(InvalidParams):
        classify(ModuliPoint(-1, 2e300, -2e300))


def test_moduli_scan_non_finite_curvature_has_no_surface():
    for c0 in (math.nan, math.inf):
        grid = moduli_scan(c0, (-1, 1, -1, 1), 3, 2)
        assert grid == [[RegionLabel.OUTSIDE_MODULI] * 3] * 2


def test_scan_csv_format():
    text = scan_csv(1, (-1, 0, -1, 0), 2, 2)
    lines = text.splitlines()
    assert lines[0] == "c,d,label"
    assert len(lines) == 5
    assert lines[1] == "-0.75,-0.75,RiemannTypeS2"
    assert text.endswith("\n") and "\r" not in text


def test_classification_document_shape():
    p = ModuliPoint(-1, -1, 1)
    doc = classification_document(p, classify(p))
    assert set(doc) == {"c0", "c", "d", "label", "certificate", "derived"}
    assert doc["label"] == "AnnulusFamily"
    assert set(doc["derived"]) == {
        "a", "cbar", "dbar", "delta", "xminus", "xplus", "yminus", "yplus"
    }
    assert all(set(item) == {"name", "value", "ok"} for item in doc["certificate"])


#: Finite floats at the edges of the format: signed zeros, subnormals, values
#: whose squares overflow and curvatures whose dilatation scale underflows.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-200, -1e-200, 1e-154, 1.0, -1.0,
         0.25, 2.25, 1e154, -1e154, 1e300, -1e300, 1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-4, 4))
CURVATURE = st.one_of(st.sampled_from([-4.0, -1.0, 0.0, -0.0, 1.0, 9.0]), FINITE)


def _same(x, y) -> bool:
    """x and y are the same double, bit for bit, or both NaN."""
    x, y = float(np.asarray(x).item()), float(np.asarray(y).item())
    return (math.isnan(x) and math.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


def _assert_same_derived(dp_s, dp_a):
    """The DerivedParams of one point, on floats and on 1-element arrays."""
    for field in dp_s._fields:
        assert _same(getattr(dp_s, field), getattr(dp_a, field)), field


@settings(max_examples=300)
@given(c0=CURVATURE, c=FINITE, d=FINITE, a=st.one_of(st.none(), FINITE))
@example(c0=-1.0, c=-0.0, d=0.0, a=None)
@example(c0=1.0, c=5e-324, d=-5e-324, a=None)
@example(c0=-1e-200, c=1e-300, d=-1e-300, a=None)  # scaled: c / s^4 overflows
@example(c0=1e-200, c=-1e-300, d=0.0, a=None)
@example(c0=-1.0, c=1e300, d=-1e300, a=None)  # (c0 + a)^2 overflows
@example(c0=0.0, c=-1.0, d=-1.0, a=-0.0)
@example(c0=0.0, c=1e-310, d=1e-310, a=1e300)
def test_scalar_and_array_namespaces_agree_bit_for_bit(c0, c, d, a):
    # classify runs _derive and _classify on Python floats, moduli_scan on
    # arrays: the one rule table must give the same doubles and labels
    arrays, cs, ds = _array_namespace(), np.array([c]), np.array([d])
    _assert_same_derived(_derive(c0, c, d, a, _SCALAR), _derive(c0, cs, ds, a, arrays))
    derived_s, member_s, label_s = _classify(c0, c, d, a, _SCALAR)
    derived_a, member_a, label_a = _classify(c0, cs, ds, a, arrays)
    _assert_same_derived(derived_s, derived_a)
    assert [name for name, _, _ in member_s] == [name for name, _, _ in member_a]
    for (_, lhs_s, sat_s), (_, lhs_a, sat_a) in zip(member_s, member_a):
        assert _same(lhs_s, lhs_a) and sat_s is bool(np.asarray(sat_a).item())
    assert isinstance(label_s, RegionLabel) and label_s is label_a.item()
