import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from foliata.errors import (
    DriftExceeded,
    InvalidParams,
    NonOscillatory,
    NoRealSolution,
    NotDegenerate,
)
from foliata.moduli import ModuliPoint, RegionLabel, classify, derive_params
from foliata.profile import (
    ProfileFunction,
    _agm,
    admissible_interval,
    degenerate_constants,
    integrate_profile,
    period_from_ode,
    profile_period,
)

# frozen oracle: 4 * int_0^1 dt / sqrt(1 - t^4), evaluated to 16 digits with
# an independent quadrature at build time
LEMNISCATE_PERIOD = 5.2441151085842396


def dp(c0, c, d, a=None):
    return derive_params(ModuliPoint(c0, c, d), a)


def test_admissible_interval_examples():
    assert admissible_interval(dp(1, -1, 0), "F") == (0.0, 1.0)
    assert admissible_interval(dp(-1, 0, 0), "F") == (0.0, 1.0)
    lo, hi = admissible_interval(dp(-1, -1, 1), "G")
    assert lo == pytest.approx(0.3819660112501051)
    assert hi == pytest.approx(2.618033988749895)


def test_admissible_interval_failures():
    with pytest.raises(NoRealSolution):
        admissible_interval(dp(-1, 1, 2.5), "F")  # delta < 0
    with pytest.raises(NoRealSolution):
        # c0=1, c>0: upper root of X^2 + cbar X + c is negative
        admissible_interval(dp(1, 0.5, 0.1), "F")


def test_zero_constant_profile_rests_at_zero():
    # at (1, c, 0) g's constant is d = 0 exactly: the zero profile at every
    # c; where the point carries no surface (c > 0) the f profile is the
    # one with no real solution, one typed error
    rng = np.random.default_rng(45)
    for c in rng.uniform(-2, 1, 4000):
        d = dp(1, c, 0)
        fn = ProfileFunction(d, "G")
        assert fn.w0 == 0.0 and fn.dw0 == 0.0, c
        assert admissible_interval(d, "G") == (0.0, 0.0), c
        inside = classify(ModuliPoint(1, c, 0)).label != RegionLabel.OUTSIDE_MODULI
        assert inside == (c <= 0), c
        if c > 0:
            with pytest.raises(NoRealSolution, match="of the F quadratic are negative"):
                ProfileFunction(d, "F")


def _admits(params, kind):
    try:
        admissible_interval(params, kind)
    except NoRealSolution:
        return False
    return True


#: 0 or a magnitude in [1e-100, 1e6]: a quotient const / big of these stays
#: normal, where an underflowed root would read 0.0
CONSTANT = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@settings(max_examples=500)
@given(c0=st.sampled_from([0.0, 0.25, -0.25, 1.0, -1.0, 4.0, -4.0]), c=CONSTANT, d=CONSTANT)
@example(c0=-1.0, c=1.3779326785796648, d=0.0)  # the textbook y_plus read -8.3e-17
@example(c0=-1.0, c=1.0, d=6.25e-18)  # dbar = delta = 0 and d > 0: Y^2 + d has no root
@example(c0=1.0, c=5e-324, d=-5.0)  # c / big underflows: x_plus read 0.0, not -5e-324
@example(c0=1e100, c=1e-300, d=-1.0)  # c / s^4 underflows: c read 0.0, not 5e-324
def test_outside_moduli_exactly_where_a_profile_has_no_solution(c0, c, d):
    # classify and the profiles read the same roots; at the sampled c0 the
    # dilatation to sign(c0) scales c and d by a power of 2, exactly, and
    # where it underflows a nonzero constant keeps its sign
    point = ModuliPoint(c0, c, c if c0 == 0 else d)
    try:
        params = derive_params(point)
    except InvalidParams:
        assume(False)
    outside = classify(point).label is RegionLabel.OUTSIDE_MODULI
    assert outside == (not (_admits(params, "F") and _admits(params, "G")))


def test_canonical_initial_conditions():
    sol = integrate_profile(dp(1, -1, 0), "F", (0, 12), 1e-3)
    assert sol.values[0] == 0.0
    assert sol.derivs[0] == 1.0
    assert sol.values.min() == pytest.approx(-1.0, abs=1e-6)
    assert sol.values.max() == pytest.approx(1.0, abs=1e-6)


def test_positive_branch_initial_conditions():
    # oscillation between positive roots starts at the lower turning point
    d = dp(-1, 0.5, 0)
    m, _ = admissible_interval(d, "F")
    sol = integrate_profile(d, "F", (0, 5), 1e-3)
    assert sol.values[0] == pytest.approx(math.sqrt(m))
    assert sol.derivs[0] == 0.0
    assert sol.values.min() > 0


def test_first_integral_drift_and_halving():
    d = dp(1, -1, 0)
    period = profile_period(d, "F")
    coarse = integrate_profile(d, "F", (0, 10 * period), 1e-3)
    fine = integrate_profile(d, "F", (0, 10 * period), 5e-4)
    assert coarse.first_integral_drift <= 1e-9
    assert coarse.first_integral_drift >= 8 * fine.first_integral_drift


def test_drift_exceeded_for_absurd_step():
    with pytest.raises(DriftExceeded):
        integrate_profile(dp(1, -1, 0), "F", (0, 50), 0.5)


def test_drift_bound_lies_between_two_steps():
    # over [0, 20] the drift is 2.86e-8 at step 0.02 and 9.1e-7 at 0.04,
    # either side of 100 x DRIFT_TOL = 1e-7: the bound moved 100x either way
    # fails one of the two
    integrate_profile(dp(1, -1, 0), "F", (0, 20), 0.02)
    with pytest.raises(DriftExceeded):
        integrate_profile(dp(1, -1, 0), "F", (0, 20), 0.04)


def test_range_confinement():
    d = dp(-1, -1, 1)
    lo, hi = admissible_interval(d, "G")
    sol = integrate_profile(d, "G", (0, 20), 1e-3)
    sq = sol.values**2
    assert sq.min() >= lo - 1e-10
    assert sq.max() <= hi + 1e-10


def test_periodicity_and_antisymmetry():
    d = dp(1, -1, 0)
    sol = integrate_profile(d, "F", (0, 12), 1e-3)
    t = sol.period
    assert t is not None
    xs = np.array([0.3, 1.1, 2.7])
    f0, _ = sol.fn.eval_many(xs)
    f1, _ = sol.fn.eval_many(xs + t)
    assert np.abs(f1 - f0).max() <= 1e-8
    # sign-changing branch: f(x + T/2) = -f(x)
    fh, _ = sol.fn.eval_many(xs + t / 2)
    assert np.abs(fh + f0).max() <= 1e-8


def test_trivial_branch():
    sol = integrate_profile(dp(-1, 0, 0), "F", (0, 2), 1e-3, trivial=True)
    assert not sol.values.any() and not sol.derivs.any()
    assert sol.period is None
    with pytest.raises(InvalidParams):
        integrate_profile(dp(1, -1, 0), "F", (0, 2), 1e-3, trivial=True)


def test_lemniscatic_period():
    t = profile_period(dp(1, -1, 0), "F")
    assert t == pytest.approx(LEMNISCATE_PERIOD, abs=1e-10)
    assert t == pytest.approx(5.24412, abs=1e-5)


@pytest.mark.parametrize(
    "point,kind",
    [((1, -1, 0), "F"), ((-1, -0.25, 0), "F"), ((-1, -1, 1), "G"), ((-1, 0.5, 0), "F")],
)
def test_period_quadrature_vs_ode(point, kind):
    d = dp(*point)
    t_quad = profile_period(d, kind)
    t_ode = period_from_ode(d, kind)
    assert t_quad > 0
    assert abs(t_quad - t_ode) / t_quad <= 1e-8


def test_period_gamma_point_non_oscillatory():
    # on the discriminant-zero curve the profile is constant
    d = dp(-1, 0.25, 0.25)
    assert (1 + 0.25 - 0.25) ** 2 == 4 * 0.25
    with pytest.raises(NonOscillatory):
        profile_period(d, "F")


def test_period_homoclinic_non_oscillatory():
    with pytest.raises(NonOscillatory):
        profile_period(dp(-1, 0, -0.5), "F")  # c = 0 branch through the origin


def test_degenerate_constants():
    assert degenerate_constants(ModuliPoint(-1, 0, 1)) == (0.0, 1.0)
    assert degenerate_constants(ModuliPoint(-1, 1, 0)) == (1.0, 0.0)
    a, b = degenerate_constants(ModuliPoint(-1, 0.25, 0.25))
    assert a == pytest.approx(math.sqrt(0.5))
    assert b == pytest.approx(math.sqrt(0.5))
    assert a * a + b * b == pytest.approx(1.0, abs=1e-12)
    # every c0 < 0, with alpha^2 + beta^2 = -c0
    assert degenerate_constants(ModuliPoint(-4, 4, 4)) == (math.sqrt(2), math.sqrt(2))
    assert degenerate_constants(ModuliPoint(-4, 1, 9)) == (1.0, math.sqrt(3))


def test_degenerate_constants_rejects_off_curve():
    with pytest.raises(NotDegenerate):
        degenerate_constants(ModuliPoint(-1, -1, 1))
    with pytest.raises(NotDegenerate):
        degenerate_constants(ModuliPoint(-4, -1, 1))
    for point in (ModuliPoint(1, 0, 0), ModuliPoint(0, 0, 0), ModuliPoint(4, -4, -4)):
        with pytest.raises(InvalidParams, match="needs c0 < 0"):
            degenerate_constants(point)


def test_solution_grid_covers_requested_range():
    sol = integrate_profile(dp(1, -1, 0), "F", (0.5, 1.2341), 1e-3)
    assert sol.grid[0] == 0.5
    assert sol.grid[-1] >= 1.2341 - 1e-12


def test_march_writes_each_target_back_to_its_index():
    fn = ProfileFunction(dp(1, -1, 0), "F")
    targets = np.array([0.7, -0.3, 0.0, 2.5, -0.3, 0.7, -1.9, 1.2, 0.0, -0.05, 3.25])
    w, dw = fn._march(targets, 1e-2)
    order = np.argsort(targets, kind="stable")
    w_sorted, dw_sorted = fn._march(targets[order], 1e-2)
    assert w[order].tobytes() == w_sorted.tobytes()
    assert dw[order].tobytes() == dw_sorted.tobytes()
    assert w[2] == w[8] == 0.0 and dw[2] == dw[8] == 1.0
    assert w[1] == w[4] and w[0] == w[5]


@pytest.mark.parametrize("point,kind", [((-1, -1, 1), "F"), ((-1, -1, 1), "G")])
def test_eval_many_is_pointwise(point, kind):
    # the value at one abscissa does not depend on what else is in the call
    fn = ProfileFunction(dp(*point), kind)
    xs = np.linspace(-7.3, 5.4321, 2001)
    w, dw = fn.eval_many(xs)
    for i in (0, 1000, 2000):
        one_w, one_dw = fn.eval_many(xs[i:i + 1])
        assert (one_w[0], one_dw[0]) == (w[i], dw[i])
        assert fn.eval_many(xs[i]) == (w[i], dw[i])


@pytest.mark.parametrize("c", [-1e-6, -1e-8, -1e-10, -1e-12])
def test_closed_form_near_homoclinic_edge(c):
    # c0 = -1, d = 0: the modulus of f is 1 - O(|c|)
    d = dp(-1, c, 0)
    fn = ProfileFunction(d, "F")
    t = profile_period(d, "F")
    xs = np.linspace(-20, 20, 4001)
    w, dw = fn.eval_many(xs)
    assert np.abs(fn.first_integral(w, dw)).max() <= 1e-13
    assert np.abs(fn.eval_many(xs + t)[0] - w).max() <= 1e-10


@settings(max_examples=25)
@given(
    c0=st.sampled_from([-1.0, 0.0, 1.0]),
    c=st.floats(-2, 2),
    d=st.floats(-2, 2),
    a=st.floats(-1, 1),
    kind=st.sampled_from(["F", "G"]),
)
# one-signed branch with const = 3.5e-17 << k^2: the textbook lower root cancels
@example(c0=-1.0, c=0.5329590514392071, d=1.8682733345358873e-25, a=0.0, kind="G")
def test_closed_form_matches_rk4(c0, c, d, a, kind):
    point = ModuliPoint(c0, c, c if c0 == 0 else d)
    try:
        sol = integrate_profile(derive_params(point, a), kind, (-5, 5), 1e-3)
    except NoRealSolution:
        assume(False)
    w, dw = sol.fn.eval_many(sol.grid)
    assert np.abs(w - sol.values).max() <= 1e-9
    assert np.abs(dw - sol.derivs).max() <= 1e-9


def test_agm_terminates_across_moduli():
    for m1 in np.logspace(-300, 0, 301):
        a, c = _agm(1.0 - m1, m1)
        assert len(a) < 20 and c[-1] <= 2.0 ** -52 * a[-1]
        assert math.isfinite(math.pi / (2.0 * a[-1]))
