import math
import sys

import mpmath
import pytest

from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.orbit import (
    beta_limit,
    cauchy_bounds,
    cauchy_series,
    chaining_bounds,
    gamma_of,
    run_orbit,
    verify_fixed_point,
)
from bfixpoint.quasicontraction import make_branch_map, make_table_map
from bfixpoint.rng import SplitMix64

QUAD = make_power_space(1, 2.0)
SHRINK = make_branch_map(QUAD, [([[0.9]], [0.0])])
AFFINE = make_branch_map(QUAD, [([[0.9]], [5.0])])  # x -> 0.9x + 5 fixes 50 exactly

# frozen against a 50-digit mpmath summation of s**(2n) * gamma**(2**(n-1))
SERIES_SUM_09_1 = 3.0173864756323395
SERIES_SUM_081_2 = 128.73777546891924
BOUND0_081_2_D01 = 6.7756723931010126  # first_step 0.01


def expanding_line():
    # points at 0, 1, 3 on the plain line; the image of 1 runs away from 0
    space = make_matrix_space(3, [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]], 1.0)
    tmap = make_table_map(space, {0: [1], 1: [2], 2: [2]})
    return space, tmap


# one call per argument check: (call, message)
BAD_ARGUMENTS = {
    "gamma_of-q": (lambda: gamma_of(0.5, 1.5, 2.0), "q must be in"),
    "gamma_of-s": (lambda: gamma_of(0.5, 0.5, 0.5), "s must be >= 1"),
    # an infinite s used to give gamma 0.5 at q = 0, and "beta must lie in (0, 0.0)" at q > 0
    "gamma_of-inf-s": (lambda: gamma_of(0.5, 0.0, math.inf), "^s must be >= 1 and finite, got inf$"),
    "gamma_of-inf-s-positive-q": (lambda: gamma_of(0.5, 0.5, math.inf), "^s must be >= 1 and finite, got inf$"),
    "run_orbit-alpha": (lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 1.0, (1.0,)), "alpha must be in"),
    "run_orbit-tol": (lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), tol=0.0), "tol must be positive"),
    # an infinite tol used to stop at once: "converged" at x0 = 1 with residual 24.01
    "run_orbit-inf-tol": (
        lambda: run_orbit(QUAD, AFFINE, 0.0, 0.0, 0.9, (1.0,), tol=math.inf), "^tol must be positive and finite, got inf$"
    ),
    "run_orbit-max_iter": (lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), max_iter=0), "max_iter must be >= 1"),
    # 2.5 used to run 3 steps
    "run_orbit-float-max_iter": (
        lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), max_iter=2.5), "^max_iter must be an integer, got 2.5$"
    ),
    "run_orbit-bool-max_iter": (
        lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), max_iter=True), "^max_iter must be an integer, got True$"
    ),
    "chaining_bound-s": (lambda: list(chaining_bounds([1.0], 0.5)), "s must be >= 1"),
    "chaining_bound-negative-step": (lambda: list(chaining_bounds([1.0, -1.0], 2.0)), "non-negative"),
    "cauchy_series-s": (lambda: cauchy_series(0.5, 0.5), "s must be >= 1"),
    # an infinite s used to sum to nan, where a sum beyond the float range is an OverflowError
    "cauchy_series-inf-s": (lambda: cauchy_series(0.5, math.inf, 1.0), "^s must be >= 1 and finite, got inf$"),
    # an infinite first step used to give the bounds [nan, nan, nan]
    "cauchy_bounds-inf-first_step": (
        lambda: cauchy_bounds(cauchy_series(0.0, 2.0, math.inf), 3), "^first_step must be non-negative and finite, got inf$"
    ),
    # an infinite s used to give the bounds [0.0, nan, inf]
    "chaining_bound-inf-s": (lambda: chaining_bounds([0.0, 0.0, 1.0], math.inf), "^s must be >= 1 and finite, got inf$"),
    # True used to give one bound, and 2.5 and -1 islice's error, which does not name n
    "cauchy_bounds-bool-n": (
        lambda: cauchy_bounds(cauchy_series(0.5, 2.0, first_step=1.0), True), "^n must be an integer, got True$"
    ),
    "cauchy_bounds-float-n": (
        lambda: cauchy_bounds(cauchy_series(0.5, 2.0, first_step=1.0), 2.5), "^n must be an integer, got 2.5$"
    ),
    "cauchy_bounds-negative-n": (
        lambda: cauchy_bounds(cauchy_series(0.5, 2.0, first_step=1.0), -1), "^n must be >= 0, got -1$"
    ),
    # an infinite tol used to pass x = 1 (residual 24.01), and nan to fail the exact fixed point 50
    "verify_fixed_point-inf-tol": (
        lambda: verify_fixed_point(QUAD, AFFINE, (1.0,), math.inf), "^tol must be >= 0 and finite, got inf$"
    ),
    "verify_fixed_point-nan-tol": (
        lambda: verify_fixed_point(QUAD, AFFINE, (50.0,), math.nan), "^tol must be >= 0 and finite, got nan$"
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_rejected(case):
    call, message = BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestGammaOf:
    def test_zero_q_returns_beta(self):
        assert gamma_of(0.9, 0.0, 2.0) == 0.9

    def test_second_branch_dominates(self):
        assert gamma_of(0.4, 1.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_boundary_beta_rejected(self):
        with pytest.raises(ValueError):
            gamma_of(0.5, 1.0, 2.0)  # 1/(q*s) = 0.5 is excluded

    @pytest.mark.parametrize("beta", [0.0, -0.2, 1.0])
    def test_out_of_interval_rejected(self, beta):
        with pytest.raises(ValueError):
            gamma_of(beta, 0.0, 1.0)

    def test_result_below_one(self):
        rng = SplitMix64(8)
        for _ in range(200):
            q = rng.uniform()
            s = 1.0 + 3.0 * rng.uniform()
            hi = 1.0 if q == 0.0 else min(1.0, 1.0 / (q * s))
            beta = rng.uniform(1e-6, hi * (1 - 1e-9))
            assert 0.0 < gamma_of(beta, q, s) < 1.0


class TestRunOrbit:
    def test_builtin_example_converges(self):
        trace = run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), tol=1e-9, max_iter=1000)
        assert trace.status == "converged"
        assert len(trace.steps) <= 100
        assert trace.residual <= 1e-9
        assert abs(trace.fixed_point[0]) <= 1e-3
        # closed form: x_n = 0.9**n, d_n = 0.01 * 0.81**n
        for n, (pt, step) in enumerate(zip(trace.points, trace.steps)):
            assert pt[0] == pytest.approx(0.9**n, rel=1e-9)
            assert step == pytest.approx(0.01 * 0.81**n, rel=1e-6)

    def test_geometric_decay_along_trace(self):
        trace = run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), tol=1e-9, max_iter=1000)
        d0 = trace.steps[0]
        for n, step in enumerate(trace.steps):
            assert step <= trace.gamma**n * d0 * (1.0 + 1e-9)

    def test_stationary_start(self):
        space, _ = expanding_line()
        tmap = make_table_map(space, {0: [0], 1: [0], 2: [1]})
        trace = run_orbit(space, tmap, 0.0, 0.0, 0.5, 0, tol=1e-9)
        assert trace.status == "converged"
        assert trace.points == (0,)
        assert trace.steps == ()
        assert trace.residual == 0.0
        assert trace.fixed_point == 0

    @pytest.mark.parametrize("x1", [2, 7, (0.5,)])
    def test_x1_not_read_at_a_converged_x0(self, x1):
        # T(0) = {0}: x0 converges before x1 is read, so neither an x1
        # outside T(x0) (2) nor an invalid one (7, a tuple) is checked; on
        # an x0 that does not converge, test_explicit_x1_must_be_in_image
        space, _ = expanding_line()
        tmap = make_table_map(space, {0: [0], 1: [0], 2: [1]})
        trace = run_orbit(space, tmap, 0.0, 0.0, 0.5, 0, x1=x1, tol=1e-9)
        assert (trace.status, trace.points, trace.steps) == ("converged", (0,), ())

    def test_no_step_to_a_non_finite_image(self):
        # 1e300*1e10 - 1e300*1e10 is inf - inf, so T(x0) = {(nan, 0)}: no
        # image element is at a finite distance, and the orbit stops at x0
        # before it reads x1 (here not even a point of the plane)
        plane = make_power_space(2, 1.0)
        tmap = make_branch_map(plane, [([[1e300, -1e300], [0.0, 0.0]], [0.0, 0.0])])
        message = r"from x0 = \(10000000000.0, 10000000000.0\): T\(x0\) = \(\(nan, 0.0\),\)"
        for x1 in (None, (1.0,)):
            with pytest.raises(OverflowError, match=message):
                run_orbit(plane, tmap, 0.0, 0.0, 0.5, (1e10, 1e10), x1=x1, max_iter=1)

    def test_infinite_residual_after_the_first_step_is_named(self):
        # T(x) = {(1e300 x_0, 0)}: x1 = (1e300, 0) from x0 = (1, 0), then
        # (1e600, 0) overflows to inf, so d(x1, T(x1)) is inf; the rule of
        # x0 holds at x1, before the budget (max_iter 1) is read
        plane = make_power_space(2, 1.0)
        tmap = make_branch_map(plane, [([[1e300, 0.0], [0.0, 0.0]], [0.0, 0.0])])
        message = r"^no element of T\(x1\) is at a finite distance from x1 = \(1e\+300, 0.0\): T\(x1\) = \(\(inf, 0.0\),\)$"
        for max_iter in (1, 5):
            with pytest.raises(OverflowError, match=message):
                run_orbit(plane, tmap, 0.0, 0.0, 0.5, (1.0, 0.0), max_iter=max_iter)

    def test_an_x1_at_an_infinite_distance_is_named(self):
        # T(0) = {1, 2e154} on the squared line: the residual is 1, but
        # d(0, 2e154) = 4e308 is beyond the float range, which would make
        # the first step inf and the orbit look converged
        tmap = make_branch_map(QUAD, [([[0.5]], [1.0]), ([[0.5]], [2e154])])
        with pytest.raises(OverflowError, match=r"^x1 = \(2e\+154,\) is at an infinite distance from x0 = \(0.0,\)$"):
            run_orbit(QUAD, tmap, 0.0, 0.0, 0.5, (0.0,), x1=(2e154,))

    def test_an_infinite_n_fails_the_selection_check(self):
        # x -> 0.9x + 1e154 on the squared line from 0: d_0 = 1e308, and
        # d_1 = 8.1e307 keeps the decay gamma = 0.45/0.55 but not beta*d_0,
        # so N is read: its cross term d(0, T(1e154)) = (1.9e154)**2 is
        # beyond the float range, and no ratio to an infinite N is checked
        tmap = make_branch_map(QUAD, [([[0.9]], [1e154])])
        trace = run_orbit(QUAD, tmap, 0.0, 1.0, 0.4, (0.0,), beta=0.45, max_iter=5)
        assert QUAD.dist((0.0,), (1.9e154,)) == math.inf
        assert (trace.status, trace.violation_step, trace.steps) == ("ratio_violation", 1, (1e308,))

    def test_constant_map_converges_quickly(self):
        tmap = make_branch_map(QUAD, [([[0.0]], [2.0])])
        trace = run_orbit(QUAD, tmap, 0.0, 0.0, 0.5, (7.0,), tol=1e-12)
        assert trace.status == "converged"
        assert len(trace.steps) <= 2
        assert trace.fixed_point == (2.0,)

    def test_max_iter_exhaustion(self):
        trace = run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), tol=1e-9, max_iter=1)
        assert trace.status == "max_iter"
        assert trace.fixed_point is None
        assert len(trace.steps) == 1

    def test_ratio_violation_recorded(self):
        space, tmap = expanding_line()
        trace = run_orbit(space, tmap, 0.0, 0.0, 0.9, 0, tol=1e-9)
        assert trace.status == "ratio_violation"
        assert trace.violation_step == 1

    def test_explicit_x1_must_be_in_image(self):
        with pytest.raises(ValueError, match="not an element"):
            run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), x1=(0.5,), tol=1e-9)

    def test_explicit_x1_accepted(self):
        trace = run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), x1=(0.9,), tol=1e-9)
        assert trace.status == "converged"

    @pytest.mark.parametrize(
        "e, want",
        [
            (0.5 + 1e-12, ("converged", (1.0, 0.500000000001), None)),
            (math.nextafter(0.5 + 1e-12, 1.0), ("ratio_violation", (1.0,), 1)),
        ],
    )
    def test_decay_slack_at_its_edge(self, e, want):
        # gamma = beta = 0.5 and d_0 = 1: the decay check passes d_1 = e up
        # to gamma*d_0 + 1e-12*d_0 = 0.5 + 1e-12 and fails one ulp above;
        # N(0, 1) = (0.4/2)*(6 + 0) = 1.2 passes the selection either way
        space = make_matrix_space(3, [[0.0, 1.0, 6.0], [1.0, 0.0, e], [6.0, e, 0.0]], 2.0)
        tmap = make_table_map(space, {0: [1], 1: [2], 2: [2]})
        trace = run_orbit(space, tmap, 0.0, 0.4, 0.4, 0, beta=0.5, tol=1e-9)
        assert (trace.status, trace.steps, trace.violation_step) == want

    def test_infeasible_alpha_q_s_rejected(self):
        with pytest.raises(ValueError, match="alpha\\*q\\*s"):
            run_orbit(QUAD, SHRINK, 0.0, 1.0, 0.9, (1.0,), tol=1e-9)

    def test_passing_step_skips_overflowing_cross_terms(self):
        # x1 = -r/2, and scanning d(x0, T(x1)) squares the gap to its far
        # element, top + 0.15r > sqrt(max float), which overflows; the first
        # step is below beta*d(x0, x1), so N's cross terms are not needed
        r, top = 1e141, 1.3407807929942596e154
        tmap = make_branch_map(QUAD, [([[0.5]], [0.0]), ([[0.5]], [top - 0.6 * r])])
        trace = run_orbit(QUAD, tmap, 0.5, 0.5, 0.3, (-r,), tol=1e-9, max_iter=2000)
        assert trace.status == "converged"
        assert len(trace.steps) == 483

    @pytest.mark.parametrize("beta", [0.85, -0.5, 0.0, math.nan, beta_limit(0.0, QUAD.s)])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="^beta must lie in"):
            run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), beta=beta, tol=1e-9)


class TestChainingBound:
    def test_single_step_uses_exponent_zero(self):
        assert list(chaining_bounds([5.0], 2.0)) == [5.0]

    def test_two_steps_is_the_relaxed_triangle(self):
        assert list(chaining_bounds([1.0, 1.0], 2.0)) == [1.0, 4.0]

    def test_three_steps_round_up_to_exponent_two(self):
        assert list(chaining_bounds([1.0, 1.0, 1.0], 2.0)) == [1.0, 4.0, 12.0]

    def test_dominates_actual_distances(self):
        rng = SplitMix64(606)
        from math import dist as edist

        for trial in range(40):
            p = [1.0, 2.0, 3.0][trial % 3]
            pts = []
            while len(pts) < 8:
                cand = (rng.uniform(), rng.uniform())
                if all(edist(cand, q) >= 0.03 for q in pts):
                    pts.append(cand)
            d = [[edist(a, b) ** p for b in pts] for a in pts]
            space = make_matrix_space(8, d, max(1.0, 2.0 ** (p - 1.0)))
            walk = [rng.randrange(8) for _ in range(2 + rng.randrange(30))]
            steps = [space.dist(a, b) for a, b in zip(walk, walk[1:])]
            for k, bound in enumerate(chaining_bounds(steps, space.s), start=1):
                assert space.dist(walk[0], walk[k]) <= bound * (1.0 + 1e-12)


def series_50_digits(gamma, s):
    """The sum of the first 64 terms of s**(2n) * gamma**(2**(n-1)), in
    50-digit arithmetic."""
    with mpmath.workdps(50):
        g, s = mpmath.mpf(gamma), mpmath.mpf(s)
        return sum(s ** (2 * n) * g ** (2 ** (n - 1)) for n in range(1, 65))


class TestCauchySeries:
    def test_zero_gamma(self):
        for s in (3.0, 1e200):  # at 1e200, s**2 overflows on its own
            cert = cauchy_series(0.0, s)
            assert cert.series_sum == 0.0
            assert cert.terms_used == 1

    def test_frozen_metric_value(self):
        cert = cauchy_series(0.9, 1.0)
        assert cert.series_sum == pytest.approx(SERIES_SUM_09_1, rel=1e-12)

    def test_frozen_relaxed_value(self):
        cert = cauchy_series(0.81, 2.0)
        assert cert.series_sum == pytest.approx(SERIES_SUM_081_2, rel=1e-12)
        assert cert.terms_used == 8  # doubly exponential tail

    def test_gamma_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            cauchy_series(1.0, 2.0)

    def test_terms_capped(self):
        assert cauchy_series(0.99, 4.0).terms_used <= 64

    def test_a_power_of_s_that_overflows_alone(self):
        # at the largest gamma below 1 and s = 336.3, s**(2n) overflows from
        # n = 61 on, long after gamma's factor has shrunk the terms: the sum
        # is about 1.47e286, to an ulp of its 50-digit value
        gamma = math.nextafter(1.0, 0.0)
        cert = cauchy_series(gamma, 336.3)
        assert cert.series_sum == pytest.approx(float(series_50_digits(gamma, 336.3)), rel=1e-15)
        assert cert.terms_used == 60

    @pytest.mark.parametrize(
        "gamma, s",
        [
            (0.95, 2.0**99),  # the sixth term is about e**821
            (math.nextafter(1.0, 0.0), 521.5),  # every term is finite, their sum is not
        ],
    )
    def test_a_sum_beyond_the_float_range_raises(self, gamma, s):
        assert series_50_digits(gamma, s) > sys.float_info.max
        with pytest.raises(OverflowError):
            cauchy_series(gamma, s)


class TestCauchyBound:
    def test_frozen_initial_bound(self):
        cert = cauchy_series(0.81, 2.0, first_step=0.01)
        assert cauchy_bounds(cert, 1)[0] == pytest.approx(BOUND0_081_2_D01, rel=1e-12)

    def test_step_recurrence_exact(self):
        cert = cauchy_series(0.81, 2.0, first_step=0.01)
        bounds = cauchy_bounds(cert, 41)
        for m in range(40):
            assert bounds[m + 1] == cert.gamma * bounds[m]

    def test_underflow_reaches_zero(self):
        cert = cauchy_series(0.5, 2.0, first_step=1.0)
        assert cauchy_bounds(cert, 10_001)[10_000] == 0.0

    def test_monotone_nonincreasing(self):
        bounds = cauchy_bounds(cauchy_series(0.93, 2.0, first_step=0.4), 60)
        assert all(cur <= prev for prev, cur in zip(bounds, bounds[1:]))

    def test_a_first_bound_beyond_the_float_range_raises(self):
        # 1e308*S/(1 - 0.9): every later bound is this one times 0.9**m, so it is the one error
        cert = cauchy_series(0.9, 1.0, first_step=1e308)
        message = (
            r"^the Cauchy bound at m = 0, d\(x0, x1\)\*S/\(1 - gamma\) with d\(x0, x1\) = 1e\+308,"
            r" S = 3\.0173864756323394 and gamma = 0\.9, is beyond the float range$"
        )
        for n in (0, 3):
            with pytest.raises(OverflowError, match=message):
                cauchy_bounds(cert, n)

    def test_no_bounds(self):
        assert cauchy_bounds(cauchy_series(0.81, 2.0, first_step=0.01), 0) == []

    def test_missing_first_step_rejected(self):
        with pytest.raises(ValueError, match="first_step"):
            cauchy_bounds(cauchy_series(0.5, 2.0), 1)

    def test_dominates_trace_distances(self):
        trace = run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), tol=1e-9, max_iter=1000)
        cert = cauchy_series(trace.gamma, QUAD.s, first_step=trace.steps[0])
        pts = trace.points
        for m, bound in enumerate(cauchy_bounds(cert, len(pts) - 1)):
            for k in range(1, len(pts) - m):
                assert QUAD.dist(pts[m + 1], pts[m + k]) <= bound * (1.0 + 1e-9)

    def test_dominates_outside_classical_regime(self):
        # gamma = 0.81 with s = 2 gives s*gamma = 1.62 >= 1, where the
        # per-step small-product argument is unavailable but the series
        # bound still holds
        gamma = 0.81
        rng = SplitMix64(1212)
        for _ in range(25):
            x = rng.uniform(-1.0, 1.0)
            pts = [(x,)]
            d = rng.uniform(0.5, 2.0)
            for _ in range(30):
                x = x + (1.0 if rng.uniform() < 0.5 else -1.0) * d ** 0.5
                pts.append((x,))
                d = d * gamma * rng.uniform(0.7, 1.0)
            cert = cauchy_series(gamma, 2.0, first_step=QUAD.dist(pts[0], pts[1]))
            assert cert.gamma * QUAD.s >= 1.0
            for m, bound in enumerate(cauchy_bounds(cert, len(pts) - 1)):
                for k in range(1, len(pts) - m):
                    assert QUAD.dist(pts[m + 1], pts[m + k]) <= bound * (1.0 + 1e-9)


class TestVerifyFixedPoint:
    def test_origin_is_fixed(self):
        residual, ok = verify_fixed_point(QUAD, SHRINK, (0.0,), 1e-9)
        assert residual == 0.0
        assert ok

    def test_unit_point_fails(self):
        residual, ok = verify_fixed_point(QUAD, SHRINK, (1.0,), 1e-9)
        assert residual == pytest.approx(0.01, rel=1e-12)
        assert not ok

    def test_exact_fixed_point_at_zero_tol(self):
        assert verify_fixed_point(QUAD, AFFINE, (50.0,), 0.0) == (0.0, True)

    def test_table_membership(self):
        space, _ = expanding_line()
        tmap = make_table_map(space, {0: [1], 1: [1], 2: [0]})
        assert verify_fixed_point(space, tmap, 1, 0.0) == (0.0, True)
