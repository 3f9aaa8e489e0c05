import math

import pytest

from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.orbit import (
    beta_limit,
    cauchy_bound,
    cauchy_series,
    chaining_bound,
    gamma_of,
    run_orbit,
    verify_fixed_point,
)
from bfixpoint.quasicontraction import make_branch_map, make_table_map
from bfixpoint.rng import SplitMix64

QUAD = make_power_space(1, 2.0)
SHRINK = make_branch_map(QUAD, [([[0.9]], [0.0])])

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
    "run_orbit-alpha": (lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 1.0, (1.0,)), "alpha must be in"),
    "run_orbit-tol": (lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), tol=0.0), "tol must be positive"),
    "run_orbit-max_iter": (lambda: run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), max_iter=0), "max_iter must be >= 1"),
    "chaining_bound-s": (lambda: chaining_bound([1.0], 0.5), "s must be >= 1"),
    "chaining_bound-negative-step": (lambda: chaining_bound([1.0, -1.0], 2.0), "non-negative"),
    "cauchy_series-s": (lambda: cauchy_series(0.5, 0.5), "s must be >= 1"),
    "cauchy_bound-m": (lambda: cauchy_bound(-1, cauchy_series(0.5, 2.0, first_step=1.0)), "m must be >= 0"),
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
        assert chaining_bound([5.0], 2.0) == 5.0

    def test_two_steps_is_the_relaxed_triangle(self):
        assert chaining_bound([1.0, 1.0], 2.0) == 4.0

    def test_three_steps_round_up_to_exponent_two(self):
        assert chaining_bound([1.0, 1.0, 1.0], 2.0) == 12.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chaining_bound([], 2.0)

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
            for k in range(1, len(steps) + 1):
                actual = space.dist(walk[0], walk[k])
                assert actual <= chaining_bound(steps[:k], space.s) * (1.0 + 1e-12)


class TestCauchySeries:
    def test_zero_gamma(self):
        cert = cauchy_series(0.0, 3.0)
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


class TestCauchyBound:
    def test_frozen_initial_bound(self):
        cert = cauchy_series(0.81, 2.0, first_step=0.01)
        assert cauchy_bound(0, cert) == pytest.approx(BOUND0_081_2_D01, rel=1e-12)

    def test_step_recurrence_exact(self):
        cert = cauchy_series(0.81, 2.0, first_step=0.01)
        for m in range(0, 40, 7):
            assert cauchy_bound(m + 1, cert) == cert.gamma * cauchy_bound(m, cert)

    def test_underflow_reaches_zero(self):
        cert = cauchy_series(0.5, 2.0, first_step=1.0)
        assert cauchy_bound(10_000, cert) == 0.0

    def test_monotone_nonincreasing(self):
        cert = cauchy_series(0.93, 2.0, first_step=0.4)
        prev = cauchy_bound(0, cert)
        for m in range(1, 60):
            cur = cauchy_bound(m, cert)
            assert cur <= prev
            prev = cur

    def test_missing_first_step_rejected(self):
        with pytest.raises(ValueError, match="first_step"):
            cauchy_bound(0, cauchy_series(0.5, 2.0))

    def test_dominates_trace_distances(self):
        trace = run_orbit(QUAD, SHRINK, 0.0, 0.0, 0.9, (1.0,), tol=1e-9, max_iter=1000)
        cert = cauchy_series(trace.gamma, QUAD.s, first_step=trace.steps[0])
        pts = trace.points
        for m in range(len(pts) - 1):
            bound = cauchy_bound(m, cert)
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
            for m in range(len(pts) - 1):
                bound = cauchy_bound(m, cert)
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

    def test_table_membership(self):
        space, _ = expanding_line()
        tmap = make_table_map(space, {0: [1], 1: [1], 2: [0]})
        assert verify_fixed_point(space, tmap, 1, 0.0) == (0.0, True)
