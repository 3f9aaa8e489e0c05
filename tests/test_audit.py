"""Differential tests for the orbit audit and the orbit loop.

bound_audit rules Cauchy rows out with bounding boxes, screens the rest
with numpy and confirms the farthest point with exact distances; run_orbit
carries each image into the next step. Both are checked here against per-pair / per-step references that
spell out the definitions directly, and a work guard keeps them linear.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import bfixpoint.orbit as orbit_mod
import bfixpoint.quasicontraction as qc_mod
from bfixpoint.bspace import BMetricSpace, make_matrix_space, make_power_space
from bfixpoint.cli import bound_audit
from bfixpoint.orbit import (
    OrbitTrace,
    _ruled_out,
    cauchy_bound,
    cauchy_series,
    chaining_bound,
    chaining_bounds,
    gamma_of,
    run_orbit,
)
from bfixpoint.quasicontraction import image_of, make_branch_map, make_table_map, n_functional
from bfixpoint.setops import dist_point_set

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def reference_chaining(prefix, s):
    """The chaining bound of a prefix from the exact sum of its steps: inf,
    or nan if a step is nan, when a step is not finite; a finite sum past
    the float range raises OverflowError in the conversion."""
    if all(map(math.isfinite, prefix)):
        total = float(sum(map(Fraction, prefix)))
    else:
        total = math.nan if any(map(math.isnan, prefix)) else math.inf
    return s ** (len(prefix) - 1).bit_length() * total


def reference_audit(space, trace):
    """The audit by its definition: every pair and every prefix, one at a time."""
    pts = trace.points
    steps = trace.steps
    audit = {
        "cauchy_ratio_max": 0.0,
        "chaining_ratio_max": 0.0,
        "cauchy_checks": 0,
        "chaining_checks": 0,
        "violations": 0,
        "ok": True,
    }
    if not steps:
        return audit
    cert = cauchy_series(trace.gamma, space.s, first_step=steps[0])
    bound = cert.first_step * cert.series_sum / (1.0 - cert.gamma)
    for m in range(len(pts) - 1):
        for k in range(1, len(pts) - m):
            actual = space.dist(pts[m + 1], pts[m + k])
            audit["cauchy_checks"] += 1
            if actual == 0.0:
                continue
            if bound == 0.0:
                audit["violations"] += 1
                continue
            audit["cauchy_ratio_max"] = max(audit["cauchy_ratio_max"], actual / bound)
        bound *= cert.gamma
    for k in range(1, len(pts)):
        actual = space.dist(pts[0], pts[k])
        cb = reference_chaining(steps[:k], space.s)
        audit["chaining_checks"] += 1
        if actual == 0.0:
            continue
        if cb == 0.0:
            audit["violations"] += 1
            continue
        audit["chaining_ratio_max"] = max(audit["chaining_ratio_max"], actual / cb)
    slack = 1.0 + 1e-9
    audit["ok"] = (
        audit["violations"] == 0
        and audit["cauchy_ratio_max"] <= slack
        and audit["chaining_ratio_max"] <= slack
    )
    return audit


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def trace_of(space, points, gamma):
    steps = tuple(space.dist(a, b) for a, b in zip(points, points[1:]))
    return OrbitTrace(tuple(points), steps, 0.5, gamma, "max_iter", None, 0.0)


def screened_rows(space, trace):
    """The Cauchy rows m that bound_audit hands to the row screen."""
    rows = []
    real = orbit_mod._row_maxima

    def spy(space, table, coords, points):
        rows.extend((points - 1).tolist())
        return real(space, table, coords, points)

    orbit_mod._row_maxima = spy
    try:
        bound_audit(space, trace)
    finally:
        orbit_mod._row_maxima = real
    return rows


def assert_same_audit(space, points, gamma):
    try:
        trace = trace_of(space, points, gamma)
    except OverflowError:
        assume(False)  # a step distance itself is out of range: no trace exists
    assert outcome(bound_audit, space, trace) == outcome(reference_audit, space, trace)


# -- strategies -------------------------------------------------------------

# small coordinate pools make repeated points and tied row maxima likely;
# the extreme values drive rows into the pairwise fallback (squares that
# underflow or overflow) and into OverflowError
TIE_COORDS = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
WIDE_COORDS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
EXTREME_COORDS = st.sampled_from(
    [1e-170, -3e-165, 1e-300, 5e-324, 1e155, -2e160, 1e200, math.inf, -math.inf, math.nan]
)
COORDS = st.one_of(TIE_COORDS, WIDE_COORDS, EXTREME_COORDS)
GAMMAS = st.one_of(st.floats(1e-3, 0.999), st.sampled_from([1e-12, 1e-40, 0.5, 0.9, 0.999]))
POWERS = st.sampled_from([0.5, 1.0, 2.0, 3.0])


@st.composite
def pooled_orbits(draw):
    """Points drawn from a small pool (repeats, ties) plus free points."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[COORDS] * dim), min_size=1, max_size=6))
    free = st.tuples(*[WIDE_COORDS] * dim)
    pts = draw(st.lists(st.one_of(st.sampled_from(pool), free), min_size=2, max_size=70))
    return make_power_space(dim, draw(POWERS)), pts


@st.composite
def converging_orbits(draw):
    """x_n = u + r**n * R(n*theta) v: the shape run_orbit produces, long
    enough that a small gamma drives the Cauchy bound to 0."""
    dim = draw(st.integers(1, 3))
    rate = draw(st.floats(0.05, 0.999))
    theta = draw(st.floats(0.0, 3.0))
    n = draw(st.integers(2, 160))
    u = draw(st.tuples(*[WIDE_COORDS] * dim))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    pts = []
    for k in range(n):
        r = scale * rate**k
        off = [r * math.cos(k * theta), r * math.sin(k * theta), r * 0.5][:dim]
        pts.append(tuple(ui + oi for ui, oi in zip(u, off)))
    return make_power_space(dim, draw(POWERS)), pts


@st.composite
def matrix_orbits(draw):
    """Walks on a finite space; integer distances give many exact ties."""
    n = draw(st.integers(2, 8))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = float(draw(st.sampled_from([1, 2, 3, 1e-320, 1e300])))
    space = make_matrix_space(n, d, draw(st.sampled_from([1.0, 2.0, 4.0])))
    walk = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=70))
    return space, walk


# -- bound_audit ------------------------------------------------------------


class TestBoundAuditMatchesPairwise:
    @SETTINGS
    @given(pooled_orbits(), GAMMAS)
    def test_pooled_power_orbits(self, orbit, gamma):
        assert_same_audit(*orbit, gamma)

    @SETTINGS
    @given(converging_orbits(), GAMMAS)
    def test_converging_power_orbits(self, orbit, gamma):
        assert_same_audit(*orbit, gamma)

    @SETTINGS
    @given(matrix_orbits(), GAMMAS)
    def test_matrix_orbits(self, orbit, gamma):
        assert_same_audit(*orbit, gamma)

    def test_bound_underflow_counts_violations(self):
        space = make_power_space(2, 2.0)
        pts = [(0.9**k, -(0.8**k)) for k in range(60)]
        trace = trace_of(space, pts, 1e-12)
        audit = bound_audit(space, trace)
        assert audit["violations"] > 0
        assert audit == reference_audit(space, trace)

    def test_tied_row_maxima(self):
        # x_{m+1} = 0 sits between equidistant points at -1 and +1
        space = make_power_space(1, 2.0)
        pts = [(3.0,), (0.0,), (1.0,), (-1.0,), (1.0,), (-1.0,), (0.0,)]
        trace = trace_of(space, pts, 0.9)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_rows_longer_than_one_tile(self):
        # more than one column tile per row block, and a last block of one row
        space = make_power_space(2, 3.0)
        pts = [(math.cos(0.05 * k) * 0.999**k, math.sin(0.05 * k) * 0.999**k) for k in range(290)]
        trace = trace_of(space, pts, 0.999)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    @pytest.mark.parametrize("kind", ["spiral", "matrix"])
    def test_row_blocks_of_one_row_and_a_short_last_block(self, monkeypatch, kind):
        # a budget of 64 entries makes every block one row wide until the
        # rows are 32 points long, then wider blocks, the last one short
        monkeypatch.setattr(orbit_mod, "_BLOCK_ENTRIES", 64)
        if kind == "spiral":
            space = make_power_space(2, 3.0)
            pts = [(math.cos(0.05 * k) * 0.999**k, math.sin(0.05 * k) * 0.999**k) for k in range(290)]
        else:
            d = [[float(0 if i == j else 1 + (i * j + i + j) % 3) for j in range(7)] for i in range(7)]
            space = make_matrix_space(7, d, 2.0)
            pts = [(k * k + 3 * k) % 7 for k in range(150)]
        trace = trace_of(space, pts, 0.999)
        rows = screened_rows(space, trace)
        assert rows[0] < len(pts) - 65 and len(rows) > 64
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_screen_keeps_near_ties(self):
        # numpy's a*a + b*b ranks (a, b) above (c, d), math.dist ranks it
        # below; the exact maximum must still be found
        ab, cd = (0.514202550117348, 0.7561643336386139), (0.051328103003189594, 0.9129918881657201)
        space = make_power_space(2, 1.0)
        trace = trace_of(space, [(3.0, 3.0), (0.0, 0.0), ab, cd], 0.9)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_subnormal_squares_fall_back(self):
        # the squares are subnormal and rank the two points the wrong way round
        ab = (1.4168038158852e-161, 1.4663110602008861e-161)
        cd = (5.056825289104592e-162, 1.9803633334475825e-161)
        space = make_power_space(2, 1.0)
        trace = trace_of(space, [(1e-160, 1e-160), (0.0, 0.0), ab, cd], 0.9)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_subnormal_distances(self):
        # d = |x - y|**3 is below the normal range
        space = make_power_space(1, 3.0)
        trace = trace_of(space, [(k * 1e-105,) for k in (5, 0, 3, -2, 1)], 0.5)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_nonzero_diagonal_counts(self):
        # a matrix space built without make_matrix_space's checks: d(x, x)
        # is part of the row and leads it
        m = np.array([[0.0, 1.0, 2.0], [1.0, 5.0, 1.0], [2.0, 1.0, 0.0]])
        space = BMetricSpace(kind="matrix", s=1.0, matrix=m)
        trace = trace_of(space, [0, 1, 2], 0.9)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_overflow_raises_like_pairwise(self):
        space = make_power_space(1, 3.0)
        pts = [(0.0,), (1e103,), (-1e103,)]  # d(x_1, x_2) = (2e103)**3 is out of range
        trace = OrbitTrace(tuple(pts), (1e300, 1e300), 0.5, 0.9, "max_iter", None, 0.0)
        with pytest.raises(OverflowError):
            reference_audit(space, trace)
        with pytest.raises(OverflowError):
            bound_audit(space, trace)

    def test_spiral_whose_leading_row_is_not_the_lower_bound_row(self):
        # the largest last-entry ratio, which rules rows out, is at row 3;
        # the largest ratio is at row 0, which must be screened
        space = make_power_space(2, 2.0)
        pts = [(0.95**k * math.cos(k), 0.95**k * math.sin(k)) for k in range(40)]
        trace = trace_of(space, pts, 0.99)
        bounds = [cauchy_bound(m, cauchy_series(0.99, space.s, first_step=trace.steps[0])) for m in range(39)]
        lower = [space.dist(pts[m + 1], pts[-1]) / bounds[m] for m in range(39)]
        top = [max(space.dist(pts[m + 1], y) for y in pts[m + 1 :]) / bounds[m] for m in range(39)]
        assert lower.index(max(lower)) == 3 and top.index(max(top)) == 0
        rows = screened_rows(space, trace)
        assert 0 in rows and len(rows) < 39  # some rows are ruled out
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_row_just_above_the_lower_bound_is_screened(self):
        # row 0's largest ratio, at (a, b), exceeds the lower bound (row 1's
        # last entry) by one ulp, and the box bound of row 0 before widening,
        # (a*a + b*b)**4, falls below it: only the margin keeps row 0
        space = make_power_space(2, 8.0)
        a, b = 0.5290052282836147, 0.9656226543781053
        pts = [(-1.0, 0.3), (0.0, 0.0), (a, b), (0.006921355562776953, 0.012633935116497897)]
        trace = trace_of(space, pts, 0.8999999999999991)
        cert = cauchy_series(trace.gamma, space.s, first_step=trace.steps[0])
        b0, b1 = cauchy_bound(0, cert), cauchy_bound(1, cert)
        lower = max(space.dist(pts[1], pts[3]) / b0, space.dist(pts[2], pts[3]) / b1)
        unwidened = float((np.float64(a) * a + np.float64(b) * b) ** 4.0) / b0
        assert unwidened < lower < space.dist(pts[1], pts[2]) / b0
        assert 0 in screened_rows(space, trace)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_subnormal_box_does_not_rule_out(self):
        # delta**2 = 100.49 * 5e-324 rounds to 100 * 5e-324, so the box bound
        # of row 0 falls 0.24% short of its distance delta, below the lower
        # bound delta / (2 * gamma) from row 1
        delta = math.sqrt(100.49) * math.sqrt(5e-324)
        space = make_power_space(1, 1.0)
        trace = trace_of(space, [(1.0,), (0.0,), (delta,), (delta / 2,)], 0.50025)
        assert 0 in screened_rows(space, trace)
        assert bound_audit(space, trace) == reference_audit(space, trace)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_are_never_ruled_out(self, bad):
        space = make_power_space(2, 2.0)
        pts = [(0.9**k * math.cos(k), 0.9**k * math.sin(k)) for k in range(30)]
        pts[25] = (0.5, bad)
        trace = trace_of(space, pts, 0.95)
        table = space.point_table(pts)
        coords = np.array(pts).T.copy()
        bounds = np.array([cauchy_bound(m, cauchy_series(0.95, space.s, first_step=trace.steps[0])) for m in range(29)])
        ruled = ~np.isnan(_ruled_out(space, table, coords, bounds))
        assert not ruled[:25].any()  # rows m <= 24 hold x_25
        assert ruled[25:].any()
        assert bound_audit(space, trace) == reference_audit(space, trace)

    def test_empty_trace(self):
        space = make_power_space(1, 2.0)
        trace = OrbitTrace(((0.0,),), (), 0.5, 0.5, "converged", (0.0,), 0.0)
        assert bound_audit(space, trace) == reference_audit(space, trace)


TOP_OF_RANGE = list(map(float.fromhex, ["0x1.90cd3970eae8bp+1022", "0x1.bfba4bffb0427p+974", "0x1.379963478a8acp+1023"]))


class TestChainingBounds:
    @SETTINGS
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1e3),
                st.sampled_from([0.0, 5e-324, 1e-300, 1e308, math.inf, math.nan]),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    )
    @example(steps=[1e308, 1e308], s=2.0)  # the sum is out of range; each step is >= 2**53
    @example(steps=[5e-324] * 3, s=2.0)
    @example(steps=[1e-300, 1e300, 1e-300], s=2.0)
    @example(steps=[1.0, math.inf, 1.0], s=2.0)
    @example(steps=[1.0, math.nan], s=2.0)
    @example(steps=[0.0, 0.0], s=2.0)
    @example(steps=[0.995**k for k in range(1200)], s=2.0)
    # the correctly rounded sum is the largest float, 1.7976931348623157e+308 (math.fsum's
    # partial sums overflow here); at s = 2 the bound is inf
    @example(steps=TOP_OF_RANGE, s=2.0)
    @example(steps=TOP_OF_RANGE, s=1.0)
    # the finite steps after an inf overflow on their own (math.fsum raises here)
    @example(steps=[math.inf, 1e308, 1e308], s=2.0)
    # s**ceil(log2 k) overflows at k = 3, after two bounds, on a finite and an inf prefix
    @example(steps=[1.0, 1.0, 1.0, 1.0], s=1e200)
    @example(steps=[1.0, math.inf, 1.0], s=1e200)
    def test_every_prefix_bit_for_bit(self, steps, s):
        steps = tuple(steps)
        bounds = chaining_bounds(steps, s)
        for k in range(1, len(steps) + 1):
            got = outcome(next, bounds)
            want = outcome(reference_chaining, steps[:k], s)
            assert got == want or (math.isnan(got) and math.isnan(want))
            if isinstance(want, tuple):
                break  # the error ends both sequences

    def test_errors_match_chaining_bound(self):
        with pytest.raises(ValueError, match="s must be"):
            next(chaining_bounds((1.0,), 0.5))
        gen = chaining_bounds((1.0, -1.0), 2.0)
        assert next(gen) == chaining_bound((1.0,), 2.0)
        with pytest.raises(ValueError, match="non-negative"):
            next(gen)

    @pytest.mark.parametrize(
        "steps, s, want, error",
        [
            # a negative step after an inf raises at its own prefix, after the inf bound
            ((math.inf, -1.0), 2.0, [math.inf], (ValueError, "non-negative")),
            ((1.0, math.inf, 1.0, -0.5, 1.0), 2.0, [1.0, math.inf, math.inf], (ValueError, "non-negative")),
            # at k = 3 both s**2 and the sum overflow; the power is taken first
            ((1e308, 1.0, 1e308), 1e200, [1e308, math.inf], (OverflowError, "out of range")),
            ((1e308, 1e308), 1e200, [1e308], (OverflowError, "too large for a float")),
            # s**2 would overflow at k = 3, past the last step
            ((1.0, 1.0), 1e200, [1.0, 2e200], None),
        ],
    )
    def test_each_error_comes_at_its_own_prefix(self, steps, s, want, error):
        gen = chaining_bounds(steps, s)
        assert [next(gen) for _ in want] == want
        if error is None:
            assert next(gen, "end") == "end"
            assert chaining_bound(steps, s) == want[-1]
        else:
            with pytest.raises(error[0], match=error[1]):
                next(gen)


# -- run_orbit --------------------------------------------------------------


class _Violation(Exception):
    """A failed decay or selection check inside reference_run_orbit."""


def reference_run_orbit(space, tmap, c, q, alpha, x0, x1=None, beta=None, tol=1e-9, max_iter=1000):
    """The orbit loop step by step, re-evaluating every image and
    N(x_prev, x_cur) from scratch with the public n_functional."""
    s = space.s
    hi = 1.0 if q * s == 0.0 else min(1.0, 1.0 / (q * s))
    if beta is None:
        beta = 0.5 * (alpha + hi)
    gamma = gamma_of(beta, q, s)
    img = image_of(space, tmap, x0)
    residual, idx = dist_point_set(space, x0, img)
    if residual <= tol:
        return OrbitTrace((x0,), (), beta, gamma, "converged", x0, residual)
    if x1 is None:
        x1 = img.elements[idx]
    points = [x0, x1]
    steps = [space.dist(x0, x1)]
    while True:
        x_prev, x_cur = points[-2], points[-1]
        residual = dist_point_set(space, x_cur, image_of(space, tmap, x_cur)).value
        if residual <= tol:
            return OrbitTrace(tuple(points), tuple(steps), beta, gamma, "converged", x_cur, residual)
        if len(steps) >= max_iter:
            return OrbitTrace(tuple(points), tuple(steps), beta, gamma, "max_iter", None, residual)
        d_prev = steps[-1]
        try:
            if residual > gamma * d_prev + 1e-12 * d_prev:
                raise _Violation("decay")
            img = image_of(space, tmap, x_cur)
            d, idx = dist_point_set(space, x_cur, img)
            if d > 0.0 and not d < beta * n_functional(space, tmap, c, q, x_prev, x_cur):
                raise _Violation("selection")
            nxt = img.elements[idx]
        except _Violation:
            return OrbitTrace(
                tuple(points), tuple(steps), beta, gamma, "ratio_violation", None, residual,
                violation_step=len(steps),
            )
        points.append(nxt)
        steps.append(residual)


@st.composite
def branch_problems(draw):
    dim = draw(st.integers(1, 2))
    space = make_power_space(dim, draw(POWERS))
    coef = st.floats(-0.95, 0.95)
    branches = [
        ([[draw(coef) for _ in range(dim)] for _ in range(dim)], [draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
        for _ in range(draw(st.integers(1, 3)))
    ]
    x0 = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(dim))
    return space, make_branch_map(space, branches), x0


@st.composite
def table_problems(draw):
    n = draw(st.integers(2, 7))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))
    space = make_matrix_space(n, d, draw(st.sampled_from([1.0, 2.0, 4.0])))
    images = {i: draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)) for i in range(n)}
    return space, make_table_map(space, images), draw(st.integers(0, n - 1))


def assert_same_orbit(problem, c, q, alpha, tol, max_iter, x1_choice, beta_frac=None, beta=None):
    space, tmap, x0 = problem
    if beta_frac is not None:
        # a beta near alpha with a large q*s puts gamma well above beta, so
        # the selection check d < beta*N, not the decay check, ends orbits
        hi = 1.0 if q * space.s == 0.0 else min(1.0, 1.0 / (q * space.s))
        beta = alpha + beta_frac * (hi - alpha)
        assume(alpha < beta < hi)
    x1 = None
    if x1_choice is not None:
        img = image_of(space, tmap, x0).elements
        x1 = img[x1_choice % len(img)]
    got = run_orbit(space, tmap, c, q, alpha, x0, x1=x1, beta=beta, tol=tol, max_iter=max_iter)
    want = reference_run_orbit(space, tmap, c, q, alpha, x0, x1=x1, beta=beta, tol=tol, max_iter=max_iter)
    assert got == want
    return got


ORBIT_ARGS = dict(
    c=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 0.99),
    tol=st.sampled_from([1e-3, 1e-9]),
    max_iter=st.sampled_from([1, 3, 40, 400]),
    x1_choice=st.one_of(st.none(), st.integers(0, 5)),
    beta_frac=st.one_of(st.none(), st.floats(0.01, 0.99)),
)


class TestRunOrbitMatchesStepLoop:
    @SETTINGS
    @given(problem=branch_problems(), **ORBIT_ARGS)
    def test_branch_maps(self, problem, c, q, alpha, tol, max_iter, x1_choice, beta_frac):
        assume(alpha * q * problem[0].s < 1.0)
        assert_same_orbit(problem, c, q, alpha, tol, max_iter, x1_choice, beta_frac)

    @SETTINGS
    @given(problem=table_problems(), **ORBIT_ARGS)
    def test_table_maps(self, problem, c, q, alpha, tol, max_iter, x1_choice, beta_frac):
        assume(alpha * q * problem[0].s < 1.0)
        assert_same_orbit(problem, c, q, alpha, tol, max_iter, x1_choice, beta_frac)

    @pytest.mark.parametrize(
        "status, max_iter, x1_choice",
        [("converged", 1000, None), ("max_iter", 5, None), ("converged", 1000, 1)],
    )
    def test_statuses_on_a_contraction(self, status, max_iter, x1_choice):
        space = make_power_space(1, 2.0)
        tmap = make_branch_map(space, [([[0.9]], [0.0]), ([[0.5]], [3.0])])
        problem = (space, tmap, (1.0,))
        trace = assert_same_orbit(problem, 0.3, 0.2, 0.9, 1e-9, max_iter, x1_choice)
        assert trace.status == status

    def test_ratio_violation(self):
        space = make_matrix_space(3, [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]], 1.0)
        tmap = make_table_map(space, {0: [1], 1: [2], 2: [2]})
        trace = assert_same_orbit((space, tmap, 0), 0.0, 0.0, 0.9, 1e-9, 100, None)
        assert trace.status == "ratio_violation"
        assert trace.violation_step == 1

    @pytest.mark.parametrize("q, status", [(0.0, "ratio_violation"), (1.0, "converged")])
    def test_step_at_exactly_beta_times_previous(self, q, status):
        # d(1, T(1)) = 0.5 = beta*d(0, 1): the screen d < beta*d_prev fails
        # and N decides, N = 1 with q = 0 and (3 + 0)/2 = 1.5 with q = 1
        space = make_matrix_space(3, [[0.0, 1.0, 3.0], [1.0, 0.0, 0.5], [3.0, 0.5, 0.0]], 1.0)
        tmap = make_table_map(space, {0: [1], 1: [2], 2: [2]})
        trace = assert_same_orbit((space, tmap, 0), 0.0, q, 0.4, 1e-9, 100, None, beta=0.5)
        assert trace.status == status
        assert trace.violation_step == (1 if status == "ratio_violation" else None)

    def test_every_step_takes_the_cross_terms(self, monkeypatch):
        # d_n / d_{n-1} = 0.81 > beta = 0.8, so no step passes the screen
        # and each of the 109 selection checks scans both cross terms
        scans = [0]
        real_dist_point_set = qc_mod.dist_point_set

        def counted_dist_point_set(*args):
            scans[0] += 1
            return real_dist_point_set(*args)

        monkeypatch.setattr(qc_mod, "dist_point_set", counted_dist_point_set)
        space = make_power_space(1, 2.0)
        tmap = make_branch_map(space, [([[0.9]], [0.0])])
        got = run_orbit(space, tmap, 0.5, 0.6, 0.5, (1.0,), beta=0.8, tol=1e-12)
        monkeypatch.undo()
        want = reference_run_orbit(space, tmap, 0.5, 0.6, 0.5, (1.0,), beta=0.8, tol=1e-12)
        assert got == want
        assert got.status == "converged"
        assert len(got.steps) == 110
        assert scans[0] == 2 * (len(got.steps) - 1)


# -- work guard -------------------------------------------------------------


def test_audit_and_orbit_do_linear_work(monkeypatch):
    """A long orbit must cost O(L) exact distances in the audit, and in the
    orbit loop one evaluation of the map and one scalar distance per image
    element per step; the quadratic scan would need L**2 / 2 distances
    here. The row screen, quadratic in the rows it gets, must get only the
    rows the bounding boxes cannot rule out."""
    space = make_power_space(2, 2.0)
    rate, angle = 0.995, 0.1
    a = [[rate * math.cos(angle), -rate * math.sin(angle)], [rate * math.sin(angle), rate * math.cos(angle)]]
    tmap = make_branch_map(space, [(a, [0.0, 0.0]), (a, [8.0, -8.0])])

    images = [0]
    real_evaluate = tmap.evaluate

    def counted_evaluate(x):
        images[0] += 1
        return real_evaluate(x)

    dists = [0]
    real_dist = BMetricSpace.dist

    def counted_dist(self, x, y):
        dists[0] += 1
        return real_dist(self, x, y)

    object.__setattr__(tmap, "evaluate", counted_evaluate)  # the map is frozen
    monkeypatch.setattr(BMetricSpace, "dist", counted_dist)
    trace = run_orbit(space, tmap, 0.5, 0.3, 0.995, (1.0, 0.0), tol=1e-10, max_iter=5000)
    monkeypatch.undo()
    assert trace.status == "converged"
    assert len(trace.steps) >= 1500
    assert images[0] <= len(trace.steps) + 2
    assert dists[0] <= 2 * (len(trace.steps) + 2)  # two branches; the screen settles each selection check

    dists[0] = 0
    monkeypatch.setattr(BMetricSpace, "dist", counted_dist)
    audit = bound_audit(space, trace)
    monkeypatch.undo()
    n = len(trace.points)
    assert audit["cauchy_checks"] == n * (n - 1) // 2
    assert audit["ok"]
    assert dists[0] <= 10 * n
    assert len(screened_rows(space, trace)) <= n // 4  # 204 of 1838 rows

    # in one dimension the box's far corner is an orbit point: the bound is tight
    line = make_power_space(1, 2.0)
    shrink = make_branch_map(line, [([[0.995]], [0.0])])
    trace = run_orbit(line, shrink, 0.0, 0.0, 0.995, (1.0,), tol=1e-10, max_iter=5000)
    assert len(trace.points) == 1241
    assert len(screened_rows(line, trace)) <= 4  # 2 rows
    assert bound_audit(line, trace) == reference_audit(line, trace)
