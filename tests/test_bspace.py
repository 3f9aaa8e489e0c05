import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfixpoint import bspace
from bfixpoint.bspace import (
    AxiomReport,
    AxiomViolation,
    BMetricSpace,
    estimate_min_s,
    make_matrix_space,
    make_power_space,
    verify_axioms,
)
from bfixpoint.orbit import bound_audit, run_orbit
from bfixpoint import quasicontraction as qc
from bfixpoint.quasicontraction import certify, image_of, make_branch_map
from bfixpoint.rng import SplitMix64
from bfixpoint.scenarios import builtin, sample_points

SQUARED_LINE = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]


def grid1(*xs):
    return [(float(x),) for x in xs]


def random_sample(rng, dim, n, scale=10.0):
    return [tuple(rng.uniform(-scale, scale) for _ in range(dim)) for _ in range(n)]


def max_distance(space, sample):
    return max(space.dist(a, b) for a in sample for b in sample)


class TestMakePowerSpace:
    def test_quadratic_line(self):
        sp = make_power_space(1, 2.0)
        assert sp.s == 2.0
        assert sp.dist((0.0,), (1.0,)) == 1.0
        assert sp.dist((1.0,), (3.0,)) == 4.0

    def test_plain_metric(self):
        sp = make_power_space(1, 1.0)
        assert sp.s == 1.0
        assert sp.dist((0.0,), (2.5,)) == 2.5

    def test_cubic_plane_axioms_on_200_points(self):
        sp = make_power_space(2, 3.0)
        assert sp.s == 4.0
        rng = SplitMix64(11)
        sample = random_sample(rng, 2, 200, scale=5.0)
        report = verify_axioms(sp, sample, tol=1e-12 * max_distance(sp, sample))
        assert report.passed

    def test_subunit_exponent_is_metric(self):
        assert make_power_space(3, 0.5).s == 1.0

    @pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(ValueError):
            make_power_space(1, p)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_power_space(0, 2.0)


class TestMakeMatrixSpace:
    def test_two_point_metric(self):
        sp = make_matrix_space(2, [[0.0, 1.0], [1.0, 0.0]], 1.0)
        assert sp.dist(0, 1) == 1.0
        assert sp.n_points == 2

    def test_squared_collinear_points(self):
        sp = make_matrix_space(3, SQUARED_LINE, 2.0)
        assert verify_axioms(sp, sp.points(), tol=0.0).passed  # 4 <= 2*(1+1)

    def test_asymmetry_names_offending_pair(self):
        with pytest.raises(ValueError, match=r"asymmetry at \(0,1\)"):
            make_matrix_space(2, [[0.0, 1.0], [2.0, 0.0]], 1.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_matrix_space(2, [[0.0, -1.0], [-1.0, 0.0]], 1.0)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match=r"diagonal at \(1,1\)"):
            make_matrix_space(2, [[0.0, 1.0], [1.0, 0.5]], 1.0)

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            make_matrix_space(2, [[0.0, 0.0], [0.0, 0.0]], 1.0)

    def test_small_s_rejected(self):
        with pytest.raises(ValueError, match="s must be"):
            make_matrix_space(2, [[0.0, 1.0], [1.0, 0.0]], 0.5)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_non_finite_s_rejected(self, s):
        # s = inf used to pass the s >= 1 check
        with pytest.raises(ValueError, match="s must be finite and >= 1"):
            make_matrix_space(2, [[0.0, 1.0], [1.0, 0.0]], s)


class TestVerifyAxioms:
    def test_quadratic_grid_passes_at_zero_tol(self):
        sp = make_power_space(1, 2.0)
        assert verify_axioms(sp, grid1(0, 1, 2), tol=0.0).passed

    def test_understated_s_reports_witness(self):
        # same squared distances but s declared below the true coefficient
        sp = make_matrix_space(3, SQUARED_LINE, 1.9)
        report = verify_axioms(sp, sp.points(), tol=0.0)
        assert not report.passed
        v = report.violations[0]
        assert v.axiom == "relaxed-triangle"
        assert v.witness == (0, 2, 1)
        assert v.lhs == 4.0
        assert v.rhs == pytest.approx(3.8, rel=1e-15)

    def test_singleton_sample_passes(self):
        assert verify_axioms(make_power_space(1, 2.0), grid1(7), tol=0.0).passed

    def test_identity_violation_on_indistinct_points(self):
        sp = make_power_space(1, 2.0)
        # distance (1e-7)^2 = 1e-14 reads as zero at tol 1e-9, but the
        # points are not coordinate-equal
        report = verify_axioms(sp, [(0.0,), (1e-7,)], tol=1e-9)
        assert any(v.axiom == "identity" for v in report.violations)
        assert verify_axioms(sp, [(0.0,), (1e-7,)], tol=0.0).passed

    def test_order_insensitive(self):
        sp = make_matrix_space(3, SQUARED_LINE, 1.9)
        flags = set()
        for sample in [[0, 1, 2], [2, 0, 1], [1, 2, 0]]:
            flags.add(verify_axioms(sp, sample, tol=0.0).passed)
        assert flags == {False}

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            verify_axioms(make_power_space(1, 2.0), [], tol=0.0)

    @pytest.mark.parametrize("p,dim", [(1.0, 1), (2.0, 1), (2.0, 2), (3.0, 2)])
    def test_power_spaces_pass_with_declared_s(self, p, dim):
        sp = make_power_space(dim, p)
        rng = SplitMix64(1000 + int(10 * p) + dim)
        sample = random_sample(rng, dim, 25)
        report = verify_axioms(sp, sample, tol=1e-12 * max_distance(sp, sample))
        assert report.passed


def reference_axioms(space, sample, tol):
    """verify_axioms by its definition: every ordered pair, then every
    ordered triple, one at a time."""
    n = len(sample)
    d = [[space.dist(x, y) for y in sample] for x in sample]
    out = []
    for i, x in enumerate(sample):
        for j, y in enumerate(sample):
            coincide = x == y if space.kind == "matrix" else all(abs(a - b) <= 1e-12 for a, b in zip(x, y))
            zero = d[i][j] == 0.0 if space.kind == "matrix" else d[i][j] <= tol
            if (x == y and d[i][j] != 0.0) or (zero and not coincide):
                out.append(AxiomViolation("identity", (x, y), d[i][j], 0.0))
            if abs(d[i][j] - d[j][i]) > tol:
                out.append(AxiomViolation("symmetry", (x, y), d[i][j], d[j][i]))
    for i, j, k in itertools.product(range(n), repeat=3):
        rhs = space.s * (d[i][k] + d[k][j]) + tol
        if d[i][j] > rhs:
            out.append(AxiomViolation("relaxed-triangle", (sample[i], sample[j], sample[k]), d[i][j], rhs))
    return AxiomReport(passed=not out, violations=tuple(out))


TOLS = st.sampled_from([0.0, 1e-9, 0.3])


class TestVerifyAxiomsMatchesPairLoop:
    """Same violations, in the same order, as the scalar scan."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), tol=TOLS)
    def test_unchecked_matrices(self, data, tol):
        # built without make_matrix_space's checks: asymmetric entries,
        # nonzero diagonals, zero off-diagonal entries, repeated ids
        n = data.draw(st.integers(1, 5))
        entry = st.sampled_from([0.0, 0.2, 1.0, 1.0 + 1e-12, 3.0])
        m = np.array([[data.draw(entry) for _ in range(n)] for _ in range(n)])
        space = BMetricSpace(kind="matrix", s=data.draw(st.sampled_from([1.0, 2.0])), matrix=m)
        sample = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        assert verify_axioms(space, sample, tol) == reference_axioms(space, sample, tol)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), tol=TOLS)
    def test_power_samples_with_near_duplicates(self, data, tol):
        dim = data.draw(st.integers(1, 2))
        space = make_power_space(dim, data.draw(st.sampled_from([0.5, 1.0, 2.0])))
        coord = st.sampled_from([0.0, -0.0, 1e-13, 1e-7, 0.5, 1.0])
        sample = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6))
        assert verify_axioms(space, sample, tol) == reference_axioms(space, sample, tol)


class TestVerifyAxiomsAcrossBlocks:
    """The via-point reduction works in row blocks; with the block budget cut
    to a row or a few, violations fall in several blocks and must still come
    out as the scalar scan gives them."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), tol=TOLS, budget=st.sampled_from([1, 40, 300]))
    def test_matrices_with_understated_s(self, data, tol, budget):
        n = data.draw(st.integers(1, 8))
        entry = st.sampled_from([0.0, 0.2, 1.0, 1.0 + 1e-12, 3.0, 9.0])
        m = np.array([[data.draw(entry) for _ in range(n)] for _ in range(n)])
        if data.draw(st.booleans()):  # symmetric, the form make_matrix_space accepts
            m = np.triu(m, 1) + np.triu(m, 1).T
        space = BMetricSpace(kind="matrix", s=data.draw(st.sampled_from([1.0, 1.2, 2.0])), matrix=m)
        sample = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bspace, "_BLOCK_SUMS", budget)
            got = verify_axioms(space, sample, tol)
        assert got == reference_axioms(space, sample, tol)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), tol=TOLS, budget=st.sampled_from([1, 40, 300]))
    def test_power_samples_with_understated_s(self, data, tol, budget):
        dim = data.draw(st.integers(1, 2))
        p = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        declared = make_power_space(dim, p).s
        s = data.draw(st.sampled_from([declared, max(1.0, declared / 2), 1.0]))
        space = BMetricSpace(kind="power", s=s, dim=dim, p=p)
        coord = st.sampled_from([0.0, -0.0, 1e-13, 1e-7, 0.5, 1.0, 2.0, 3.0])
        sample = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bspace, "_BLOCK_SUMS", budget)
            got = verify_axioms(space, sample, tol)
        assert got == reference_axioms(space, sample, tol)

    def test_violations_span_every_block(self, monkeypatch):
        # s = 1 on the squared line: every pair two or more steps apart is
        # violated through each point between them, one row per block
        monkeypatch.setattr(bspace, "_BLOCK_SUMS", 1)
        space = BMetricSpace(kind="power", s=1.0, dim=1, p=2.0)
        sample = grid1(*range(12))
        got = verify_axioms(space, sample, 0.0)
        assert {v.witness[0] for v in got.violations} == set(sample)
        assert got == reference_axioms(space, sample, 0.0)


class TestVerifyAxiomsNearTheFloatMaximum:
    # the triangle scan's right-hand sides overflow to inf, which no
    # distance exceeds: the verdict is unchanged and nothing is printed
    @pytest.mark.parametrize(
        "m, s, want",
        [
            ([[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]], 1.0, AxiomReport(passed=True)),
            ([[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]], 2.0, AxiomReport(passed=True)),
            (
                [[0, 1.7e308, 1e300], [1.7e308, 0, 1e308], [1e300, 1e308, 0]],
                1.0,
                AxiomReport(
                    passed=False,
                    violations=(
                        AxiomViolation("relaxed-triangle", (0, 1, 2), 1.7e308, 1.00000001e308),
                        AxiomViolation("relaxed-triangle", (1, 0, 2), 1.7e308, 1.00000001e308),
                    ),
                ),
            ),
        ],
    )
    def test_same_report_and_no_warning(self, m, s, want):
        space = make_matrix_space(3, m, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_axioms(space, [0, 1, 2]) == want


class TestEstimateMinS:
    def test_metric_line(self):
        assert estimate_min_s(make_power_space(1, 1.0), grid1(0, 1, 2)) == 1.0

    def test_equispaced_squared_triple_attains_two(self):
        assert estimate_min_s(make_power_space(1, 2.0), grid1(0, 1, 2)) == 2.0

    def test_skewed_triple(self):
        got = estimate_min_s(make_power_space(1, 2.0), grid1(0, 1, 10))
        assert got == pytest.approx(100.0 / 82.0, rel=1e-15)

    def test_needs_two_distinct_points(self):
        with pytest.raises(ValueError, match="distinct"):
            estimate_min_s(make_power_space(1, 2.0), [(3.0,), (3.0,)])

    @pytest.mark.parametrize("p,dim", [(1.0, 1), (2.0, 2), (3.0, 1)])
    def test_never_exceeds_declared_s(self, p, dim):
        sp = make_power_space(dim, p)
        rng = SplitMix64(77 + dim + int(p))
        for _ in range(10):
            sample = random_sample(rng, dim, 12)
            assert estimate_min_s(sp, sample) <= sp.s + 1e-12


def reference_min_s(space, sample):
    """estimate_min_s by its definition: every ordered triple, one at a time."""
    d = [[space.dist(x, y) for y in sample] for x in sample]
    best = 1.0
    for i, j, k in itertools.product(range(len(sample)), repeat=3):
        den = d[i][k] + d[k][j]
        if d[i][j] > 0.0 and den > 0.0:
            best = max(best, d[i][j] / den)
    return best


class TestEstimateMinSMatchesTripleLoop:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), budget=st.sampled_from([1, 40, 1 << 16]))
    def test_power_samples_with_near_duplicates(self, data, budget):
        dim = data.draw(st.integers(1, 2))
        space = make_power_space(dim, data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])))
        coord = st.one_of(
            st.sampled_from([0.0, -0.0, 1e-13, 1e-7, 0.5, 1.0]), st.floats(-3.0, 3.0, allow_nan=False)
        )
        sample = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=10))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bspace, "_BLOCK_SUMS", budget)
            if all(x == y for x in sample for y in sample):
                with pytest.raises(ValueError, match="distinct"):
                    estimate_min_s(space, sample)
            else:
                assert estimate_min_s(space, sample) == reference_min_s(space, sample)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_unchecked_matrices_with_zero_sums(self, data):
        # zero off-diagonal entries make d(x,z) + d(z,y) = 0 with d(x,y) > 0,
        # and negative ones make it negative: both sums are skipped
        n = data.draw(st.integers(2, 6))
        entry = st.sampled_from([-1.0, 0.0, 0.1, 0.2, 0.5, 1.0, 3.0])
        m = np.array([[data.draw(entry) for _ in range(n)] for _ in range(n)])
        space = BMetricSpace(kind="matrix", s=1.0, matrix=m)
        sample = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=8))
        if not any(m[x, y] > 0.0 for x in sample for y in sample):
            with pytest.raises(ValueError, match="distinct"):
                estimate_min_s(space, sample)
        else:
            assert estimate_min_s(space, sample) == reference_min_s(space, sample)

    def test_negative_via_sums_are_skipped(self):
        # d(0,1) = 1, and its smallest via-point sum is d(0,2) + d(2,1) = -1:
        # the ratio is over the smallest positive sum, d(0,3) + d(3,1) = 0.1
        m = np.zeros((4, 4))
        m[0, 1], m[0, 2], m[0, 3] = 1.0, -1.0, 0.1
        space = BMetricSpace(kind="matrix", s=1.0, matrix=m)
        assert estimate_min_s(space, [0, 1, 2, 3]) == reference_min_s(space, [0, 1, 2, 3]) == 1.0 / 0.1

    def test_underflowing_via_sums_are_skipped(self):
        # p = 20: d(0, 4e-17) and d(4e-17, 8e-17) underflow to 0 but
        # d(0, 8e-17) = 1.14e-322 does not, so that pair's only positive
        # via-point sums are the ones through its own ends
        space = make_power_space(1, 20.0)
        sample = grid1(0.0, 4e-17, 8e-17)
        assert space.dist(sample[0], sample[1]) == 0.0 < space.dist(sample[0], sample[2])
        assert estimate_min_s(space, sample) == reference_min_s(space, sample) == 1.0


class TestNonFiniteSampleDistance:
    # finite coordinates whose distance overflows: math.dist((1e308,), (-1e308,)) is inf
    @pytest.mark.parametrize("check", [verify_axioms, estimate_min_s])
    def test_first_pair_in_index_order_is_named(self, check):
        space = make_power_space(1, 1.0)
        message = r"^sample pair \(\(1e\+308,\), \(-1e\+308,\)\) has non-finite distance inf$"
        with pytest.raises(ValueError, match=message):
            check(space, grid1(1e308, -1e308, 0.0))
        # d(0, 1e308) is finite; (1e308, -1e308) is the first pair that is not
        with pytest.raises(ValueError, match=r"\(\(1e\+308,\), \(-1e\+308,\)\)"):
            check(space, grid1(0.0, 1e308, -1e308))

    def test_no_warning_on_the_way(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite distance"):
                verify_axioms(make_power_space(2, 1.0), [(0.0, 1e308), (0.0, -1e308)], tol=0.0)


# -- bulk distances -----------------------------------------------------------

# 0, the tiny and huge coordinates make d**p underflow, overflow (p >= 2 at
# 1e154) or neither; a small pool repeats points
EDGE_COORDS = st.sampled_from([0.0, 1.0, -1.0, 1e-160, -1e-160, 1e154, -1e154])
COORDS = st.one_of(EDGE_COORDS, st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


@st.composite
def power_pairs(draw):
    dim = draw(st.integers(1, 3))
    space = make_power_space(dim, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])))
    pool = draw(st.lists(st.tuples(*[COORDS] * dim), min_size=1, max_size=4))
    point = st.one_of(st.sampled_from(pool), st.tuples(*[COORDS] * dim))
    pairs = draw(st.lists(st.tuples(point, point), max_size=30))
    return space, [x for x, _ in pairs], [y for _, y in pairs]


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 6))
    d = [[0.0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(st.one_of(st.sampled_from([1e-300, 1.0, 1e300]), st.floats(1e-3, 1e3)))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30))
    return make_matrix_space(n, d, 2.0), [x for x, _ in pairs], [y for _, y in pairs]


def bits_or_error(evaluate):
    """The hex form of each distance, or the type of the error raised."""
    try:
        return [float(d).hex() for d in evaluate()]
    except ArithmeticError as exc:
        return type(exc)


class TestDistsMatchesDist:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(power_pairs(), matrix_pairs()))
    def test_entry_by_entry(self, case):
        space, xs, ys = case
        got = bits_or_error(lambda: space.dists(xs, ys))
        assert got == bits_or_error(lambda: [space.dist(x, y) for x, y in zip(xs, ys)])
        assert got == bits_or_error(lambda: space.dists(iter(xs), iter(ys)))
        if not isinstance(got, type):
            assert space.dists(xs, ys).dtype == np.float64

    @pytest.mark.parametrize("space", [make_power_space(2, 1.5), make_matrix_space(3, SQUARED_LINE, 2.0)])
    def test_empty_input(self, space):
        got = space.dists([], [])
        assert got.shape == (0,) and got.dtype == np.float64


def test_bulk_layers_make_no_scalar_distance_calls(monkeypatch):
    """verify_axioms and bound_audit take every distance through dists."""
    calls = [0]
    real_dist = BMetricSpace.dist

    def counted_dist(self, x, y):
        calls[0] += 1
        return real_dist(self, x, y)

    def count(fn, *args):
        calls[0] = 0
        monkeypatch.setattr(BMetricSpace, "dist", counted_dist)
        try:
            fn(*args)
        finally:
            monkeypatch.undo()
        return calls[0]

    paper = builtin("paper-example")
    finite = builtin("random-finite", 7)
    plane = make_power_space(2, 1.5)
    shear, lift = ([[0.5, 0.1], [0.0, 0.5]], [0.0, 0.0]), ([[0.5, 0.0], [0.2, 0.5]], [1.0, 0.0])
    branches = make_branch_map(plane, [shear, lift])
    sample = random_sample(SplitMix64(5), 2, 30, scale=2.0)
    for space, pts in ((paper.space, sample_points(paper)), (finite.space, sample_points(finite)), (plane, sample)):
        assert count(verify_axioms, space, pts, 1e-12) == 0

    trace = run_orbit(plane, branches, 0.5, 0.3, 0.5, (1.0, 1.0), tol=1e-12, max_iter=500)
    assert len(trace.steps) > 10
    assert count(bound_audit, plane, trace) == 0


def test_certify_work_per_point_and_pair(monkeypatch):
    """certify on n points makes n image_of calls, the scalar dist calls of
    the residuals d(x, T(x)) and nothing else, and exactly
    (1 + |T(x)|) * (1 + |T(y)|) dists entries for each pair: ragged image
    sizes are padded in the gather, never evaluated."""
    paper = builtin("paper-example")
    finite = builtin("random-finite", 7)
    plane = make_power_space(2, 1.5)
    shear, lift = ([[0.5, 0.1], [0.0, 0.5]], [0.0, 0.0]), ([[0.5, 0.0], [0.2, 0.5]], [1.0, 0.0])
    sample = random_sample(SplitMix64(5), 2, 30, scale=2.0)
    # without the offset the two branches meet at the origin, where T has one element
    ragged = make_branch_map(plane, [shear, (lift[0], [0.0, 0.0])])
    line = make_matrix_space(3, SQUARED_LINE, 2.0)
    table = qc.make_table_map(line, {0: [0, 2], 1: [0], 2: [1, 0, 2]})
    cases = [
        (paper.space, paper.map, sample_points(paper), False),
        (finite.space, finite.map, sample_points(finite), False),
        (plane, make_branch_map(plane, [shear, lift]), sample, False),
        (plane, ragged, [(0.0, 0.0)] + sample, True),
        (line, table, [2, 0, 1], True),
    ]
    real_image_of, real_dist, real_dists = qc.image_of, BMetricSpace.dist, BMetricSpace.dists
    for space, tmap, pts, is_ragged in cases:
        sizes = [len(real_image_of(space, tmap, x).elements) for x in pts]
        assert (len(set(sizes)) > 1) == is_ragged
        want_entries = sum((1 + a) * (1 + b) for a, b in itertools.combinations(sizes, 2))
        counts = {"image_of": 0, "dist": 0, "entries": 0}

        def counted_image_of(*args):
            counts["image_of"] += 1
            return real_image_of(*args)

        def counted_dist(self, x, y):
            counts["dist"] += 1
            return real_dist(self, x, y)

        def counted_dists(self, xs, ys):
            out = real_dists(self, xs, ys)
            counts["entries"] += len(out)
            return out

        with monkeypatch.context() as m:
            m.setattr(qc, "image_of", counted_image_of)
            m.setattr(BMetricSpace, "dist", counted_dist)
            m.setattr(BMetricSpace, "dists", counted_dists)
            cert = certify(space, tmap, pts, 0.5, 0.5)
        assert cert.n_pairs == len(pts) * (len(pts) - 1) // 2
        assert counts == {"image_of": len(pts), "dist": sum(sizes), "entries": want_entries}
