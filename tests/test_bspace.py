import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfixpoint.bspace import (
    AxiomReport,
    AxiomViolation,
    BMetricSpace,
    estimate_min_s,
    make_matrix_space,
    make_power_space,
    verify_axioms,
)
from bfixpoint.rng import SplitMix64

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
