import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfixpoint import bspace
from bfixpoint.bspace import (
    VERIFY_TOL,
    AxiomReport,
    AxiomViolation,
    BMetricSpace,
    estimate_min_s,
    make_matrix_space,
    make_power_space,
    verify_axioms,
)
from bfixpoint.orbit import bound_audit, run_orbit
from bfixpoint import cli
from bfixpoint import quasicontraction as qc
from bfixpoint.quasicontraction import QuasiParams, certify, image_of, make_branch_map
from bfixpoint.rng import SplitMix64
from bfixpoint.scenarios import PointsSample, Scenario, builtin, load, sample_points, save

SQUARED_LINE = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]


def grid1(*xs):
    return [(float(x),) for x in xs]


def random_sample(rng, dim, n, scale=10.0):
    return [tuple(rng.uniform(-scale, scale) for _ in range(dim)) for _ in range(n)]


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
        report = verify_axioms(sp, sample, tol=1e-12)
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


# one call per argument check: (call, message)
BAD_ARGUMENTS = {
    "n-points-of-power-space": (lambda: make_power_space(1, 2.0).n_points, "continuous space has no finite point list"),
    "negative-tol": (lambda: verify_axioms(make_power_space(1, 2.0), grid1(0, 1), tol=-1.0), "tol must be >= 0"),
    # nan would pass every check, and inf would call every distance zero
    "nan-tol": (
        lambda: verify_axioms(make_power_space(1, 2.0), grid1(0, 1), tol=math.nan),
        "^tol must be >= 0 and finite, got nan$",
    ),
    "inf-tol": (
        lambda: verify_axioms(make_power_space(1, 2.0), grid1(0, 1), tol=math.inf),
        "^tol must be >= 0 and finite, got inf$",
    ),
    # counts are not coerced: int(2.7) would build a plane, and True a line
    "float-dimension": (lambda: make_power_space(2.7, 2.0), "^dimension must be an integer, got 2.7$"),
    "bool-dimension": (lambda: make_power_space(True, 2.0), "^dimension must be an integer, got True$"),
    "float-matrix-size": (lambda: make_matrix_space(2.0, [[0.0, 1.0], [1.0, 0.0]], 1.0), "^n must be an integer"),
    # a space built directly is checked as the factories' spaces are
    "power-space-s-below-one": (
        lambda: BMetricSpace(kind="power", s=0.5, dim=1, p=2.0), "^relaxation coefficient s must be finite and >= 1"
    ),
    "unknown-space-kind": (
        lambda: BMetricSpace(kind="grid", s=1.0, dim=1, p=1.0), "^space kind must be 'power' or 'matrix', got 'grid'$"
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_rejected(case):
    call, message = BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestMakeMatrixSpace:
    def test_two_point_metric(self):
        sp = make_matrix_space(2, [[0.0, 1.0], [1.0, 0.0]], 1.0)
        assert sp.dist(0, 1) == 1.0
        assert sp.n_points == 2

    def test_squared_collinear_points(self):
        sp = make_matrix_space(3, SQUARED_LINE, 2.0)
        assert verify_axioms(sp, range(sp.n_points), tol=0.0).passed  # 4 <= 2*(1+1)

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

    def test_callers_array_stays_writable(self):
        # a float64 array used to be frozen in place rather than copied
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        sp = make_matrix_space(2, m, 1.0)
        m[0, 1] = 2.0
        assert not sp.matrix.flags.writeable
        assert sp.matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match="read-only"):
            sp.matrix[0, 1] = 3.0


# matrices and coefficients no space accepts: (matrix, s, message)
INVALID_MATRIX_SPACES = {
    "asymmetric": (
        [[0.0, 1.0, 2.0, 3.0], [5.0, 0.0, 1.0, 2.0], [1.0, 4.0, 0.0, 1.0], [2.0, 1.0, 6.0, 0.0]],
        2.0,
        r"^asymmetry at \(0,1\): 1\.0 != 5\.0$",
    ),
    "nonzero-diagonal": ([[0.0, 1.0], [1.0, 0.5]], 1.0, r"^nonzero diagonal at \(1,1\): 0\.5$"),
    "negative-entry": ([[0.0, -1.0], [-1.0, 0.0]], 1.0, r"^negative entry at \(0,1\): -1\.0$"),
    "zero-off-diagonal": ([[0.0, 0.0], [0.0, 0.0]], 1.0, r"^zero off-diagonal entry at \(0,1\)"),
    "non-square": ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]], 1.0, r"^expected a 2x2 matrix, got shape \(2, 3\)$"),
    "non-finite": ([[0.0, math.inf], [math.inf, 0.0]], 1.0, r"^non-finite entry at \(0,1\)$"),
    "s-below-one": ([[0.0, 1.0], [1.0, 0.0]], 0.5, r"^relaxation coefficient s must be finite and >= 1, got 0\.5$"),
    "infinite-s": ([[0.0, 1.0], [1.0, 0.0]], math.inf, r"^relaxation coefficient s must be finite and >= 1, got inf$"),
}


@pytest.mark.parametrize("case", INVALID_MATRIX_SPACES)
def test_matrix_space_checks_itself(case):
    # the constructor raises make_matrix_space's message: no table that is
    # asymmetric, negative or zero in the wrong place can be built
    m, s, message = INVALID_MATRIX_SPACES[case]
    with pytest.raises(ValueError, match=message):
        make_matrix_space(len(m), m, s)
    with pytest.raises(ValueError, match=message):
        BMetricSpace(kind="matrix", s=s, matrix=np.array(m))


class TestVerifyAxioms:
    def test_quadratic_grid_passes_at_zero_tol(self):
        sp = make_power_space(1, 2.0)
        assert verify_axioms(sp, grid1(0, 1, 2), tol=0.0).passed

    def test_understated_s_reports_witness(self):
        # same squared distances but s declared below the true coefficient
        sp = make_matrix_space(3, SQUARED_LINE, 1.9)
        report = verify_axioms(sp, range(sp.n_points), tol=0.0)
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
        # distance (1e-7)^2 = 1e-14 reads as zero at tol 1e-9 of the largest
        # distance d(0, 1) = 1, but the points are not coordinate-equal
        sample = grid1(0.0, 1e-7, 1.0)
        report = verify_axioms(sp, sample, tol=1e-9)
        assert any(v.axiom == "identity" for v in report.violations)
        assert verify_axioms(sp, sample, tol=0.0).passed

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
        report = verify_axioms(sp, sample, tol=1e-12)
        assert report.passed


def reference_axioms(space, sample, tol):
    """verify_axioms by its definition: every ordered pair, then every
    ordered triple, one at a time, with tol relative to the largest
    distance."""
    n = len(sample)
    d = [[space.dist(x, y) for y in sample] for x in sample]
    tol = tol * max(map(max, d))
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


@st.composite
def symmetric_matrices(draw, entries, max_n):
    """A matrix every space accepts: positive entries drawn for i < j and
    mirrored, and a diagonal of 0.0 or -0.0 (no check reads the sign of a
    zero)."""
    n = draw(st.integers(1, max_n))
    m = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        m[i, j] = m[j, i] = draw(st.sampled_from(entries))
    for i in range(n):
        m[i, i] = draw(st.sampled_from([0.0, -0.0]))
    return m


class TestVerifyAxiomsMatchesPairLoop:
    """Same violations, in the same order, as the scalar scan."""

    @settings(max_examples=100)
    @given(data=st.data(), tol=TOLS)
    def test_power_samples_with_near_duplicates(self, data, tol):
        dim = data.draw(st.integers(1, 2))
        space = make_power_space(dim, data.draw(st.sampled_from([0.5, 1.0, 2.0])))
        coord = st.sampled_from([0.0, -0.0, 1e-13, 1e-7, 0.5, 1.0])
        sample = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6))
        assert verify_axioms(space, sample, tol) == reference_axioms(space, sample, tol)


class TestVerifyAxiomsRelativeTol:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_scaling_the_table_by_a_power_of_two_keeps_the_violations(self, data):
        # tol is relative to the largest distance, so a table scaled by 2**40
        # (exactly) has the same violations at tol = 0.3, each side scaled
        m = data.draw(symmetric_matrices([0.2, 1.0, 1.0 + 1e-12, 3.0], 5))
        s = data.draw(st.sampled_from([1.0, 1.2, 2.0]))
        sample = data.draw(st.lists(st.integers(0, len(m) - 1), min_size=1, max_size=6))
        scale = 2.0**40
        small = verify_axioms(BMetricSpace(kind="matrix", s=s, matrix=m), sample, 0.3)
        big = verify_axioms(BMetricSpace(kind="matrix", s=s, matrix=m * scale), sample, 0.3)
        assert [(v.axiom, v.witness) for v in big.violations] == [(v.axiom, v.witness) for v in small.violations]
        assert [(v.lhs, v.rhs) for v in big.violations] == [(v.lhs * scale, v.rhs * scale) for v in small.violations]


class TestVerifyAxiomsAcrossBlocks:
    """The via-point reduction works in row blocks; with the block budget cut
    to a row or a few, violations fall in several blocks and must still come
    out as the scalar scan gives them."""

    @settings(max_examples=150)
    @given(data=st.data(), tol=TOLS, budget=st.sampled_from([1, 40, 300]))
    def test_matrices_with_understated_s(self, data, tol, budget):
        m = data.draw(symmetric_matrices([0.2, 1.0, 1.0 + 1e-12, 3.0, 9.0], 8))
        space = BMetricSpace(kind="matrix", s=data.draw(st.sampled_from([1.0, 1.2, 2.0])), matrix=m)
        sample = data.draw(st.lists(st.integers(0, len(m) - 1), min_size=1, max_size=12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bspace, "_BLOCK_SUMS", budget)
            got = verify_axioms(space, sample, tol)
        assert got == reference_axioms(space, sample, tol)

    @settings(max_examples=150)
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


# -- the relaxed triangle as a theorem of power spaces --------------------------

# from the exact check past the rounding bound: 2**-53 and 2**-50 lie below
# the bound at every p, 2**-46 to VERIFY_TOL above it at small p and below it
# at large p, 1e-9 and 0.3 above it at every p
THEOREM_TOLS = [0.0, 2.0**-53, 2.0**-50, 2.0**-46, 2.0**-40, VERIFY_TOL, 1e-9, 0.3]


def report_or_error(space, sample, tol):
    try:
        return verify_axioms(space, sample, tol)
    except ValueError as e:  # a distance beyond the float range
        return type(e), str(e)


def scanned(space, sample, tol):
    """verify_axioms with the relaxed triangle scanned whatever the table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bspace, "_triangle_is_theorem", lambda *args: False)
        return report_or_error(space, sample, tol)


@st.composite
def theorem_cases(draw):
    """A power space whose s is at, above or below max(1, 2**(p-1)), and a
    sample of distinct points: grid points k*scale (exact midpoints when
    scale is a power of two) or uniform ones, at scales from 1e-3 to 1e3 or
    at one where distances underflow (for p < 1, where roots are
    subnormal), and in one case of four with a near-duplicate."""
    dim = draw(st.integers(1, 3))
    p = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 64.0, 1000.0, 1024.0]))
    at = bspace._power_coefficient(p)
    s = draw(st.sampled_from([at, math.nextafter(at, math.inf), 1.5 * at, max(1.0, math.nextafter(at, 0.0)), max(1.0, at / 2)]))
    underflow = 0.3 * 2.0 ** (-1057 // max(p, 1.0))  # d(0, underflow), or its root at p < 1, is below 2**-1057
    scale = draw(st.sampled_from([2.0**-10, 1e-3, 0.3, 1.0, 1e3, 2.0**10, underflow, underflow]))
    if draw(st.booleans()):
        coord = st.integers(-3, 3).map(lambda k: k * scale)
    else:
        coord = st.floats(-3 * scale, 3 * scale, allow_nan=False, allow_infinity=False)
    sample = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8, unique=True))
    if draw(st.integers(0, 3)) == 0:
        x = draw(st.sampled_from(sample))
        nudged = draw(st.sampled_from([math.nextafter(x[0], math.inf), x[0] + 1e-7 * scale]))
        sample.append((nudged,) + x[1:])
    return BMetricSpace(kind="power", s=s, dim=dim, p=p), sample


class TestTriangleWithoutTheScan:
    """On a power space whose s is at least max(1, 2**(p-1)), with normal
    table entries and a tol at least the rounding bound, verify_axioms
    skips the relaxed-triangle scan; the report is the scan's all the same."""

    @settings(max_examples=600)
    @given(case=theorem_cases(), tol=st.sampled_from(THEOREM_TOLS))
    def test_same_report_as_the_scan(self, case, tol):
        space, sample = case
        assert report_or_error(space, sample, tol) == scanned(space, sample, tol)

    @pytest.mark.parametrize(
        "p, dim, sample, tol",
        [
            # rounding violations in normal-range tables: still there at
            # tol = 1/2, 512 and 128 units of roundoff (2**-53)
            (1.0, 1, grid1(0.00048070244885618817, -4.275611298001758e-05, 0.00038411353769061865), 2.0**-54),
            (1024.0, 1, grid1(0.3, -0.3, 3 * 0.3), 2.0**-44),
            (300.0, 2, [(0.7, 0.0), (-3 * 0.7, 0.0), (-0.7, 0.0)], 2.0**-46),
        ],
    )
    def test_the_bound_lies_above_the_rounding(self, p, dim, sample, tol):
        space = make_power_space(dim, p)
        report = scanned(space, sample, tol)
        assert "relaxed-triangle" in {v.axiom for v in report.violations}
        assert bspace._rounding_bound(p, dim) > tol
        assert verify_axioms(space, sample, tol) == report

    @pytest.mark.parametrize(
        "p, sample",
        [
            # subnormal distances on a squared grid with exact midpoints
            (2.0, grid1(0.0, 3e-161, 6e-161)),
            # d(0, 1e-5) underflows to 0, d(0, 2e-5) is normal
            (64.0, grid1(0.0, 1e-5, 2e-5)),
        ],
    )
    def test_underflowing_tables_keep_their_violations(self, p, sample):
        space = make_power_space(1, p)
        report = verify_axioms(space, sample, VERIFY_TOL)
        assert "relaxed-triangle" in {v.axiom for v in report.violations}
        assert report == scanned(space, sample, VERIFY_TOL)


def test_triangle_scans_only_where_rounding_can_break_it(monkeypatch):
    """The via-point reduction runs once per verify_axioms call, or not at
    all where the relaxed triangle is a theorem up to rounding below tol."""
    calls = [0]
    real_via_minimum = bspace._via_minimum

    def counted(dmat):
        calls[0] += 1
        return real_via_minimum(dmat)

    monkeypatch.setattr(bspace, "_via_minimum", counted)

    def scans(space, sample, tol=VERIFY_TOL):
        calls[0] = 0
        verify_axioms(space, sample, tol)
        return calls[0]

    line = make_power_space(1, 2.0)
    grid = grid1(*range(-20, 21))
    cloud = random_sample(SplitMix64(5), 3, 30, scale=2.0)
    assert scans(line, grid) == 0
    assert scans(make_power_space(2, 1.5), [x[:2] for x in cloud]) == 0
    assert scans(make_power_space(3, 0.5), cloud) == 0
    assert scans(BMetricSpace(kind="power", s=3.0, dim=1, p=2.0), grid) == 0  # s above the coefficient
    assert scans(make_power_space(1, 1024.0), grid1(0.3, -0.3, 0.9)) == 0
    assert scans(line, grid, tol=0.0) == 1
    assert scans(line, grid, tol=bspace._rounding_bound(2.0, 1)) == 0
    assert scans(line, grid, tol=math.nextafter(bspace._rounding_bound(2.0, 1), 0.0)) == 1
    corners = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    assert scans(make_power_space(3, 449.0), corners) == 0
    assert scans(make_power_space(3, 450.0), corners) == 1  # the bound exceeds VERIFY_TOL above p = 449 in 3-D
    assert scans(BMetricSpace(kind="power", s=math.nextafter(2.0, 0.0), dim=1, p=2.0), grid) == 1
    assert scans(line, grid1(0.0, 3e-161, 1.0)) == 1  # a subnormal entry
    assert scans(line, grid + grid1(0)) == 1  # a repeated point: a zero entry
    assert scans(make_power_space(1, 0.5), grid1(0.0, 1e-318, 1.0)) == 1  # a normal entry of a subnormal root
    assert scans(make_matrix_space(3, SQUARED_LINE, 2.0), [0, 1, 2]) == 1


def test_verify_command_reads_verify_tol(monkeypatch, capsys):
    tols, shapes = [], []

    def recorded(space, sample, tol=0.0, **private):
        tols.append(tol)
        shapes.append(private["_table"].shape)
        return verify_axioms(space, sample, tol, **private)

    monkeypatch.setattr(cli, "verify_axioms", recorded)
    cli.main(["verify", "--scenario", "paper-example"])
    capsys.readouterr()
    n = len(sample_points(builtin("paper-example")))
    assert tols == [VERIFY_TOL]
    assert shapes == [(n, n)]  # certify's table of the sample's distances


@pytest.mark.parametrize("check", [verify_axioms, estimate_min_s])
@pytest.mark.parametrize("coordinate", ["a", 1j])
def test_a_coordinate_that_is_not_real_is_a_value_error(check, coordinate):
    point = (1.0, coordinate)
    message = f"^coordinate {coordinate!r} is not a real number in point {re.escape(repr(point))}$"
    with pytest.raises(ValueError, match=message):
        check(make_power_space(2, 2.0), [(0.0, 0.0), point])
    with pytest.raises(ValueError, match="is not a real number"):
        replace(builtin("paper-example"), x0=(coordinate,))


def certify_halving(space, sample):
    return certify(space, make_branch_map(space, [([[0.5]], [0.0])]), sample, 0.5, 0.5)


@pytest.mark.parametrize("check", [verify_axioms, estimate_min_s, certify_halving])
def test_an_integer_beyond_the_float_range_is_a_value_error(check):
    # math.isfinite(10**400) raises OverflowError: int too large to convert to float
    with pytest.raises(ValueError, match=r"^coordinate beyond the float range in point \(10{400},\)$"):
        check(make_power_space(1, 1.0), [(0.0,), (10**400,)])


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



@pytest.mark.parametrize("space, pts", [
    (make_power_space(1, 2.0), grid1(0, 1, 2, 10)),
    (make_matrix_space(3, SQUARED_LINE, 1.9), [2, 0, 1]),
])
def test_one_pass_samples(space, pts):
    """verify_axioms and estimate_min_s read their sample once, as certify does."""
    assert verify_axioms(space, iter(pts), tol=0.0) == verify_axioms(space, pts, tol=0.0)
    assert estimate_min_s(space, iter(pts)) == estimate_min_s(space, pts)

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
    @settings(max_examples=150)
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
# 1e154) or neither; at +-1e308 the difference x - y itself overflows to
# inf, and 5e-324 gives subnormal differences; a small pool repeats points
EDGE_COORDS = st.sampled_from([0.0, 1.0, -1.0, 5e-324, 1e-160, -1e-160, 1e154, -1e154, 1e308, -1e308])
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
    @settings(max_examples=300)
    @given(st.one_of(power_pairs(), matrix_pairs()))
    def test_entry_by_entry(self, case):
        space, xs, ys = case
        table = space.point_table(xs + ys)
        ix, iy = np.arange(len(xs)), np.arange(len(xs), len(xs) + len(ys))
        got = bits_or_error(lambda: space.dists(table[ix], table[iy]))
        assert got == bits_or_error(lambda: [space.dist(x, y) for x, y in zip(xs, ys)])
        if not isinstance(got, type):
            assert space.dists(table[ix], table[iy]).dtype == np.float64

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "x, y",
        [
            ((0.0,), (5e-324,)),
            ((-5e-324,), (5e-324,)),
            ((1e308,), (-1e308,)),
            ((-1e308,), (1e308,)),
            ((1e200,), (-1e200,)),  # only the power overflows, at p = 2
        ],
    )
    def test_extreme_differences_in_one_dimension(self, p, x, y):
        # a subnormal |x - y| is kept, not flushed to 0, and a distance
        # beyond the float range, from |x - y| or from its power, is inf,
        # with no error and no warning
        space = make_power_space(1, p)
        table = space.point_table([x, y])
        want = [space.dist(a, b).hex() for a, b in ((x, y), (y, x), (x, x))]
        assert [d.hex() for d in space.dists(table[[0, 1, 0]], table[[1, 0, 0]])] == want

    @pytest.mark.parametrize("p", [0.5, 3.0, 30.0])
    def test_extreme_differences_in_two_dimensions(self, p):
        # the power overflows from (1e103, 1e103) at p = 3 and from (1e11,
        # 1e11) at p = 30, the norm at (2e308, 0) at every p; one dists call
        # takes them all, finite and infinite entries mixed, as dist does
        space = make_power_space(2, p)
        xs = [(0.0, 0.0), (1.0, 2.0), (0.0, 0.0), (1e308, 1.0), (0.0, 0.0), (1e308, 1e308)]
        ys = [(1e103, 1e103), (3.0, 5.0), (1e11, 1e11), (-1e308, 1.0), (-1e103, 1e103), (-1e308, -1e308)]
        table = space.point_table(xs + ys)
        got = [d.hex() for d in space.dists(table[: len(xs)], table[len(xs) :])]
        assert got == [space.dist(x, y).hex() for x, y in zip(xs, ys)]
        assert (math.inf).hex() in got and (p < 3.0) == math.isfinite(space.dist(xs[0], ys[0]))

    @pytest.mark.parametrize(
        "space", [make_power_space(1, 1.5), make_power_space(2, 1.5), make_matrix_space(3, SQUARED_LINE, 2.0)]
    )
    def test_empty_input(self, space):
        table = space.point_table([])
        got = space.dists(table, table)
        assert got.shape == (0,) and got.dtype == np.float64


# -- the distance table and the via-point reduction ---------------------------


@st.composite
def power_samples(draw):
    dim = draw(st.integers(1, 3))
    space = make_power_space(dim, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])))
    # -0.0 next to 0.0, near-duplicates a few ulps or COORD_TOL apart, and
    # +-1e308, whose distance is inf even where the power does not overflow
    coord = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, 1e-7, 1.0, 1.0 + 2**-52, 1e308, -1e308]), COORDS)
    pool = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4))
    sample = draw(st.lists(st.one_of(st.sampled_from(pool), st.tuples(*[coord] * dim)), min_size=1, max_size=10))
    return space, sample


def table_or_error(evaluate):
    """The hex form of each entry, or the type and message of the error raised."""
    try:
        return [[float(d).hex() for d in row] for row in evaluate()]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def reference_table(space, sample):
    """_distance_table by its definition: every ordered pair, one at a time,
    and the first non-finite one in index order named."""
    d = [[space.dist(x, y) for y in sample] for x in sample]
    for (i, x), (j, y) in itertools.product(enumerate(sample), repeat=2):
        if not math.isfinite(d[i][j]):
            raise ValueError(f"sample pair ({x!r}, {y!r}) has non-finite distance {d[i][j]}")
    return d


def hand_built_tables():
    """Symmetric tables with 0.0 and -0.0 on the diagonal and 1e308
    entries, whose sums overflow."""
    return symmetric_matrices([0.2, 1.0, 1.0 + 1e-12, 3.0, 1e308], 9)


class TestDistanceTableMatchesDist:
    @settings(max_examples=200)
    @given(power_samples())
    def test_power_spaces_entry_by_entry(self, case):
        space, sample = case
        got = table_or_error(lambda: bspace._distance_table(space, sample))
        assert got == table_or_error(lambda: reference_table(space, sample))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_first_non_finite_pair_is_named(self, dim, p):
        # d(0, +-1e308) is finite at these p; d(1e308, -1e308) is inf, and
        # its pair comes first in index order as (1, 2), not (2, 1)
        space = make_power_space(dim, p)
        sample = [(0.0,) * dim, (1e308,) * dim, (-1e308,) * dim, (0.0,) * dim]
        got = table_or_error(lambda: bspace._distance_table(space, sample))
        assert got == table_or_error(lambda: reference_table(space, sample))
        assert got[0] is ValueError and f"({sample[1]!r}, {sample[2]!r})" in got[1]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("check", [verify_axioms, estimate_min_s])
    def test_an_overflowing_power_names_its_pair(self, check, dim):
        # 10**400 overflows in pow, where the difference is finite; the
        # first pair, (0, 10), is named, not the pair (-1e308, 1e308)
        # whose difference is inf
        space = make_power_space(dim, 400.0)
        sample = [(0.0,) * dim, (10.0,) + (0.0,) * (dim - 1), (-1e308,) * dim, (1e308,) * dim]
        for pts, (x, y) in ((sample, sample[:2]), (sample[2:] + sample[:2], sample[2:])):
            # in the second order, the pair whose difference is inf comes first
            with pytest.raises(ValueError, match=re.escape(f"sample pair ({x!r}, {y!r}) has non-finite distance inf")):
                check(space, pts)


class TestViaMinimumMatchesTripleLoop:
    # == on floats, since a mirrored minimum may be 0.0 where the loop gives -0.0
    @settings(max_examples=200)
    @given(m=hand_built_tables(), budget=st.sampled_from([1, 40, bspace._BLOCK_SUMS]))
    def test_hand_built_tables(self, m, budget):
        n = len(m)
        d = m.tolist()
        want = [[min(d[i][k] + d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(bspace, "_BLOCK_SUMS", budget)
            assert bspace._via_minimum(m).tolist() == want

    @settings(max_examples=150)
    @given(
        data=st.data(), m=hand_built_tables(), tol=TOLS, budget=st.sampled_from([1, 40, bspace._BLOCK_SUMS])
    )
    def test_axioms_and_min_s_on_hand_built_tables(self, data, m, tol, budget):
        space = BMetricSpace(kind="matrix", s=data.draw(st.sampled_from([1.0, 1.2, 2.0])), matrix=m)
        sample = data.draw(st.lists(st.integers(0, len(m) - 1), min_size=1, max_size=10))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bspace, "_BLOCK_SUMS", budget)
            assert verify_axioms(space, sample, tol) == reference_axioms(space, sample, tol)
            if not any(m[x, y] > 0.0 for x in sample for y in sample):
                with pytest.raises(ValueError, match="distinct"):
                    estimate_min_s(space, sample)
            else:
                assert estimate_min_s(space, sample) == reference_min_s(space, sample)


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
    """certify on n points makes n image_of calls and no scalar dist call.
    Its dists entries are one per image element, for the residuals
    d(x, T(x)), and those of its blocks. Matrix spaces, the p = 1 line and
    one-element images evaluate exactly (1 + w)**2 block entries for each
    pair, w the widest image in the sample: narrower images are padded by
    repeating an element, and the padded entries are evaluated like the
    others. Other power spaces evaluate only the entries the squared-distance
    screen keeps: at least d(x, y), one entry for each of d(x, T(y)) and
    d(y, T(x)) and one for h, and fewer than (1 + w)**2 per pair.

    Worked by hand: on the squared line under x -> 0.5x and x -> 0.25x, the
    pair x = 1, y = 3 has T(x) = {0.5, 0.25} and T(y) = {1.5, 0.75}. Kept are
    d(x, y) = 4; d(x, 0.75) = 0.0625, the smaller of d(x, T(y)); d(0.5, y) =
    6.25, the smaller of d(T(x), y); and of h's distances [[1, 0.0625],
    [1.5625, 0.25]] (rows T(x), columns T(y)) only the minimum of the row
    whose minimum leads (0.25 over 0.0625), d(0.25, 0.75), and that of the
    column whose minimum leads (1 over 0.0625), d(0.5, 1.5): 5 of 9."""
    paper = builtin("paper-example")
    finite = builtin("random-finite", 7)
    plane = make_power_space(2, 1.5)
    shear, lift = ([[0.5, 0.1], [0.0, 0.5]], [0.0, 0.0]), ([[0.5, 0.0], [0.2, 0.5]], [1.0, 0.0])
    sample = random_sample(SplitMix64(5), 2, 30, scale=2.0)
    # without the offset the two branches meet at the origin, where T has one element
    ragged = make_branch_map(plane, [shear, (lift[0], [0.0, 0.0])])
    line = make_matrix_space(3, SQUARED_LINE, 2.0)
    table = qc.make_table_map(line, {0: [0, 2], 1: [0], 2: [1, 0, 2]})
    # x -> 0.5x and x -> -0.5x meet only at 0, the one point with a single image
    real_line, unit_line, squared_line = make_power_space(1, 1.5), make_power_space(1, 1.0), make_power_space(1, 2.0)
    fold = [([[0.5]], [0.0]), ([[-0.5]], [0.0])]
    halves = make_branch_map(squared_line, [([[0.5]], [0.0]), ([[0.25]], [0.0])])
    line_pts = [(-0.75,), (0.0,), (0.25,), (1.0,), (-3.0,)]
    cases = [
        # space, map, sample, ragged images, dists entries ("full", "screened" or the count)
        (paper.space, paper.map, sample_points(paper), False, "full"),
        (finite.space, finite.map, sample_points(finite), False, "full"),
        (plane, make_branch_map(plane, [shear, lift]), sample, False, "screened"),
        (plane, ragged, [(0.0, 0.0)] + sample, True, "screened"),
        (line, table, [2, 0, 1], True, "full"),
        (real_line, make_branch_map(real_line, fold), line_pts, True, "screened"),
        (unit_line, make_branch_map(unit_line, fold), line_pts, True, "full"),
        (squared_line, halves, [(1.0,), (3.0,)], False, 5),
        # the dyadic grid -5..5 step 0.125, where many points lie in another's
        # image: a pair with such a zero squared distance is evaluated in
        # full, every other pair is screened (29,160 = full, block by block)
        (squared_line, make_branch_map(squared_line, fold), [(-5.0 + i / 8,) for i in range(81)], True, 17000),
    ]
    real_image_of, real_dist, real_dists = qc.image_of, BMetricSpace.dist, BMetricSpace.dists
    for space, tmap, pts, is_ragged, want in cases:
        sizes = [len(real_image_of(space, tmap, x).elements) for x in pts]
        assert (len(set(sizes)) > 1) == is_ragged
        pairs = len(pts) * (len(pts) - 1) // 2
        full = pairs * (1 + max(sizes)) ** 2
        counts = {"image_of": 0, "dist": 0, "entries": 0}

        def counted_image_of(*args):
            counts["image_of"] += 1
            return real_image_of(*args)

        def counted_dist(self, x, y):
            counts["dist"] += 1
            return real_dist(self, x, y)

        def counted_dists(self, xs, ys):
            out = real_dists(self, xs, ys)
            counts["entries"] += out.size
            return out

        with monkeypatch.context() as m:
            m.setattr(qc, "image_of", counted_image_of)
            m.setattr(BMetricSpace, "dist", counted_dist)
            m.setattr(BMetricSpace, "dists", counted_dists)
            cert = certify(space, tmap, pts, 0.5, 0.5)
        assert cert.n_pairs == pairs
        entries = counts.pop("entries") - sum(sizes)  # the block entries, past the residuals'
        assert counts == {"image_of": len(pts), "dist": 0}
        if want == "full":
            assert entries == full
        elif want == "screened":
            assert 4 * pairs <= entries < full
        else:
            assert entries == want < full


def test_verify_work_is_certify_alone(monkeypatch, tmp_path, capsys):
    """bfixpoint verify on n points evaluates exactly the dists entries of
    certify on its sample, and checks each sample point once: verify_axioms
    builds its table from certify's pair distances, with no entry of its
    own, in a power space and a matrix space alike. certify evaluates one
    entry per image element (the residuals d(x, T(x))), then n(n-1)/2 *
    (1 + w)**2 block entries on a matrix space or with one-element images,
    and fewer where its screen applies (the 2-D sample). A scenario is
    resolved uncounted: random-finite's generation runs certify rounds of
    its own, and a Scenario checks its points when built."""
    plane = make_power_space(2, 1.5)
    # both branches fix the origin, the one sample point with a single image
    shear, lift = ([[0.5, 0.1], [0.0, 0.5]], [0.0, 0.0]), ([[0.5, 0.0], [0.2, 0.5]], [0.0, 0.0])
    pts = [(0.0, 0.0)] + random_sample(SplitMix64(5), 2, 30, scale=2.0)
    path = tmp_path / "plane.json"
    save(
        Scenario(
            space=plane, map=make_branch_map(plane, [shear, lift]), params=QuasiParams(c=0.5, q=0.5, alpha=0.9),
            x0=pts[1], x1=None, tol=1e-9, max_iter=100, seed=None, sample=PointsSample(tuple(pts)),
        ),
        path,
    )
    real_builtin, real_load = cli.builtin, cli.load
    real_dists, real_check = BMetricSpace.dists, BMetricSpace.check_point
    counting, entries, checks = [True], [0], [0]

    def uncounted(resolve):
        def resolved(*args):
            counting[0] = False
            try:
                return resolve(*args)
            finally:
                counting[0] = True

        return resolved

    def counted_dists(self, xs, ys):
        out = real_dists(self, xs, ys)
        entries[0] += out.size if counting[0] else 0
        return out

    def counted_check(self, x):
        checks[0] += counting[0]
        return real_check(self, x)

    for argv, sc in (
        (["--scenario", "paper-example"], real_builtin("paper-example")),
        (["--scenario", "random-finite", "--seed", "7"], real_builtin("random-finite", 7)),
        (["--scenario", str(path)], load(path)),
    ):
        sample = sample_points(sc)
        sizes = [len(image_of(sc.space, sc.map, x).elements) for x in sample]
        n, w = len(sample), max(sizes)
        full = n * (n - 1) // 2 * (1 + w) ** 2
        entries[0] = 0
        with monkeypatch.context() as m:
            m.setattr(BMetricSpace, "dists", counted_dists)
            certify(sc.space, sc.map, sample, sc.params.c, sc.params.q)
        certified = entries[0]
        blocks = certified - sum(sizes)
        assert blocks == full if sc.space.kind == "matrix" or w == 1 else 0 < blocks < full
        entries[0] = checks[0] = 0
        with monkeypatch.context() as m:
            m.setattr(cli, "builtin", uncounted(real_builtin))
            m.setattr(cli, "load", uncounted(real_load))
            m.setattr(BMetricSpace, "dists", counted_dists)
            m.setattr(BMetricSpace, "check_point", counted_check)
            cli.main(["verify", *argv])
        capsys.readouterr()
        assert (entries[0], checks[0]) == (certified, n)
