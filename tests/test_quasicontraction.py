from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfixpoint import quasicontraction as qc
from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.orbit import run_orbit, verify_fixed_point
from bfixpoint.quasicontraction import (
    MAX_BRANCH_TERMS,
    certifies,
    certify,
    check_hypotheses,
    enumerate_fixed_points,
    five_term_max,
    image_of,
    make_branch_map,
    make_table_map,
    n_functional,
    verdicts,
)
from bfixpoint.rng import SplitMix64
from bfixpoint.setops import dist_point_set, hausdorff

QUAD = make_power_space(1, 2.0)
SHRINK = make_branch_map(QUAD, [([[0.9]], [0.0])])  # x -> {0.9x}
GRID = [( -1.0 + 0.1 * i,) for i in range(21)]


def reference_image(branches, x):
    """T(x) by an explicit loop, each coordinate accumulated left to right
    from 0.0 as acc = acc + a * v and then offset; not sum(), which
    compensates from Python 3.12 on. Coincident outputs keep the first."""
    outs = []
    for a, b in branches:
        y = []
        for row, b_r in zip(a, b):
            acc = 0.0
            for a_rj, v in zip(row, x):
                acc = acc + a_rj * v
            y.append(acc + b_r)
        if tuple(y) not in outs:
            outs.append(tuple(y))
    return tuple(outs)


@st.composite
def branch_images(draw):
    """A branch map of dimension 1-3 with 1-3 branches, any finite
    coefficients (so products and sums may overflow), and a point whose
    length is sometimes wrong."""
    dim = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308]), st.floats(allow_nan=False, allow_infinity=False))
    vector = st.lists(coord, min_size=dim, max_size=dim)
    branches = draw(st.lists(st.tuples(st.lists(vector, min_size=dim, max_size=dim), vector), min_size=1, max_size=3))
    if draw(st.booleans()):  # a branch repeated, or agreeing with another where its extra term is 0
        a, b = draw(st.sampled_from(branches))
        branches.append(([[*row[:-1], row[-1] + 1.0] for row in a], b) if draw(st.booleans()) else (a, b))
    x = tuple(draw(st.lists(coord, min_size=dim - 1, max_size=dim + 1)))
    return dim, branches, x


def scaling(dim, factor, offset):
    """The branch x -> factor * x + offset in dim dimensions."""
    return [[factor if i == j else 0.0 for j in range(dim)] for i in range(dim)], [offset] * dim


def line_space():
    # three points on a line at 0, 1, 3 under the plain metric
    return make_matrix_space(3, [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]], 1.0)


# one call per argument check: (call, message)
BAD_ARGUMENTS = {
    "table-map-on-power-space": (lambda: make_table_map(QUAD, {0: [0]}), "table maps need a finite"),
    "branch-map-on-matrix-space": (lambda: make_branch_map(line_space(), [([[0.5]], [0.0])]), "branch maps need a continuous"),
    "fixed-points-of-power-space": (lambda: enumerate_fixed_points(QUAD, SHRINK), "needs a finite"),
    "check-hypotheses-alpha": (lambda: check_hypotheses(certify(QUAD, SHRINK, GRID, 0.0, 0.0), 1.0), "alpha must be in"),
    "randrange-empty": (lambda: SplitMix64(1).randrange(0), "randrange needs n >= 1"),
    # one branch at dim 56 has 56 * 57 = 3192 evaluator terms, over the limit of 3168
    "branch-map-over-dimension-limit": (
        lambda: make_branch_map(make_power_space(56, 2.0), [scaling(56, 1.0, 0.0)]),
        f"^branch map has 3192 evaluator terms, over the limit MAX_BRANCH_TERMS = {MAX_BRANCH_TERMS}$",
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_rejected(case):
    call, message = BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=message):
        call()


def four_points():
    return make_matrix_space(4, [[0.0 if i == j else 1.0 for j in range(4)] for i in range(4)], 1.0)


PLANE = make_power_space(2, 2.0)
LINE_MAP = make_table_map(line_space(), {0: [0], 1: [0], 2: [1]})  # a table map of 3 points
PLANE_MAP = make_branch_map(PLANE, [scaling(2, 0.5, 0.0)])
TABLE_ON_FOUR = "^a table map of 3 points does not fit the matrix space of 4 points$"

# a map used on a space it was not built for: (call, message)
MISFITS = {
    "table-certify": (lambda: certify(four_points(), LINE_MAP, range(4), 0.5, 0.5), TABLE_ON_FOUR),
    "table-image": (lambda: image_of(four_points(), LINE_MAP, 3), TABLE_ON_FOUR),
    "table-orbit": (lambda: run_orbit(four_points(), LINE_MAP, 0.5, 0.5, 0.5, 3), TABLE_ON_FOUR),
    "table-fixed-points": (lambda: enumerate_fixed_points(four_points(), LINE_MAP), TABLE_ON_FOUR),
    "table-verify": (lambda: verify_fixed_point(four_points(), LINE_MAP, 3, 1e-9), TABLE_ON_FOUR),
    "line-map-on-matrix-space": (
        lambda: certify(four_points(), SHRINK, range(4), 0.5, 0.5),
        "^a branch map of dimension 1 does not fit the matrix space of 4 points$",
    ),
    "plane-map-certified-on-a-line": (
        lambda: certify(QUAD, PLANE_MAP, GRID, 0.5, 0.5),
        "^a branch map of dimension 2 does not fit the power space of dimension 1$",
    ),
    "plane-map-run-on-a-line": (
        lambda: run_orbit(QUAD, PLANE_MAP, 0.5, 0.5, 0.5, (1.0,)),
        "^a branch map of dimension 2 does not fit the power space of dimension 1$",
    ),
    "line-map-on-the-plane": (
        lambda: certify(PLANE, SHRINK, [(0.0, 0.0), (1.0, 2.0)], 0.5, 0.5),
        "^a branch map of dimension 1 does not fit the power space of dimension 2$",
    ),
}


@pytest.mark.parametrize("case", MISFITS)
def test_a_map_built_for_another_space(case):
    call, message = MISFITS[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestMaps:
    def test_branch_image(self):
        img = image_of(QUAD, SHRINK, (2.0,))
        assert img.elements == ((1.8,),)

    def test_branch_map_at_dimension_limit(self):
        # the largest dimension a one-branch map takes: 55 * 56 = 3080 terms
        dim = 55
        plane = make_power_space(dim, 2.0)
        tmap = make_branch_map(plane, [scaling(dim, 0.5, 1.0)])
        assert image_of(plane, tmap, (2.0,) * dim).elements == ((2.0,) * dim,)

    def test_branch_map_at_term_limit(self, monkeypatch):
        # three branches at dim 32 are exactly MAX_BRANCH_TERMS terms
        dim = 32
        plane = make_power_space(dim, 2.0)
        branches = [scaling(dim, 0.5, 1.0), scaling(dim, 0.25, 1.5), scaling(dim, 1.0, 0.0)]
        assert len(branches) * dim * (dim + 1) == MAX_BRANCH_TERMS
        tmap = make_branch_map(plane, branches)
        assert image_of(plane, tmap, (2.0,) * dim).elements == ((2.0,) * dim,)
        # a fourth branch is over the limit, rejected before any code is generated
        monkeypatch.setattr(qc, "_branch_evaluator", lambda dim, count: pytest.fail("code was generated"))
        with pytest.raises(ValueError, match="^branch map has 4224 evaluator terms, over the limit"):
            make_branch_map(plane, [*branches, scaling(dim, 0.5, 0.0)])

    @pytest.mark.parametrize("x", [(1.0,), (1.0, 2.0, 3.0)])
    def test_branch_image_rejects_wrong_arity(self, x):
        plane = make_power_space(2, 2.0)
        tmap = make_branch_map(plane, [([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0])])
        with pytest.raises(ValueError, match="length 2"):
            image_of(plane, tmap, x)

    @settings(max_examples=200)
    @given(problem=branch_images())
    @example(problem=(1, [([[-1.0]], [-0.0])], (0.0,)))  # 0.0 + (-0.0) + (-0.0) is 0.0
    @example(problem=(2, [([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])], (1.0, 10.0)))  # not the transpose
    @example(problem=(3, [([[1.0, 1e100, -1e100]] * 3, [0.0] * 3)], (1.0, 1.0, 1.0)))  # not right to left
    @example(problem=(2, [([[1e308, 1e308]] * 2, [0.0, -1.0])], (10.0, 10.0)))  # overflow to inf
    @example(problem=(1, [([[2.0]], [1.0]), ([[5.0]], [1.0])], (0.0,)))  # coincident outputs
    def test_branch_image_is_the_left_to_right_loop(self, problem):
        dim, branches, x = problem
        space = make_power_space(dim, 2.0)
        tmap = make_branch_map(space, branches)
        if len(x) != dim:
            with pytest.raises(ValueError, match=f"length {dim}"):
                image_of(space, tmap, x)
            return
        # repr tells every float apart, -0.0 from 0.0 included
        assert repr(image_of(space, tmap, x).elements) == repr(reference_image(tmap.branches, x))

    def test_branch_duplicates_collapse(self):
        tmap = make_branch_map(QUAD, [([[1.0]], [0.0]), ([[1.0]], [0.0])])
        assert len(image_of(QUAD, tmap, (3.0,)).elements) == 1

    def test_table_requires_full_domain(self):
        sp = line_space()
        with pytest.raises(ValueError, match="missing image for point 2"):
            make_table_map(sp, {0: [0], 1: [0]})

    def test_table_rejects_empty_image(self):
        sp = line_space()
        with pytest.raises(ValueError, match="nonempty"):
            make_table_map(sp, {0: [0], 1: [], 2: [1]})

    def test_table_rejects_out_of_domain_image(self):
        sp = line_space()
        with pytest.raises(ValueError, match="point 7 outside the domain"):
            make_table_map(sp, {0: [0], 1: [0], 2: [1], 7: [0]})

    def test_enumerate_fixed_points(self):
        sp = line_space()
        tmap = make_table_map(sp, {0: [0], 1: [0, 2], 2: [2]})
        assert enumerate_fixed_points(sp, tmap) == [0, 2]


class TestNFunctional:
    def test_zero_coefficients_reduce_to_distance(self):
        assert n_functional(QUAD, SHRINK, 0.0, 0.0, (1.0,), (0.0,)) == 1.0
        assert n_functional(QUAD, SHRINK, 0.0, 0.0, (0.3,), (0.5,)) == QUAD.dist((0.3,), (0.5,))

    def test_four_terms_at_unit_coefficients(self):
        # terms: 1, 0.01, 0, (1 + 0.81)/2 = 0.905; the plain distance wins
        assert n_functional(QUAD, SHRINK, 1.0, 1.0, (1.0,), (0.0,)) == 1.0

    def test_fixed_point_self_value_is_zero(self):
        sp = line_space()
        tmap = make_table_map(sp, {0: [0], 1: [0], 2: [1]})
        assert n_functional(sp, tmap, 1.0, 1.0, 0, 0) == 0.0

    def test_dominates_distance(self):
        rng = SplitMix64(31)
        for _ in range(50):
            x = (rng.uniform(-2, 2),)
            y = (rng.uniform(-2, 2),)
            c, q = rng.uniform(), rng.uniform()
            assert n_functional(QUAD, SHRINK, c, q, x, y) >= QUAD.dist(x, y)

    def test_monotone_in_coefficients(self):
        rng = SplitMix64(32)
        for _ in range(50):
            x = (rng.uniform(-2, 2),)
            y = (rng.uniform(-2, 2),)
            c1, q1 = rng.uniform(), rng.uniform()
            c2 = c1 + rng.uniform(0.0, 1.0 - c1)
            q2 = q1 + rng.uniform(0.0, 1.0 - q1)
            assert n_functional(QUAD, SHRINK, c2, q2, x, y) >= n_functional(QUAD, SHRINK, c1, q1, x, y)

    def test_bad_coefficients_rejected(self):
        with pytest.raises(ValueError):
            n_functional(QUAD, SHRINK, -0.1, 0.0, (1.0,), (0.0,))

    def test_five_term_max_dominates_averaged_cross_term(self):
        rng = SplitMix64(33)
        for _ in range(50):
            x = (rng.uniform(-2, 2),)
            y = (rng.uniform(-2, 2),)
            tx = image_of(QUAD, SHRINK, x)
            ty = image_of(QUAD, SHRINK, y)
            cross = 0.5 * (dist_point_set(QUAD, x, ty).value + dist_point_set(QUAD, y, tx).value)
            assert five_term_max(QUAD, SHRINK, x, y) >= cross


class TestCertify:
    def test_grid_certificate(self):
        cert = certify(QUAD, SHRINK, GRID, 0.0, 0.0)
        assert cert.alpha_min == pytest.approx(0.81, abs=1e-9)
        assert cert.alpha41_min == pytest.approx(0.81, abs=1e-9)
        assert cert.coverage == "empirical"
        assert cert.verdicts["thm33"] is True
        assert cert.verdicts["thm41"] is False
        assert cert.verdicts["thm21_feasible"] is True
        assert cert.verdicts["lemma41"] is None

    def test_gamma_verdict(self):
        cert = certify(QUAD, SHRINK, GRID, 0.0, 0.0)
        assert verdicts(cert, cert.alpha_min, gamma=0.95)["lemma41"] is False  # 2 * 0.95 >= 1
        assert verdicts(cert, cert.alpha_min, gamma=0.3)["lemma41"] is True

    def test_constant_map_certifies_at_zero(self):
        sp = line_space()
        tmap = make_table_map(sp, {0: [1], 1: [1], 2: [1]})
        cert = certify(sp, tmap, range(sp.n_points), 0.0, 0.0)
        assert cert.alpha_min == 0.0
        assert cert.coverage == "exhaustive"

    def test_tight_at_worst_pair(self):
        cert = certify(QUAD, SHRINK, GRID, 0.0, 0.0)
        for x, y in combinations(GRID, 2):
            h = hausdorff(QUAD, image_of(QUAD, SHRINK, x), image_of(QUAD, SHRINK, y))
            n = n_functional(QUAD, SHRINK, 0.0, 0.0, x, y)
            assert h <= cert.alpha_min * n + 1e-12 * n
        x, y = cert.worst_pair
        h = hausdorff(QUAD, image_of(QUAD, SHRINK, x), image_of(QUAD, SHRINK, y))
        n = n_functional(QUAD, SHRINK, 0.0, 0.0, x, y)
        assert h == pytest.approx(cert.alpha_min * n, rel=1e-12)

    def test_equal_pair_rejected(self):
        with pytest.raises(ValueError, match="not distinct"):
            certify(QUAD, SHRINK, [(1.0,), (1.0,)], 0.0, 0.0)

    def test_non_finite_ratio_names_the_pair(self):
        root = make_power_space(1, 0.5)
        big = make_branch_map(root, [([[1e308]], [1e308])])  # T(1) = (inf,)
        with pytest.raises(ValueError, match=r"pair \(\(0\.0,\), \(1\.0,\)\) has non-finite"):
            certify(root, big, [(0.0,), (0.5,), (1.0,)], 0.5, 0.5)

    def test_verdicts_at_alpha_min_above_one(self):
        grow = make_branch_map(QUAD, [([[2.0]], [0.0])])  # x -> {2x}
        cert = certify(QUAD, grow, GRID, 0.5, 0.5)
        assert cert.alpha_min > 1.0
        assert cert.verdicts == {"thm21_feasible": False, "thm33": False, "lemma41": None, "thm41": False}

    def test_fewer_than_two_points_rejected(self):
        for points in ([], [(1.0,)]):
            with pytest.raises(ValueError, match=f"at least two sample points, got {len(points)}"):
                certify(QUAD, SHRINK, points, 0.0, 0.0)

    def test_finite_space_assumptions_hold(self):
        sp = line_space()
        tmap = make_table_map(sp, {0: [0], 1: [0], 2: [1]})
        cert = certify(sp, tmap, range(sp.n_points), 0.5, 0.5)
        assert cert.assumptions["map_continuity"] == "holds (finite space)"
        assert cert.coverage == "exhaustive"


class TestCheckHypotheses:
    def test_builtin_example_verdicts(self):
        cert = certify(QUAD, SHRINK, GRID, 0.0, 0.0)
        hyp = check_hypotheses(cert, 0.9)
        assert hyp["contraction_holds"]
        assert hyp["thm33"]["applicable"]
        assert hyp["thm33"]["value"] == 0.0
        assert not hyp["thm41"]["applicable"]
        assert hyp["thm41"]["threshold"] == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_metric_space_with_unit_coefficients(self):
        sp = line_space()
        tmap = make_table_map(sp, {0: [0], 1: [0], 2: [1]})
        cert = certify(sp, tmap, range(sp.n_points), 1.0, 1.0)
        assert cert.alpha_min == pytest.approx(0.5, rel=1e-15)
        hyp = check_hypotheses(cert, 0.6)
        assert hyp["contraction_holds"]
        assert hyp["thm33"]["applicable"]
        assert hyp["thm33"]["value"] == pytest.approx(0.6, rel=1e-15)
        assert hyp["thm31"]["assumption"] == "holds (finite space)"

    def test_exact_constant_certifies_despite_rounding(self):
        cert = certify(QUAD, SHRINK, GRID, 0.0, 0.0)
        assert cert.alpha_min > 0.81  # 0.8100000000000009
        assert certifies(cert, 0.81)
        assert check_hypotheses(cert, 0.81)["contraction_holds"]
        assert not certifies(cert, 0.81 * (1.0 - 1e-11))

    def test_alpha_below_minimum_flagged(self):
        cert = certify(QUAD, SHRINK, GRID, 0.0, 0.0)
        hyp = check_hypotheses(cert, 0.5)
        assert not hyp["contraction_holds"]
        assert not hyp["thm33"]["applicable"]

    def test_infeasible_q_side_condition(self):
        cert = certify(QUAD, SHRINK, GRID, 0.0, 1.0)
        hyp = check_hypotheses(cert, 0.9)
        assert hyp["thm31"]["value"] == pytest.approx(1.8)
        assert not hyp["thm31"]["applicable"]
        assert not hyp["thm33"]["applicable"]
