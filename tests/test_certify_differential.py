"""Differential tests for certify.

certify evaluates each image once per sample point, walks the pairs of the
sample by index and reduces them in numpy blocks. Here it is checked
against the certificate by its definition: every sample point checked,
then every pair of combinations(points, 2) in turn, from the public
hausdorff, n_functional and five_term_max, keeping the first pair that
attains each maximum. The two must agree on the certificate, or raise the
same ValueError with the same message; no other exception may escape. The
edges of certify's squared-distance screen (ties, near ties, distances
that overflow or underflow, p far from 1) are checked the same way, and
so is the error of a sample point whose own terms fail. The index arithmetic is checked
against itertools.combinations, and a work guard keeps certify at one
image per sample point.
"""

import math
import sys
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfixpoint import quasicontraction as qc
from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.quasicontraction import (
    certify,
    five_term_max,
    image_of,
    make_branch_map,
    make_table_map,
    n_functional,
)
from bfixpoint.setops import hausdorff

SETTINGS = settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])


def reference_certify(space, tmap, points, c, q):
    """(alpha_min, alpha41_min, worst_pair, worst_pair41, coverage): every
    point checked, then pair by pair over combinations(points, 2)."""
    pairs = list(combinations(points, 2))
    if not pairs:
        raise ValueError(f"certify needs at least two sample points, got {len(points)}")
    for x in points:
        space.check_point(x)
    alpha_min = alpha41_min = 0.0
    worst = worst41 = pairs[0]
    for x, y in pairs:
        if x == y:
            raise ValueError(f"pair ({x!r}, {y!r}) is not distinct")
        if space.dist(x, y) == 0.0:
            raise ValueError(f"pair ({x!r}, {y!r}) has distance 0, though its points are distinct (it underflows)")
        if not math.isfinite(space.dist(x, y)):
            raise ValueError(f"sample pair ({x!r}, {y!r}) has non-finite distance {space.dist(x, y)}")
        h = hausdorff(space, image_of(space, tmap, x), image_of(space, tmap, y))
        n4, n5 = n_functional(space, tmap, c, q, x, y), five_term_max(space, tmap, x, y)
        ratio, ratio41 = h / n4, h / n5
        if not all(math.isfinite(v) for v in (n4, n5, ratio, ratio41)):
            raise ValueError(
                f"pair ({x!r}, {y!r}) has non-finite contraction ratios (h / N = {h!r} / {n4!r} four-term, "
                f"{h!r} / {n5!r} five-term): the map cannot be certified"
            )
        if ratio > alpha_min:
            alpha_min, worst = ratio, (x, y)
        if ratio41 > alpha41_min:
            alpha41_min, worst41 = ratio41, (x, y)
    coverage = "empirical"
    if space.kind == "matrix" and {frozenset(pr) for pr in combinations(range(space.n_points), 2)} <= set(
        map(frozenset, pairs)
    ):
        coverage = "exhaustive"
    return alpha_min, alpha41_min, worst, worst41, coverage


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # the exception is part of the outcome compared
        return type(exc), str(exc)


def assert_same_certificate(space, tmap, points, c, q, block):
    want = outcome(reference_certify, space, tmap, points, c, q)
    with mock.patch.object(qc, "_BLOCK_DISTANCES", block):
        got = outcome(certify, space, tmap, points, c, q)
    assert got[0] in ("ok", ValueError)  # a certificate, or a ValueError naming the pair or the point
    if got[0] == "ok":
        cert = got[1]
        got = "ok", (cert.alpha_min, cert.alpha41_min, cert.worst_pair, cert.worst_pair41, cert.coverage)
        assert cert.n_pairs == len(points) * (len(points) - 1) // 2
    assert got == want
    return want


# blocks of one pair, a few pairs, and the default size
BLOCKS = st.sampled_from([1, 9, 40, qc._BLOCK_DISTANCES])
COEFFS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def point_samples(draw, pts):
    """The distinct points in the given order, shuffled, or with one of them
    repeated at a random place."""
    kind = draw(st.sampled_from(["given", "shuffled", "repeat"]))
    if kind == "given":
        return pts
    if kind == "shuffled":
        return draw(st.permutations(pts))
    out = list(pts)
    out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(pts)))
    return out


COORDS = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0))


@st.composite
def branch_problems(draw, coef, offset, coord=COORDS):
    """A power space (dim 1-2, p in {0.5, 1, 1.5, 2}) with 1-3 affine
    branches. A repeated branch makes every image smaller; a branch sharing
    another's offset meets it at the origin only, so image sizes differ."""
    dim = draw(st.integers(1, 2))
    space = make_power_space(dim, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        if branches and draw(st.booleans()):
            a, b = draw(st.sampled_from(branches))
            if draw(st.booleans()):
                a = [[draw(coef) for _ in range(dim)] for _ in range(dim)]
        else:
            a = [[draw(coef) for _ in range(dim)] for _ in range(dim)]
            b = [draw(offset) for _ in range(dim)]
        branches.append((a, b))
    point = st.tuples(*[coord] * dim)
    pts = draw(st.lists(point, min_size=2, max_size=8, unique=True))
    return space, make_branch_map(space, branches), draw(point_samples(pts))


@st.composite
def table_problems(draw):
    """A matrix space on 2-7 points with tied distances and images of 1-3
    elements; a constant map gives all-zero ratios. Sampling every id gives
    an exhaustive certificate."""
    n = draw(st.integers(2, 7))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))
    space = make_matrix_space(n, d, draw(st.sampled_from([1.0, 2.0, 4.0])))
    image = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    if draw(st.booleans()):
        images = {i: draw(image) for i in range(n)}
    else:
        const = draw(image)
        images = {i: const for i in range(n)}
    pts = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    return space, make_table_map(space, images), draw(point_samples(pts))


class TestCertifyMatchesPairLoop:
    @SETTINGS
    @given(problem=table_problems(), c=COEFFS, q=COEFFS, block=BLOCKS)
    def test_table_maps(self, problem, c, q, block):
        assert_same_certificate(*problem, c, q, block)

    @SETTINGS
    @given(
        problem=branch_problems(st.floats(-0.95, 0.95), st.floats(-1.0, 1.0)), c=COEFFS, q=COEFFS, block=BLOCKS
    )
    def test_branch_maps(self, problem, c, q, block):
        assert_same_certificate(*problem, c, q, block)

    @SETTINGS
    @given(
        problem=branch_problems(
            st.sampled_from([0.5, 1e200, -1e200, 1e308]),
            st.sampled_from([0.0, 1e308, -1e308]),
            st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, math.inf]),
        ),
        c=COEFFS,
        q=COEFFS,
        block=BLOCKS,
    )
    def test_overflowing_maps(self, problem, c, q, block):
        # points, images and distances overflow to inf or NaN, or in pow
        assert_same_certificate(*problem, c, q, block)

    @SETTINGS
    @given(problem=table_problems(), c=COEFFS, q=COEFFS, block=BLOCKS, data=st.data())
    def test_bad_pair_after_good_ones(self, problem, c, q, block, data):
        # a repeated point, or an id outside the domain, anywhere in the sample
        space, tmap, points = problem
        bad = data.draw(st.sampled_from([data.draw(st.sampled_from(points)), space.n_points]))
        points.insert(data.draw(st.integers(0, len(points))), bad)
        assert assert_same_certificate(space, tmap, points, c, q, block)[0] is ValueError

    def test_images_at_one_infinity(self):
        # T(1) = T(2) = {(inf,)}: the image-to-image distance is NaN, which
        # the min over an image set reads as inf, so h is not finite
        space = make_power_space(1, 1.0)
        tmap = make_branch_map(space, [([[1e308]], [1e308])])
        for block in (1, qc._BLOCK_DISTANCES):
            kind, message = assert_same_certificate(space, tmap, [(1.0,), (2.0,)], 0.0, 0.0, block)
            assert kind is ValueError and message.startswith("pair ((1.0,), (2.0,)) has non-finite")

    def test_a_nan_image_element_is_skipped_in_the_residual(self):
        # T(10, 10) = {(nan, 0), (1, 1)}, as 1e308*10 - 1e308*10 is inf - inf:
        # d(x, T(x)) skips the NaN, as dist_point_set's `<` from inf does, so
        # it is d(x, (1, 1)), and at c = 1, q = 0 it is N, which the error shows
        space = make_power_space(2, 1.0)
        tmap = make_branch_map(space, [([[1e308, -1e308], [0.0, 0.0]], [0.0, 0.0]), ([[0.1, 0.0], [0.0, 0.1]], [0.0, 0.0])])
        x, y = (10.0, 10.0), (1.0, 1.5)
        for block in (1, qc._BLOCK_DISTANCES):
            kind, message = assert_same_certificate(space, tmap, [x, y], 1.0, 0.0, block)
            assert kind is ValueError and f"h / N = inf / {space.dist(x, (1.0, 1.0))!r} four-term" in message

    def test_overflowing_terms_name_their_pair(self):
        # the p = 1 line under x -> 0.5x: d(1e308, -1e308) overflows, and was
        # once read as a pair with ratio h/inf = 0; under x -> -x the
        # residual d(1e308, -1e308) overflows while d(x, y) does not
        space = make_power_space(1, 1.0)
        half = make_branch_map(space, [([[0.5]], [0.0])])
        flip = make_branch_map(space, [([[-1.0]], [0.0])])
        for block in (1, 9, qc._BLOCK_DISTANCES):
            got = assert_same_certificate(space, half, [(0.0,), (1e308,), (-1e308,)], 0.0, 0.0, block)
            assert got == (ValueError, "sample pair ((1e+308,), (-1e+308,)) has non-finite distance inf")
            got = assert_same_certificate(space, flip, [(1e308,), (9e307,)], 0.0, 0.0, block)
            d = 1e308 - 9e307
            assert got == (
                ValueError,
                f"pair ((1e+308,), (9e+307,)) has non-finite contraction ratios (h / N = {d!r} / {d!r} four-term, "
                f"{d!r} / inf five-term): the map cannot be certified",
            )

    def test_a_point_whose_own_terms_fail_raises_the_first_failing_pair(self):
        # the p = 3 line under x -> x/2: d(1.2e103, T(1.2e103)) = 6e102**3
        # overflows in pow, and reads inf; the first failing pair is named:
        # the repeated point, or else the overflowing distance d(1, 1.2e103)
        space = make_power_space(1, 3.0)
        tmap = make_branch_map(space, [([[0.5]], [0.0])])
        for block in (1, 9, qc._BLOCK_DISTANCES):
            got = assert_same_certificate(space, tmap, [(1.0,), (1.0,), (1.2e103,)], 0.5, 0.5, block)
            assert got == (ValueError, "pair ((1.0,), (1.0,)) is not distinct")
            got = assert_same_certificate(space, tmap, [(1.0,), (2.0,), (1.2e103,)], 0.5, 0.5, block)
            assert got == (ValueError, "sample pair ((1.0,), (1.2e+103,)) has non-finite distance inf")

    def test_tied_ratios_keep_the_first_pair(self):
        # x -> x/2 on the p = 1 line with c = q = 0: every pair has
        # four-term ratio exactly 1/2
        space = make_power_space(1, 1.0)
        tmap = make_branch_map(space, [([[0.5]], [0.0])])
        points = [(float(v),) for v in range(1, 7)]
        for block in (1, 9, qc._BLOCK_DISTANCES):
            _, (alpha_min, _, worst, _, _) = assert_same_certificate(space, tmap, points, 0.0, 0.0, block)
            assert (alpha_min, worst) == (0.5, (points[0], points[1]))
            assert assert_same_certificate(space, tmap, points[::-1], 0.0, 0.0, block)[1][2] == (points[5], points[4])

    def test_constant_map_keeps_the_given_first_pair(self):
        space = make_power_space(2, 2.0)
        tmap = make_branch_map(space, [([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])])
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
        for order in (points, points[::-1]):
            cert = certify(space, tmap, order, 0.5, 0.5)
            assert (cert.alpha_min, cert.alpha41_min) == (0.0, 0.0)
            assert cert.worst_pair == cert.worst_pair41 == (order[0], order[1])


@st.composite
def screened_problems(draw):
    """Power spaces whose blocks certify screens: dim 1-3, p in {0.05, 0.5,
    1.5, 2, 3, 30} and 2-3 branches, so some image has two elements or more.
    A branch x -> A x + b may come with its mirror x -> -A x + b: at b = 0,
    on a sample symmetric about 0, their distances tie exactly, and at the
    origin the two meet, so images differ in size. Points are scaled by 1
    or 1e+-160, where squares overflow or go subnormal, and may have a
    neighbour one ulp away."""
    dim = draw(st.integers(1, 3))
    space = make_power_space(dim, draw(st.sampled_from([0.05, 0.5, 1.5, 2.0, 3.0, 30.0])))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-160, 1e160]))
    coef = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 0.7])
    branches = []
    while len(branches) < 2:
        a = [[draw(coef) if i == j or draw(st.booleans()) else 0.0 for j in range(dim)] for i in range(dim)]
        b = [draw(st.sampled_from([0.0, 0.0, 0.5, -1.0])) * scale for _ in range(dim)]
        branches.append((a, b))
        if len(branches) < 3 and draw(st.booleans()):
            branches.append(([[-v for v in row] for row in a], b))
    coord = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0))
    base = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4, unique=True))
    pts = [tuple(v * scale for v in x) for x in base]
    if draw(st.booleans()):
        pts += [tuple(-v for v in x) for x in pts]
    if draw(st.booleans()):
        pts.append(tuple(math.nextafter(v, math.inf) for v in pts[0]))
    pts = list(dict.fromkeys(pts))
    if len(pts) < 2:
        pts.append(tuple(v + scale for v in pts[0]))
    return space, make_branch_map(space, branches), draw(point_samples(pts))


def shifts(space, y, targets):
    """The map whose branches x -> x + (t - y) send y to each target t (exactly,
    where t - y is exact)."""
    eye = [[float(i == j) for j in range(space.dim)] for i in range(space.dim)]
    return make_branch_map(space, [(eye, [u - v for u, v in zip(t, y)]) for t in targets])


class TestScreenEdges:
    """certify evaluates only the entries of a block that can decide a
    pair's terms (quasicontraction._screen); these cases sit where that
    choice is delicate."""

    @SETTINGS
    @given(problem=screened_problems(), c=COEFFS, q=COEFFS, block=BLOCKS)
    def test_screened_maps(self, problem, c, q, block):
        assert_same_certificate(*problem, c, q, block)

    def test_an_overflow_no_minimum_needs_reads_inf(self):
        # d(0, 6.1e102) = 6.1e102**3 is beyond the float range, though
        # neither minimum it enters takes it: dist reads it as inf, and the
        # pair certifies as in the reference
        space = make_power_space(1, 3.0)
        tmap = make_branch_map(space, [([[0.5]], [0.0]), ([[1.0]], [3.1e102])])
        assert space.dist((0.0,), (6.1e102,)) == math.inf
        for block in (1, 9, 40, qc._BLOCK_DISTANCES):
            assert assert_same_certificate(space, tmap, [(0.0,), (3e102,)], 0.5, 0.5, block)[0] == "ok"

    @pytest.mark.parametrize("block", [1, 9, 40, qc._BLOCK_DISTANCES])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0, 30.0])
    def test_distances_straddling_the_float_range(self, p, dim, block):
        # T(x) = {x/2, x/2 + o}, |o| = 1.1t, for points within 0.3t of 0:
        # d(x, x/2 + o) and the distances between the two branches' images
        # lie about 0.95t..1.25t apart, across the length t from which a
        # distance (p >= 2) or a squared length (p < 2) leaves the float
        # range. No minimum takes them, so every pair certifies.
        space = make_power_space(dim, p)
        t = sys.float_info.max ** (1.0 / max(p, 2.0))
        half = [[0.5 * (i == j) for j in range(dim)] for i in range(dim)]
        tmap = make_branch_map(space, [(half, [0.0] * dim), (half, [1.1 * t / math.sqrt(dim)] * dim)])
        points = [tuple(0.05 * t * ((k * (3 + r)) % 7) for r in range(dim)) for k in range(7)]
        assert assert_same_certificate(space, tmap, points, 0.5, 0.5, block)[0] == "ok"
        lengths = [math.dist(u, v) for x in points for u in image_of(space, tmap, x).elements for v in points]
        assert any(0.95 * t < r < t for r in lengths) and any(t < r < 1.05 * t for r in lengths)

    def test_squares_beyond_the_float_range_are_not_screened(self):
        # T((1, 1)) = {P, Q} and T((2, 2)) = {0}: |P|**2 sums to the largest
        # float and |Q|**2 to inf, yet math.dist puts Q nearer 0. A screen
        # would read Q's row as the smaller and miss h = d(P, 0), so a block
        # with a squared length beyond the float range is evaluated in full
        p_, q_ = (3.886656940083618e153, 1.2832116400513651e154), (1.0047038477553777e154, 8.878419415458218e153)
        assert p_[0] ** 2 + p_[1] ** 2 == sys.float_info.max and q_[0] ** 2 + q_[1] ** 2 == math.inf
        for p in (0.5, 1.0, 1.5):
            space = make_power_space(2, p)
            assert space.dist(p_, (0.0, 0.0)) > space.dist(q_, (0.0, 0.0))
            tmap = make_branch_map(space, [([[-u[0], 0.0], [0.0, -u[1]]], [2 * u[0], 2 * u[1]]) for u in (p_, q_)])
            assert image_of(space, tmap, (1.0, 1.0)).elements == (p_, q_)
            for block in (1, 9, qc._BLOCK_DISTANCES):
                got = assert_same_certificate(space, tmap, [(1.0, 1.0), (2.0, 2.0)], 0.0, 0.0, block)
                assert got[0] == "ok" and got[1][0] == space.dist(p_, (0.0, 0.0)) / space.dist((1.0, 1.0), (2.0, 2.0))

    @pytest.mark.parametrize("p", [0.05, 3.0, 30.0])
    def test_mirrored_branches_tie_exactly(self, p):
        space = make_power_space(1, p)
        tmap = make_branch_map(space, [([[0.5]], [0.0]), ([[-0.5]], [0.0])])
        points = [(-2.0,), (-1.0,), (1.0,), (2.0,), (3.0,)]
        for block in (1, 9, 40, qc._BLOCK_DISTANCES):
            assert assert_same_certificate(space, tmap, points, 0.5, 0.5, block)[0] == "ok"

    def test_near_tie_where_squares_and_distances_disagree(self):
        # d(x, P) < d(x, Q) by one ulp, but the squared distances in numpy
        # order them the other way, so the window must keep both. T(y) is
        # {P, Q} exactly (P - y and Q - y are exact), and d(x, T(y)) is the
        # largest of the five terms, so it sets alpha41_min.
        space = make_power_space(2, 1.5)
        x, y = (0.164267667994632, -0.7045580711868606), (-0.14, -0.5)
        p_, q_ = (-0.07516619734383778, -0.2739576192971769), (-0.2663327838950517, -0.9439919365253305)
        assert space.dist(x, p_) < space.dist(x, q_)
        assert sum((u - v) ** 2 for u, v in zip(x, p_)) > sum((u - v) ** 2 for u, v in zip(x, q_))
        tmap = shifts(space, y, [p_, q_])
        assert image_of(space, tmap, y).elements == (p_, q_)
        assert five_term_max(space, tmap, x, y) == space.dist(x, p_)
        for block in (1, 9, qc._BLOCK_DISTANCES):
            assert assert_same_certificate(space, tmap, [x, y], 0.0, 1.0, block)[0] == "ok"

    def test_subnormal_squares_are_not_screened(self):
        # x - P = (-2.8e-162, 0) and x - Q = (-1.5e-162, -2.7e-162): d(x, P) <
        # d(x, Q), but their squares round to 2 and 1 units of the smallest
        # subnormal, an error no window covers, so the block is evaluated in full
        space = make_power_space(2, 1.5)
        u = 1e-162
        x, y = (-0.5 * u, -2.0 * u), (1.5 * u, 3.5 * u)
        p_, q_ = (x[0] + 2.8 * u, x[1]), (x[0] + 1.5 * u, x[1] + 2.7 * u)
        assert space.dist(x, p_) < space.dist(x, q_)
        assert (x[0] - p_[0]) ** 2 + (x[1] - p_[1]) ** 2 > (x[0] - q_[0]) ** 2 + (x[1] - q_[1]) ** 2
        tmap = shifts(space, y, [p_, q_])
        for block in (1, 9, qc._BLOCK_DISTANCES):
            assert assert_same_certificate(space, tmap, [x, y], 1.0, 1.0, block)[0] == "ok"

    def test_rows_that_nearly_tie_both_lead(self):
        # T((1, 1)) = {P, Q} and T(0) = {0}: h = max(d(P, 0), d(Q, 0)) =
        # d(P, 0), though the squared norms order P and Q the other way
        space = make_power_space(2, 1.5)
        p_, q_ = (0.8723298693936565, 0.9602130708689294), (-0.9602130708689293, 0.8723298693936566)
        assert space.dist(p_, (0.0, 0.0)) > space.dist(q_, (0.0, 0.0))
        assert p_[0] ** 2 + p_[1] ** 2 < q_[0] ** 2 + q_[1] ** 2
        diag = [([[u[0], 0.0], [0.0, u[1]]], [0.0, 0.0]) for u in (p_, q_)]  # (1, 1) -> u
        tmap = make_branch_map(space, diag)
        assert image_of(space, tmap, (1.0, 1.0)).elements == (p_, q_)
        for block in (1, 9, qc._BLOCK_DISTANCES):
            assert assert_same_certificate(space, tmap, [(1.0, 1.0), (0.0, 0.0)], 0.0, 0.0, block)[0] == "ok"

    def test_non_leading_rows_stay_out_of_h(self):
        # h's distances on the squared plane, rows T(x) = {a1, a2}, columns
        # T(y) = {b1, b2}: [[1, 1 + 2e-12], [1 + 2e-12, 4e-6]], so h = 1.
        # Only row a1 and column b1 lead. Row a2 keeps only d(a2, b1), for
        # column b1, and column b2 only d(a1, b2), for row a1: both exceed h
        space = make_power_space(2, 2.0)
        x, y = (3.0, 4.0), (7.0, 9.0)
        height = math.sqrt((1 + 1e-12) ** 2 - 0.499**2)
        a1, a2, b1, b2 = (-1.0, 0.0), (-0.499, height), (0.0, 0.0), (-0.501, height)

        def branch(u, v):  # the diagonal map with x -> u and y -> v
            a = [(v[r] - u[r]) / (y[r] - x[r]) for r in range(2)]
            return [[a[0], 0.0], [0.0, a[1]]], [u[r] - a[r] * x[r] for r in range(2)]

        tmap = make_branch_map(space, [branch(a1, b1), branch(a2, b2)])
        assert image_of(space, tmap, x).elements == (a1, a2)
        assert image_of(space, tmap, y).elements == (b1, b2)
        for block in (1, 9, qc._BLOCK_DISTANCES):
            got = assert_same_certificate(space, tmap, [x, y], 0.0, 0.0, block)
            assert got[0] == "ok" and got[1][0] == 1.0 / space.dist(x, y)


def test_pair_indices_follow_combinations():
    """Every block of pair numbers lo .. hi-1 maps to the same (i, j) as
    combinations(range(n), 2), for every boundary between two blocks."""
    for n in range(2, 41):
        want = np.array(list(combinations(range(n), 2))).T
        total = want.shape[1]
        for k in range(total + 1):
            head, tail = qc._pair_indices(n, 0, k), qc._pair_indices(n, k, total)
            assert (np.concatenate([head, tail], axis=1) == want).all()
        for step in (1, 2, 3, n - 1, n, n + 1):
            blocks = [qc._pair_indices(n, lo, min(lo + step, total)) for lo in range(0, total, step)]
            assert (np.concatenate(blocks, axis=1) == want).all()


def test_one_image_per_distinct_point():
    """Work guard: certify calls image_of once per sample point, not once
    or more per pair."""
    space = make_power_space(2, 1.5)
    tmap = make_branch_map(space, [([[0.5, 0.1], [0.0, 0.5]], [0.0, 1.0]), ([[0.3, 0.0], [0.2, 0.3]], [1.0, 0.0])])
    pts = [(0.25 * i, 0.5 * (i % 3)) for i in range(30)]
    calls = []

    def counted_image_of(space, tmap, x):
        calls.append(x)
        return image_of(space, tmap, x)

    with mock.patch.object(qc, "image_of", counted_image_of):
        cert = certify(space, tmap, iter(pts), 0.5, 0.5)
    assert cert.n_pairs == 30 * 29 // 2
    assert calls == pts
