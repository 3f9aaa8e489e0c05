"""Differential tests for certify.

certify evaluates each image once per sample point, walks the pairs of the
sample by index and reduces them in numpy blocks. Here it is checked
against the certificate by its definition: every pair of combinations(points, 2)
in turn, from the public hausdorff, n_functional and five_term_max, keeping
the first pair that attains each maximum. The two must agree on the
certificate, or raise the same exception with the same message. The index
arithmetic is checked against itertools.combinations, and a work guard
keeps certify at one image per sample point.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfixpoint import quasicontraction as qc
from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.quasicontraction import (
    certify,
    five_term_max,
    hausdorff,
    image_of,
    make_branch_map,
    make_table_map,
    n_functional,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_certify(space, tmap, points, c, q):
    """(alpha_min, alpha41_min, worst_pair, worst_pair41, coverage), pair by
    pair over combinations(points, 2)."""
    pairs = list(combinations(points, 2))
    if not pairs:
        raise ValueError(f"certify needs at least two sample points, got {len(points)}")
    alpha_min = alpha41_min = 0.0
    worst = worst41 = pairs[0]
    for x, y in pairs:
        if x == y or space.dist(x, y) == 0.0:
            raise ValueError(f"pair ({x!r}, {y!r}) is not distinct")
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
        # points, images and distances overflow to inf or NaN, or raise
        # OverflowError
        assert_same_certificate(*problem, c, q, block)

    @SETTINGS
    @given(problem=table_problems(), c=COEFFS, q=COEFFS, block=BLOCKS, data=st.data())
    def test_bad_pair_after_good_ones(self, problem, c, q, block, data):
        # a repeated point, or an id outside the domain, anywhere in the sample
        space, tmap, points = problem
        bad = data.draw(st.sampled_from([data.draw(st.sampled_from(points)), space.n_points]))
        points.insert(data.draw(st.integers(0, len(points))), bad)
        assert assert_same_certificate(space, tmap, points, c, q, block)[0] in (ValueError, IndexError, KeyError)

    def test_images_at_one_infinity(self):
        # T(1) = T(2) = {(inf,)}: the image-to-image distance is NaN, which
        # the min over an image set reads as inf, so h is not finite
        space = make_power_space(1, 1.0)
        tmap = make_branch_map(space, [([[1e308]], [1e308])])
        for block in (1, qc._BLOCK_DISTANCES):
            kind, message = assert_same_certificate(space, tmap, [(1.0,), (2.0,)], 0.0, 0.0, block)
            assert kind is ValueError and message.startswith("pair ((1.0,), (2.0,)) has non-finite")

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
