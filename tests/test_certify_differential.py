"""Differential tests for certify.

certify evaluates each image once per sample point and reduces the pairs
in numpy blocks. Here it is checked against the certificate by its
definition: every pair in turn, from the public hausdorff, n_functional and
five_term_max, keeping the first pair that attains each maximum. The two
must agree on the certificate, or raise the same exception with the same
message. A work guard keeps certify at one image per distinct point.
"""

import math
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfixpoint import quasicontraction as qc
from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.quasicontraction import (
    all_pairs,
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


def reference_certify(space, tmap, pairs, c, q):
    """(alpha_min, alpha41_min, worst_pair, worst_pair41), pair by pair."""
    alpha_min = alpha41_min = 0.0
    worst = worst41 = pairs[0]
    for x, y in pairs:
        if x == y or space.dist(x, y) == 0.0:
            raise ValueError(f"pair ({x!r}, {y!r}) is not distinct")
        h = hausdorff(space, image_of(space, tmap, x), image_of(space, tmap, y))
        ratio = h / n_functional(space, tmap, c, q, x, y)
        ratio41 = h / five_term_max(space, tmap, x, y)
        if not (math.isfinite(ratio) and math.isfinite(ratio41)):
            raise ValueError(
                f"pair ({x!r}, {y!r}) has non-finite contraction ratios "
                f"({ratio!r} four-term, {ratio41!r} five-term): the map cannot be certified"
            )
        if ratio > alpha_min:
            alpha_min, worst = ratio, (x, y)
        if ratio41 > alpha41_min:
            alpha41_min, worst41 = ratio41, (x, y)
    return alpha_min, alpha41_min, worst, worst41


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # the exception is part of the outcome compared
        return type(exc), str(exc)


def assert_same_certificate(space, tmap, pairs, c, q, block):
    want = outcome(reference_certify, space, tmap, pairs, c, q)
    with mock.patch.object(qc, "_BLOCK_DISTANCES", block):
        got = outcome(certify, space, tmap, pairs, c, q)
    if got[0] == "ok":
        cert = got[1]
        got = "ok", (cert.alpha_min, cert.alpha41_min, cert.worst_pair, cert.worst_pair41)
        assert cert.n_pairs == len(pairs)
    assert got == want
    return want


# blocks of one pair, a few pairs, and the default size
BLOCKS = st.sampled_from([1, 9, 40, qc._BLOCK_DISTANCES])
COEFFS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def pair_lists(draw, pts):
    """All pairs in order, shuffled with random orientation, or a sparse
    list with repeats."""
    every = all_pairs(pts)
    kind = draw(st.sampled_from(["all", "shuffled", "sparse"]))
    if kind == "all":
        return every
    if kind == "shuffled":
        flips = draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
        return [(y, x) if f else (x, y) for (x, y), f in zip(draw(st.permutations(every)), flips)]
    return draw(st.lists(st.sampled_from(every), min_size=1, max_size=2 * len(every)))


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
    return space, make_branch_map(space, branches), draw(pair_lists(pts))


@st.composite
def table_problems(draw):
    """A matrix space on 2-7 points with tied distances and images of 1-3
    elements; a constant map gives all-zero ratios."""
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
    return space, make_table_map(space, images), draw(pair_lists(pts))


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
        # images and distances overflow to inf or NaN, or raise OverflowError
        assert_same_certificate(*problem, c, q, block)

    @SETTINGS
    @given(problem=table_problems(), c=COEFFS, q=COEFFS, block=BLOCKS, data=st.data())
    def test_bad_pair_after_good_ones(self, problem, c, q, block, data):
        # a repeated point, or an id outside the domain, anywhere in the list
        space, tmap, pairs = problem
        x = data.draw(st.sampled_from([p for pair in pairs for p in pair]))
        bad = data.draw(st.sampled_from([(x, x), (x, space.n_points)]))
        pairs.insert(data.draw(st.integers(0, len(pairs))), bad)
        assert assert_same_certificate(space, tmap, pairs, c, q, block)[0] in (ValueError, IndexError)

    def test_images_at_one_infinity(self):
        # T(1) = T(2) = {(inf,)}: the image-to-image distance is NaN, which
        # the min over an image set reads as inf, so h is not finite
        space = make_power_space(1, 1.0)
        tmap = make_branch_map(space, [([[1e308]], [1e308])])
        for block in (1, qc._BLOCK_DISTANCES):
            kind, message = assert_same_certificate(space, tmap, [((1.0,), (2.0,))], 0.0, 0.0, block)
            assert kind is ValueError and message.startswith("pair ((1.0,), (2.0,)) has non-finite")

    def test_tied_ratios_keep_the_first_pair(self):
        # x -> x/2 on the p = 1 line with c = q = 0: every pair has
        # four-term ratio exactly 1/2
        space = make_power_space(1, 1.0)
        tmap = make_branch_map(space, [([[0.5]], [0.0])])
        pairs = all_pairs([(float(v),) for v in range(1, 7)])
        for block in (1, 9, qc._BLOCK_DISTANCES):
            _, (alpha_min, _, worst, _) = assert_same_certificate(space, tmap, pairs, 0.0, 0.0, block)
            assert (alpha_min, worst) == (0.5, pairs[0])
            assert_same_certificate(space, tmap, pairs[::-1], 0.0, 0.0, block)

    def test_constant_map_keeps_the_given_first_pair(self):
        space = make_power_space(2, 2.0)
        tmap = make_branch_map(space, [([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])])
        pairs = [[(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0), (0.0, 2.0)]]
        cert = certify(space, tmap, pairs, 0.5, 0.5)
        assert (cert.alpha_min, cert.alpha41_min) == (0.0, 0.0)
        assert cert.worst_pair is pairs[0] and cert.worst_pair41 is pairs[0]


def test_one_image_per_distinct_point():
    """Work guard: certify calls image_of once per distinct sample point,
    not once or more per pair."""
    space = make_power_space(2, 1.5)
    tmap = make_branch_map(space, [([[0.5, 0.1], [0.0, 0.5]], [0.0, 1.0]), ([[0.3, 0.0], [0.2, 0.3]], [1.0, 0.0])])
    pts = [(0.25 * i, 0.5 * (i % 3)) for i in range(30)]
    pairs = all_pairs(pts) + all_pairs(pts[:5])
    calls = []

    def counted_image_of(space, tmap, x):
        calls.append(x)
        return image_of(space, tmap, x)

    with mock.patch.object(qc, "image_of", counted_image_of):
        cert = certify(space, tmap, pairs, 0.5, 0.5)
    assert cert.n_pairs == len(pairs)
    assert calls == pts
