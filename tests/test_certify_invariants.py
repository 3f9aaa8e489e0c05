"""Invariants of certify that need no reference implementation.

Each pair's two ratios are exactly symmetric in the pair: hausdorff is, the
cross sum d(x,T(y)) + d(y,T(x)) of N commutes, and max ignores order when
there is no NaN. So alpha_min and alpha41_min are bit-identical under any
reordering of the sample, whatever the block size. worst_pair may change
on ties, so only the values are compared.

A branch map's certificate is at most L = max over branches of |A_i|_2**p:
every element A_i x + b_i of T(x) has the partner A_i y + b_i in T(y), at
distance at most |A_i|_2**p * d(x, y), and both N and the five-term max are
at least d(x, y). Relabeling a matrix space, its matrix and its table map
together changes no certificate value, axiom verdict or fixed point.
"""

from functools import cache
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfixpoint import quasicontraction as qc
from bfixpoint.bspace import make_matrix_space, make_power_space, verify_axioms
from bfixpoint.quasicontraction import certify, enumerate_fixed_points, make_branch_map, make_table_map
from bfixpoint.scenarios import random_finite, sample_points

SETTINGS = settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
# blocks of one pair, a few pairs, and the default size
BLOCKS = st.sampled_from([1, 9, qc._BLOCK_DISTANCES])
COEFFS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def certified_values(space, tmap, points, c, q, block):
    """alpha_min and alpha41_min as hex strings, or the error type."""
    try:
        with mock.patch.object(qc, "_BLOCK_DISTANCES", block):
            cert = certify(space, tmap, points, c, q)
    except ValueError:
        return ValueError
    return cert.alpha_min.hex(), cert.alpha41_min.hex()


@cache
def generated(seed: int, n_points: int):
    """A random_finite instance: its space, table map and sample."""
    sc, _ = random_finite(seed, n_points=n_points, p=2.0, alpha_cap=0.6)
    return sc.space, sc.map, sample_points(sc)


@st.composite
def generated_problems(draw):
    # seeds 1 and 5 at 8 points, and 2 at 16, give images of 1 and 2 elements
    return generated(draw(st.integers(1, 6)), draw(st.sampled_from([8, 16])))


@st.composite
def table_problems(draw):
    """A matrix space on 2-7 points with tied distances, and images of 1-4
    elements in any order, so image sizes differ."""
    n = draw(st.integers(2, 7))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))
    space = make_matrix_space(n, d, 2.0)
    image = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    tmap = make_table_map(space, {i: draw(image) for i in range(n)})
    return space, tmap, draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))


@st.composite
def branch_problems(draw):
    """A power space (dim 1-2) with 1-3 affine branches; a branch that shares
    another's offset meets it at the origin only, where the image is smaller."""
    dim = draw(st.integers(1, 2))
    space = make_power_space(dim, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])))
    coef, offset = st.floats(-0.95, 0.95), st.sampled_from([0.0, 0.5, -1.0])
    b = [draw(offset) for _ in range(dim)]
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        if branches and draw(st.booleans()):
            b = [draw(offset) for _ in range(dim)]
        branches.append(([[draw(coef) for _ in range(dim)] for _ in range(dim)], b))
    coord = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=8, unique=True))
    return space, make_branch_map(space, branches), pts


@SETTINGS
@given(
    problem=st.one_of(generated_problems(), table_problems(), branch_problems()),
    c=COEFFS,
    q=COEFFS,
    block=BLOCKS,
    data=st.data(),
)
def test_values_do_not_depend_on_the_sample_order(problem, c, q, block, data):
    space, tmap, points = problem
    shuffled = data.draw(st.permutations(points))
    assert certified_values(space, tmap, shuffled, c, q, block) == certified_values(space, tmap, points, c, q, block)


# the relative slack `certifies` allows for the rounding in alpha_min
CERTIFIES_SLACK = 1e-12


@st.composite
def gridded_branch_problems(draw):
    """A power space (dim 1-3) with 1-3 affine branches and a sample, all on
    grids: coefficients k/20, offsets k/2, coordinates k/4. Sample points
    are then at least 0.25 apart and every nonzero |A_i|_2 is at least 0.05,
    so rounding in the images stays far below CERTIFIES_SLACK of L * d(x, y)."""
    dim = draw(st.integers(1, 3))
    space = make_power_space(dim, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])))
    coef, offset = st.integers(-19, 19).map(lambda k: k / 20), st.integers(-4, 4).map(lambda k: k / 2)
    branches = [
        ([[draw(coef) for _ in range(dim)] for _ in range(dim)], [draw(offset) for _ in range(dim)])
        for _ in range(draw(st.integers(1, 3)))
    ]
    coord = st.integers(-12, 12).map(lambda k: k / 4)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=8, unique=True))
    return space, make_branch_map(space, branches), pts


@SETTINGS
@given(problem=gridded_branch_problems(), c=COEFFS, q=COEFFS)
def test_branch_maps_certify_below_the_largest_norm(problem, c, q):
    space, tmap, points = problem
    largest = max(float(np.linalg.norm(np.array(a), 2)) ** space.p for a, _ in tmap.branches)
    cert = certify(space, tmap, points, c, q)
    assert cert.alpha_min * (1.0 - CERTIFIES_SLACK) <= largest
    assert cert.alpha41_min * (1.0 - CERTIFIES_SLACK) <= largest


@SETTINGS
@given(problem=st.one_of(generated_problems(), table_problems()), c=COEFFS, q=COEFFS, block=BLOCKS, data=st.data())
def test_relabeling_a_matrix_space_changes_nothing(problem, c, q, block, data):
    space, tmap, points = problem
    n = space.n_points
    label = data.draw(st.permutations(range(n)))  # point u becomes label[u]
    matrix = np.empty_like(space.matrix)
    matrix[np.ix_(label, label)] = space.matrix
    relabeled = make_matrix_space(n, matrix, space.s)
    remap = make_table_map(relabeled, {label[u]: [label[v] for v in t.elements] for u, t in tmap.table.items()})
    moved = [label[u] for u in points]

    assert certified_values(relabeled, remap, moved, c, q, block) == certified_values(space, tmap, points, c, q, block)
    axioms, moved_axioms = verify_axioms(space, points, 1e-12), verify_axioms(relabeled, moved, 1e-12)
    assert moved_axioms.passed == axioms.passed
    assert moved_axioms.violations == tuple(
        v._replace(witness=tuple(label[w] for w in v.witness)) for v in axioms.violations
    )
    fixed = enumerate_fixed_points(space, tmap)
    assert enumerate_fixed_points(relabeled, remap) == sorted(label[u] for u in fixed)
