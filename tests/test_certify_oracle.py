"""An exact oracle for certificates.

At p = 1 and p = 2 every distance between float points of the line is a
rational number, |x - y| or its square, and so is every entry of a matrix
space. Taking the map's own float images (image_of), h, N, the five-term
max and every ratio are then exact rationals, and so are the exact
alpha_min and alpha41_min of a sample. certify is checked against them in
fractions.Fraction, without any float path of the engine: its two
coefficients must lie within REL_ULPS ulps of the exact values.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.quasicontraction import certify, image_of, make_branch_map, make_table_map

# The largest relative error allowed, in units of 2**-52 (one ulp at 1.0).
REL_ULPS = 16

SETTINGS = settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])


def exact_certificate(space, tmap, points, c, q):
    """(alpha_min, alpha41_min) as Fractions, from the definitions."""
    if space.kind == "matrix":
        def d(x, y):
            return Fraction(float(space.matrix[x, y]))
    else:
        def d(x, y):
            return abs(Fraction(x[0]) - Fraction(y[0])) ** int(space.p)

    def to_set(x, ys):
        return min(d(x, y) for y in ys)

    images = {x: image_of(space, tmap, x).elements for x in points}
    c, q = Fraction(c), Fraction(q)
    alpha = alpha41 = Fraction(0)
    for x, y in combinations(points, 2):
        tx, ty = images[x], images[y]
        h = max(max(to_set(a, ty) for a in tx), max(to_set(b, tx) for b in ty))
        terms = d(x, y), to_set(x, tx), to_set(y, ty), to_set(x, ty), to_set(y, tx)
        n4 = max(terms[0], c * terms[1], c * terms[2], q / 2 * (terms[3] + terms[4]))
        alpha, alpha41 = max(alpha, h / n4), max(alpha41, h / max(terms))
    return alpha, alpha41


def ulps_off(got: float, exact: Fraction) -> float:
    """|got - exact| / exact in units of 2**-52 (0 when both are 0)."""
    if exact == 0:
        return 0.0 if got == 0.0 else float("inf")
    return float(abs(Fraction(got) - exact) / exact * 2**52)


def assert_exact(space, tmap, points, c, q):
    cert = certify(space, tmap, points, c, q)
    alpha, alpha41 = exact_certificate(space, tmap, points, c, q)
    assert ulps_off(cert.alpha_min, alpha) <= REL_ULPS
    assert ulps_off(cert.alpha41_min, alpha41) <= REL_ULPS


COEFFS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def line_problems(draw):
    """A grid of 5-15 points on the line at p in {1, 2} under 1-3 affine
    branches. Slopes are 0 or at least 0.05 in size, as distances that
    underflow carry no relative accuracy."""
    space = make_power_space(1, draw(st.sampled_from([1.0, 2.0])))
    slope = st.one_of(st.just(0.0), st.floats(0.05, 0.95), st.floats(-0.95, -0.05))
    branch = st.tuples(slope, st.floats(-1.0, 1.0))
    branches = [([[a]], [b]) for a, b in draw(st.lists(branch, min_size=1, max_size=3))]
    n = draw(st.integers(5, 15))
    lo, step = draw(st.floats(-2.0, 0.0)), draw(st.floats(0.01, 0.5))
    points = list(dict.fromkeys((lo + k * step,) for k in range(n)))
    return space, make_branch_map(space, branches), points


@st.composite
def table_problems(draw):
    """A symmetric matrix space on 3-7 points with images of 1-3 elements,
    sampled at every point."""
    n = draw(st.integers(3, 7))
    d = [[0.0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(st.floats(0.01, 10.0))
    space = make_matrix_space(n, d, 1.0)
    image = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    return space, make_table_map(space, {i: draw(image) for i in range(n)}), list(range(n))


@SETTINGS
@given(problem=line_problems(), c=COEFFS, q=COEFFS)
def test_line_certificates_are_exact(problem, c, q):
    assert_exact(*problem, c, q)


@SETTINGS
@given(problem=table_problems(), c=COEFFS, q=COEFFS)
def test_table_certificates_are_exact(problem, c, q):
    assert_exact(*problem, c, q)
