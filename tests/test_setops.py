import math

import pytest

from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.rng import SplitMix64
from bfixpoint.setops import dist_point_set, hausdorff, make_point_set


def pset(space, *xs):
    return make_point_set(space, [(float(x),) for x in xs])


def random_matrix_space(rng, n, p):
    from math import dist

    pts = []
    while len(pts) < n:
        cand = (rng.uniform(), rng.uniform())
        if all(dist(cand, q) >= 0.05 for q in pts):
            pts.append(cand)
    d = [[dist(a, b) ** p for b in pts] for a in pts]
    return make_matrix_space(n, d, max(1.0, 2.0 ** (p - 1.0)))


def random_id_set(rng, space):
    n = space.n_points
    size = 1 + rng.randrange(min(4, n))
    ids = list(range(n))
    chosen = []
    for _ in range(size):
        chosen.append(ids.pop(rng.randrange(len(ids))))
    return make_point_set(space, chosen)


class TestPointSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_point_set(make_power_space(1, 2.0), [])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            pset(make_power_space(1, 2.0), 1, 2, 1)

    def test_rejects_out_of_domain(self):
        sp = make_matrix_space(2, [[0.0, 1.0], [1.0, 0.0]], 1.0)
        with pytest.raises(ValueError, match="out of range"):
            make_point_set(sp, [0, 5])


    def test_points_at_an_infinite_distance(self):
        # |1e200 - -1e200|**2 is beyond the float range: the two points are
        # distinct, at distance inf, as is every pair across the two sets
        space = make_power_space(1, 2.0)
        a, b = pset(space, 1e200, -1e200), pset(space, 3e200, -3e200)
        assert space.dist(*a.elements) == math.inf
        assert hausdorff(space, a, b) == math.inf


class TestDistPointSet:
    def test_member_attains_zero(self):
        sp = make_power_space(1, 2.0)
        cset = pset(sp, 3, 5, 7)
        value, idx = dist_point_set(sp, (5.0,), cset)
        assert value == 0.0
        assert idx == 1

    def test_metric_line_min(self):
        sp = make_power_space(1, 1.0)
        assert dist_point_set(sp, (0.0,), pset(sp, 1, 2)) == (1.0, 0)

    def test_quadratic_picks_nearer(self):
        sp = make_power_space(1, 2.0)
        value, idx = dist_point_set(sp, (1.0,), pset(sp, 0, 0.9))
        assert idx == 1
        assert value == pytest.approx(0.01, rel=1e-12)

    def test_tie_breaks_to_smallest_index(self):
        sp = make_power_space(1, 2.0)
        value, idx = dist_point_set(sp, (1.0,), pset(sp, 0, 2))
        assert (value, idx) == (1.0, 0)


class TestHausdorff:
    def test_self_distance_zero(self):
        sp = make_power_space(1, 2.0)
        a = pset(sp, 0, 1, 5)
        assert hausdorff(sp, a, a) == 0.0

    def test_singletons_reduce_to_dist(self):
        sp = make_power_space(1, 2.0)
        assert hausdorff(sp, pset(sp, 0), pset(sp, 1)) == 1.0

    def test_two_element_sets(self):
        sp = make_power_space(1, 1.0)
        assert hausdorff(sp, pset(sp, 0, 1), pset(sp, 0, 2)) == 1.0

    def test_symmetry_exact_and_triangle_on_random_sets(self):
        rng = SplitMix64(5150)
        for trial in range(60):
            space = random_matrix_space(rng, 4 + rng.randrange(5), [1.0, 2.0, 3.0][trial % 3])
            a, b, c = (random_id_set(rng, space) for _ in range(3))
            hab, hbc, hac = hausdorff(space, a, b), hausdorff(space, b, c), hausdorff(space, a, c)
            assert hab == hausdorff(space, b, a)
            assert hac <= space.s * (hab + hbc) * (1.0 + 1e-9)

    def test_zero_iff_equal_as_sets(self):
        rng = SplitMix64(99)
        space = random_matrix_space(rng, 6, 2.0)
        a = make_point_set(space, [0, 2, 4])
        same = make_point_set(space, [4, 0, 2])
        other = make_point_set(space, [0, 2, 5])
        assert hausdorff(space, a, same) == 0.0
        assert hausdorff(space, a, other) > 0.0

    def test_containment_gives_zero_directed_part(self):
        sp = make_power_space(1, 2.0)
        sub = pset(sp, 1, 3)
        sup = pset(sp, 1, 2, 3)
        assert max(dist_point_set(sp, x, sup).value for x in sub.elements) == 0.0
