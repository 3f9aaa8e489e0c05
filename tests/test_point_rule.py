"""One point rule: every public entry point that takes a point hands it, as
given, to BMetricSpace.check_point, and raises that check's ValueError text.

The table is one bad point per case, run through every entry point that
takes a point of its space, in every position a point goes. A failing
case names every entry point that converted, accepted or mis-raised the
point."""

import math
import re

import numpy as np
import pytest

from bfixpoint.bspace import make_matrix_space, make_power_space
from bfixpoint.orbit import run_orbit, verify_fixed_point
from bfixpoint.quasicontraction import (
    certify,
    five_term_max,
    image_of,
    make_branch_map,
    make_table_map,
    n_functional,
)
from bfixpoint.setops import PointSet, make_point_set

# three ids on a line 0 - 1 - 2; T(0) = {1} does not converge at x0 = 0
MAT = make_matrix_space(3, [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], 1.0)
IMAGES = {0: [1], 1: [1, 2], 2: [2, 0]}
TMAP = make_table_map(MAT, IMAGES)
LINE = make_power_space(1, 2.0)
SHRINK = make_branch_map(LINE, [([[0.9]], [0.0])])  # x -> {0.9x}
# the good point of each space, and a second bad point that must not be reached first
SPACES = {"matrix": (MAT, TMAP, 0, 99), "line": (LINE, SHRINK, (1.0,), (math.inf,))}


def entry_points(space, tmap, good, bad, later_bad):
    """(name, call) for every public entry point taking a point of space."""
    calls = [
        ("image_of", lambda: image_of(space, tmap, bad)),
        ("n_functional-x", lambda: n_functional(space, tmap, 0.5, 0.5, bad, good)),
        ("n_functional-y", lambda: n_functional(space, tmap, 0.5, 0.5, good, bad)),
        ("five_term_max-x", lambda: five_term_max(space, tmap, bad, good)),
        ("five_term_max-y", lambda: five_term_max(space, tmap, good, bad)),
        ("verify_fixed_point", lambda: verify_fixed_point(space, tmap, bad, 1e-9)),
        ("certify", lambda: certify(space, tmap, [good, bad, later_bad], 0.0, 0.0)),
        ("make_point_set", lambda: make_point_set(space, [good, bad])),
        ("run_orbit-x0", lambda: run_orbit(space, tmap, 0.0, 0.0, 0.5, bad)),
        ("run_orbit-x1", lambda: run_orbit(space, tmap, 0.0, 0.0, 0.5, good, x1=bad)),
    ]
    if space.kind == "matrix":
        calls.append(("make_table_map-image", lambda: make_table_map(space, {**IMAGES, 1: [0, bad]})))
    return calls


def table_with_key(bad):
    """IMAGES with bad as a key, in place of the id it equals (0.0 == 0 as a
    dict key), if any."""
    images = {k: v for k, v in IMAGES.items() if not k == bad}
    images[bad] = [1]
    return images


BAD_POINTS = {
    "out-of-range-id": ("matrix", 3),
    "negative-id": ("matrix", -1),
    "float-id": ("matrix", 1.0),
    "bool-id": ("matrix", True),
    "str-id": ("matrix", "1"),
    "numpy-id": ("matrix", np.int64(1)),
    "fractional-id": ("matrix", 1.7),
    "tuple-id": ("matrix", (1,)),
    "list-point": ("line", [0.5]),
    "wrong-length": ("line", (0.5, 0.5)),
    "nan-coordinate": ("line", (math.nan,)),
}


@pytest.mark.parametrize("case", BAD_POINTS)
def test_every_entry_point_raises_the_point_rule(case):
    kind, bad = BAD_POINTS[case]
    space, tmap, good, later_bad = SPACES[kind]
    with pytest.raises(ValueError) as rule:
        space.check_point(bad)
    calls = entry_points(space, tmap, good, bad, later_bad)
    if kind == "matrix":  # a key that the rule rejects is outside the domain
        expected = {"make_table_map-key": f"image given for point {bad!r} outside the domain [0, 3)"}
        calls.append(("make_table_map-key", lambda: make_table_map(space, table_with_key(bad))))
    else:
        expected = {}
    wrong = []
    for name, call in calls:
        try:
            out = call()
        except ValueError as exc:
            if str(exc) == expected.get(name, str(rule.value)):
                continue
            out = exc
        except Exception as exc:  # a KeyError or TypeError is not the rule
            out = exc
        wrong.append(f"{name}: {out!r}")
    assert not wrong, f"expected {rule.value}; got\n" + "\n".join(wrong)


class TestValidPoints:
    """Valid points keep their point sets: a table map's images are its
    table's, a branch map's outputs come deduplicated in branch order."""

    def test_images(self):
        for x, image in IMAGES.items():
            assert image_of(MAT, TMAP, x) == PointSet(tuple(image)) == TMAP.table[x]
        twin = make_branch_map(LINE, [([[0.5]], [0.0]), ([[-1.0]], [0.0]), ([[0.5]], [0.0])])
        assert image_of(LINE, twin, (1.0,)) == PointSet(((0.5,), (-1.0,)))

    def test_point_sets_keep_the_given_points_in_order(self):
        assert make_point_set(MAT, (2, 0, 1)) == PointSet((2, 0, 1))
        assert make_point_set(LINE, [(0.5,), (-0.25,)]) == PointSet(((0.5,), (-0.25,)))

    def test_points_through_the_entry_points(self):
        assert verify_fixed_point(MAT, TMAP, 1, 1e-9).ok
        assert run_orbit(MAT, TMAP, 0.0, 0.0, 0.5, 0, x1=1).points == (0, 1)
        assert run_orbit(LINE, SHRINK, 0.0, 0.0, 0.5, (1.0,), x1=(0.9,), max_iter=1).points == ((1.0,), (0.9,))
        assert certify(MAT, TMAP, [0, 1, 2], 0.0, 0.0).coverage == "exhaustive"
        assert n_functional(MAT, TMAP, 0.0, 0.0, 0, 2) == five_term_max(MAT, TMAP, 0, 2) == 2.0


class TestDuplicates:
    """Two elements are duplicates when they are equal, as image_of
    deduplicates, whatever their distance."""

    def test_equal_points_are_duplicates(self):
        for space, pts in ((MAT, [0, 2, 0]), (LINE, [(0.0,), (1.0,), (-0.0,)])):
            with pytest.raises(ValueError, match=re.escape("duplicate elements at indices 0 and 2 (equal points)")):
                make_point_set(space, pts)

    def test_x1_must_equal_an_element_of_the_image(self):
        # T(x0) = {(0.0,)}; d((1e-200,), (0.0,)) underflows to 0.0, and the
        # orbit used to start at (1e-200,) and converge there
        tmap = make_branch_map(LINE, [([[0.0]], [0.0])])
        with pytest.raises(ValueError, match=re.escape("x1 (1e-200,) is not an element of T(x0)")):
            run_orbit(LINE, tmap, 0.0, 0.0, 0.5, (1.0,), x1=(1e-200,))
        assert run_orbit(LINE, tmap, 0.0, 0.0, 0.5, (1.0,), x1=(-0.0,)).points == ((1.0,), (-0.0,))

    def test_distinct_points_whose_distance_underflows_are_kept(self):
        # d = (1e-200)**2 underflows to 0.0; image_of keeps both outputs as well
        pts = ((0.0,), (1e-200,))
        assert LINE.dist(*pts) == 0.0
        assert make_point_set(LINE, pts) == PointSet(pts)
        tmap = make_branch_map(LINE, [([[0.0]], [0.0]), ([[0.0]], [1e-200])])
        assert image_of(LINE, tmap, (3.0,)) == PointSet(pts)
