"""Finite point sets and the Hausdorff-Pompeiu distance.

Finite nonempty sets stand in for the bounded closed subsets of the host
space: they are closed and bounded, and every inf/sup in the distance
definitions is attained, which keeps each inequality exactly checkable.
"""

from __future__ import annotations

from typing import NamedTuple

from .bspace import BMetricSpace, Point


class PointSet(NamedTuple):
    """Ordered, nonempty collection of points, no two of them equal.

    Order matters only for tie-breaking: distance ties resolve toward the
    smallest list index, which keeps downstream orbit selection deterministic.
    """

    elements: tuple


class SetDistance(NamedTuple):
    value: float
    index: int  # index of the attaining element, smallest on ties


def make_point_set(space: BMetricSpace, points) -> PointSet:
    """Check points and wrap them, as given, as a PointSet in the given space.

    Rejects empty input, then the first point that space.check_point rejects
    or that equals an earlier one (a duplicate, the rule image_of dedupes by).
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("point set must be nonempty")
    first = {}
    for j, x in enumerate(pts):
        space.check_point(x)
        if (i := first.setdefault(x, j)) < j:
            raise ValueError(f"duplicate elements at indices {i} and {j} (equal points)")
    return PointSet(pts)


def dist_point_set(space: BMetricSpace, x: Point, cset: PointSet) -> SetDistance:
    """min over c in the set of d(x, c), with the attaining index."""
    best = float("inf")
    best_i = 0
    for i, c in enumerate(cset.elements):
        d = space.dist(x, c)
        if d < best:
            best = d
            best_i = i
    return SetDistance(best, best_i)


def _directed(space: BMetricSpace, a: PointSet, b: PointSet) -> float:
    worst = 0.0
    for x in a.elements:
        d = dist_point_set(space, x, b).value
        if d > worst:
            worst = d
    return worst


def hausdorff(space: BMetricSpace, a: PointSet, b: PointSet) -> float:
    """Hausdorff-Pompeiu distance: max of the two directed sup-of-min values.

    Computed by the full double loop; exactly symmetric in its arguments.
    """
    return max(_directed(space, a, b), _directed(space, b, a))
