"""Finite point sets and the Hausdorff-Pompeiu distance.

Finite nonempty sets stand in for the bounded closed subsets of the host
space: they are closed and bounded, and every inf/sup in the distance
definitions is attained, which keeps each inequality exactly checkable.
"""

from __future__ import annotations

from typing import NamedTuple

from .bspace import BMetricSpace, Point


class PointSet(NamedTuple):
    """Ordered, duplicate-free, nonempty collection of points.

    Order matters only for tie-breaking: distance ties resolve toward the
    smallest list index, which keeps downstream orbit selection deterministic.
    """

    elements: tuple


class SetDistance(NamedTuple):
    value: float
    index: int  # index of the attaining element, smallest on ties


def make_point_set(space: BMetricSpace, points) -> PointSet:
    """Validate and wrap points as a PointSet in the given space.

    Rejects empty input, points outside the domain, and pairs at distance
    zero (duplicates).
    """
    pts = tuple(tuple(p) if isinstance(p, (list, tuple)) else p for p in points)
    if not pts:
        raise ValueError("point set must be nonempty")
    for x in pts:
        space.check_point(x)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if space.dist(pts[i], pts[j]) == 0.0:
                raise ValueError(f"duplicate elements at indices {i} and {j} (distance 0)")
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
