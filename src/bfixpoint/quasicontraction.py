"""Set-valued maps, the quasi-contraction comparison functional, certificates.

The central quantity is the four-term comparison functional

    N(x,y) = max{ d(x,y), c*d(x,T(x)), c*d(y,T(y)),
                  (q/2)*(d(x,T(y)) + d(y,T(x))) }

for coefficients c, q in [0,1]. The parameter q is the coefficient usually
written "d" in the quasi-contraction condition; it is renamed here so the
metric keeps that letter. Reports print both names.

A map is certified on a pair sample by the sup ratio
alpha_min = max h(T(x),T(y)) / N(x,y); the companion alpha41_min uses the
five-term max of all point-set distances instead (the classical Ciric-type
condition with the stricter threshold 1/(s+s^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .bspace import BMetricSpace, Point
from .setops import PointSet, dist_point_set, hausdorff, make_point_set


@dataclass(frozen=True)
class SetValuedMap:
    kind: str  # "table" | "branches"
    table: dict | None = None  # point id -> PointSet
    branches: tuple | None = None  # ((A, b), ...) affine maps x -> A@x + b


@dataclass(frozen=True)
class QuasiParams:
    c: float
    q: float
    alpha: float
    beta: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must be in [0,1], got {self.c}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {self.q}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0,1), got {self.alpha}")
        if self.beta is not None and not self.alpha < self.beta < 1.0:
            raise ValueError(f"beta must lie in (alpha, 1), got {self.beta}")


@dataclass(frozen=True)
class ContractionCertificate:
    alpha_min: float
    alpha41_min: float
    worst_pair: tuple  # pair attaining alpha_min, smallest index on ties
    worst_pair41: tuple
    s: float
    c: float
    q: float
    coverage: str  # "exhaustive" on fully paired finite spaces, else "empirical"
    n_pairs: int
    verdicts: dict
    assumptions: dict


def make_table_map(space: BMetricSpace, images: dict) -> SetValuedMap:
    """Explicit finite map: every domain id must get a nonempty image set."""
    if not space.is_finite:
        raise ValueError("table maps need a finite (matrix) space")
    n = space.n_points
    table = {}
    for i in range(n):
        if i not in images:
            raise ValueError(f"missing image for point {i}")
        table[i] = make_point_set(space, [int(j) for j in images[i]])
    return SetValuedMap(kind="table", table=table)


def make_branch_map(space: BMetricSpace, branches) -> SetValuedMap:
    """Affine branch family: the image of x is the set of branch outputs A@x + b."""
    if space.is_finite:
        raise ValueError("branch maps need a continuous (power) space")
    k = space.dim
    normd = []
    for idx, (a, b) in enumerate(branches):
        a = tuple(tuple(float(v) for v in row) for row in a)
        b = tuple(float(v) for v in b)
        if len(a) != k or any(len(row) != k for row in a) or len(b) != k:
            raise ValueError(f"branch {idx} is not {k}x{k} plus a length-{k} offset")
        for row in a:
            for v in row:
                if not math.isfinite(v):
                    raise ValueError(f"non-finite entry in branch {idx}")
        if any(not math.isfinite(v) for v in b):
            raise ValueError(f"non-finite offset in branch {idx}")
        normd.append((a, b))
    if not normd:
        raise ValueError("at least one branch required")
    return SetValuedMap(kind="branches", branches=tuple(normd))


def map_from_json(space: BMetricSpace, obj: dict) -> SetValuedMap:
    """Load {"images": {...}} as a table map or {"branches": [...]} as branches."""
    if "images" in obj:
        images = {int(k): v for k, v in obj["images"].items()}
        return make_table_map(space, images)
    if "branches" in obj:
        return make_branch_map(space, [(br["A"], br["b"]) for br in obj["branches"]])
    raise ValueError("map object needs an 'images' or 'branches' field")


def image_of(space: BMetricSpace, tmap: SetValuedMap, x: Point) -> PointSet:
    """The image set T(x). Branch outputs that coincide exactly are deduplicated."""
    if tmap.kind == "table":
        return tmap.table[x]
    outs = []
    for a, b in tmap.branches:
        y = tuple(sum(row[j] * x[j] for j in range(len(x))) + b[i] for i, row in enumerate(a))
        if y not in outs:
            outs.append(y)
    return PointSet(tuple(outs))


def _check_coefficients(c: float, q: float) -> None:
    if not 0.0 <= c <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError(f"coefficients must be in [0,1], got c={c}, q={q}")


def _n_from_parts(
    space: BMetricSpace,
    c: float,
    q: float,
    x: Point,
    y: Point,
    d_xy: float,
    tx: PointSet,
    ty: PointSet,
    d_x_tx: float,
    d_y_ty: float,
) -> float:
    """N(x,y) from the terms a caller already holds; only the two cross
    distances d(x,T(y)) and d(y,T(x)) are computed here."""
    return max(
        d_xy,
        c * d_x_tx,
        c * d_y_ty,
        0.5 * q * (dist_point_set(space, x, ty).value + dist_point_set(space, y, tx).value),
    )


def n_functional(space: BMetricSpace, tmap: SetValuedMap, c: float, q: float, x: Point, y: Point) -> float:
    """Four-term comparison functional N(x,y) for coefficients c, q in [0,1]."""
    _check_coefficients(c, q)
    tx = image_of(space, tmap, x)
    ty = image_of(space, tmap, y)
    return _n_from_parts(
        space, c, q, x, y,
        space.dist(x, y), tx, ty,
        dist_point_set(space, x, tx).value, dist_point_set(space, y, ty).value,
    )


def five_term_max(space: BMetricSpace, tmap: SetValuedMap, x: Point, y: Point) -> float:
    """max of all five point/point-set distances between x, y and their images."""
    tx = image_of(space, tmap, x)
    ty = image_of(space, tmap, y)
    return max(
        space.dist(x, y),
        dist_point_set(space, x, tx).value,
        dist_point_set(space, y, ty).value,
        dist_point_set(space, x, ty).value,
        dist_point_set(space, y, tx).value,
    )


def all_pairs(points) -> list[tuple]:
    """All unordered distinct pairs, in index order (both ratios are symmetric)."""
    return list(combinations(points, 2))


def enumerate_fixed_points(space: BMetricSpace, tmap: SetValuedMap) -> list[int]:
    """Brute force over a finite domain: every u whose image contains u exactly."""
    if not space.is_finite:
        raise ValueError("fixed-point enumeration needs a finite (matrix) space")
    out = []
    for u in range(space.n_points):
        if dist_point_set(space, u, image_of(space, tmap, u)).value == 0.0:
            out.append(u)
    return out


def certify(
    space: BMetricSpace,
    tmap: SetValuedMap,
    pairs,
    c: float,
    q: float,
    gamma: float | None = None,
) -> ContractionCertificate:
    """Smallest feasible contraction coefficients over the supplied pairs.

    alpha_min   = max h(T(x),T(y)) / N(x,y)          (four-term condition)
    alpha41_min = max h(T(x),T(y)) / five_term_max    (five-term condition)

    Both ratios are well-defined because distinct pairs give N >= d(x,y) > 0.
    On a finite space whose pair list covers every unordered pair the
    certificate is exhaustive; otherwise it only speaks for the sample and
    is labeled empirical. Verdict flags are evaluated at alpha = alpha_min;
    pass gamma to also record the single-step-decay comparison s*gamma < 1.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pair list must be nonempty")
    _check_coefficients(c, q)

    alpha_min = 0.0
    alpha41_min = 0.0
    worst = pairs[0]
    worst41 = pairs[0]
    for x, y in pairs:
        if x == y or space.dist(x, y) == 0.0:
            raise ValueError(f"pair ({x!r}, {y!r}) is not distinct")
        h = hausdorff(space, image_of(space, tmap, x), image_of(space, tmap, y))
        ratio = h / n_functional(space, tmap, c, q, x, y)
        if ratio > alpha_min:
            alpha_min = ratio
            worst = (x, y)
        ratio41 = h / five_term_max(space, tmap, x, y)
        if ratio41 > alpha41_min:
            alpha41_min = ratio41
            worst41 = (x, y)

    coverage = "empirical"
    if space.is_finite:
        want = {frozenset(pr) for pr in combinations(range(space.n_points), 2)}
        have = {frozenset(pr) for pr in pairs}
        if want <= have:
            coverage = "exhaustive"

    if space.is_finite:
        assumptions = {
            "map_continuity": "holds (finite space)",
            "dist_star_continuity": "holds (finite space)",
        }
    else:
        assumptions = {
            "map_continuity": "assumed (not checkable from finite samples)",
            "dist_star_continuity": "assumed (not checkable from finite samples)",
        }

    s = space.s
    verdicts = {
        "thm21_feasible": alpha_min * q * s < 1.0,
        "thm33": max(alpha_min * c * s, alpha_min * q * s) < 1.0,
        "lemma41": (s * gamma < 1.0) if gamma is not None else None,
        "thm41": alpha41_min <= 1.0 / (s + s * s),
    }
    return ContractionCertificate(
        alpha_min=alpha_min,
        alpha41_min=alpha41_min,
        worst_pair=worst,
        worst_pair41=worst41,
        s=s,
        c=c,
        q=q,
        coverage=coverage,
        n_pairs=len(pairs),
        verdicts=verdicts,
        assumptions=assumptions,
    )


def check_hypotheses(cert: ContractionCertificate, s: float, c: float, q: float, alpha: float) -> dict:
    """Per-theorem applicability at a caller-supplied alpha.

    The three four-term theorems share the contraction condition
    h <= alpha*N (which the certificate established for alpha >= alpha_min)
    and differ in the side condition: alpha*q*s < 1 plus map continuity,
    alpha*q*s < 1 plus *-continuity of the distance, or
    max(alpha*c*s, alpha*q*s) < 1 with no continuity assumption. The
    five-term route instead needs alpha41_min <= 1/(s + s^2).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0,1), got {alpha}")
    contraction_holds = alpha >= cert.alpha_min
    aqs = alpha * q * s
    acs = alpha * c * s
    threshold41 = 1.0 / (s + s * s)

    def _verdict(apply_ok, condition, value, threshold, assumption=None):
        out = {
            "applicable": bool(apply_ok and contraction_holds),
            "condition": condition,
            "value": value,
            "threshold": threshold,
        }
        if assumption is not None:
            out["assumption"] = assumption
        return out

    return {
        "contraction_holds": contraction_holds,
        "alpha": alpha,
        "alpha_min": cert.alpha_min,
        "alpha41_min": cert.alpha41_min,
        "thm31": _verdict(
            aqs < 1.0, "alpha*q*s < 1", aqs, 1.0, cert.assumptions["map_continuity"]
        ),
        "thm32": _verdict(
            aqs < 1.0, "alpha*q*s < 1", aqs, 1.0, cert.assumptions["dist_star_continuity"]
        ),
        "thm33": _verdict(
            max(acs, aqs) < 1.0, "max(alpha*c*s, alpha*q*s) < 1", max(acs, aqs), 1.0
        ),
        "thm41": {
            # five-term feasibility does not depend on the supplied alpha
            "applicable": cert.alpha41_min <= threshold41,
            "condition": "alpha41_min <= 1/(s + s^2)",
            "value": cert.alpha41_min,
            "threshold": threshold41,
        },
    }
