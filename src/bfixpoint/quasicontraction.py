"""Set-valued maps, the quasi-contraction comparison functional, certificates.

The central quantity is the four-term comparison functional

    N(x,y) = max{ d(x,y), c*d(x,T(x)), c*d(y,T(y)),
                  (q/2)*(d(x,T(y)) + d(y,T(x))) }

for coefficients c, q in [0,1]. The parameter q is the coefficient usually
written "d" in the quasi-contraction condition; it is renamed here so the
metric keeps that letter. Reports print both names.

A map is certified on a point sample by the sup ratio over its pairs
alpha_min = max h(T(x),T(y)) / N(x,y); the companion alpha41_min uses the
five-term max of all point-set distances instead (the classical Ciric-type
condition with the stricter threshold 1/(s+s^2)).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

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
    beta: float | None = None  # its interval needs s, so Scenario checks it

    def __post_init__(self):
        _check_coefficients(self.c, self.q)
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0,1), got {self.alpha}")


@dataclass(frozen=True)
class ContractionCertificate:
    alpha_min: float
    alpha41_min: float
    worst_pair: tuple  # pair attaining alpha_min, smallest index on ties
    worst_pair41: tuple
    s: float
    c: float
    q: float
    coverage: str  # "exhaustive" on finite spaces sampled at every point, else "empirical"
    n_pairs: int
    assumptions: dict

    @property
    def verdicts(self) -> dict:
        """The verdict block at alpha = alpha_min, without a run's gamma."""
        return verdicts(self, self.alpha_min)


def make_table_map(space: BMetricSpace, images: dict) -> SetValuedMap:
    """Explicit finite map: every domain id must get a nonempty image set."""
    if space.kind != "matrix":
        raise ValueError("table maps need a finite (matrix) space")
    n = space.n_points
    table = {}
    for i in range(n):
        if i not in images:
            raise ValueError(f"missing image for point {i}")
        table[i] = make_point_set(space, [int(j) for j in images[i]])
    for k in images:
        if k not in table:
            raise ValueError(f"image given for point {k!r} outside the domain [0, {n})")
    return SetValuedMap(kind="table", table=table)


def make_branch_map(space: BMetricSpace, branches) -> SetValuedMap:
    """Affine branch family: the image of x is the set of branch outputs A@x + b."""
    if space.kind == "matrix":
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


def image_of(space: BMetricSpace, tmap: SetValuedMap, x: Point) -> PointSet:
    """The image set T(x). Branch outputs that coincide exactly are deduplicated."""
    if tmap.kind == "table":
        return tmap.table[x]
    if len(x) != space.dim:  # map() would silently stop at the shorter of a row and x
        raise ValueError(f"expected a coordinate tuple of length {space.dim}, got {x!r}")
    outs = []
    for a, b in tmap.branches:
        y = tuple(sum(map(operator.mul, row, x)) + b[i] for i, row in enumerate(a))
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


def enumerate_fixed_points(space: BMetricSpace, tmap: SetValuedMap) -> list[int]:
    """Brute force over a finite domain: every u whose image contains u exactly."""
    if space.kind != "matrix":
        raise ValueError("fixed-point enumeration needs a finite (matrix) space")
    out = []
    for u in range(space.n_points):
        if dist_point_set(space, u, image_of(space, tmap, u)).value == 0.0:
            out.append(u)
    return out


# Pairs are reduced in blocks of at most this many distances, so the
# buffers stay small however many pairs there are.
_BLOCK_DISTANCES = 1 << 12
# What a point outside the domain or an overflowing distance raises. The
# block reduction leaves such failures to the pair-by-pair reference, which
# raises the same error at the same pair.
_PAIR_ERRORS = (ArithmeticError, LookupError, TypeError, ValueError)


def _pair_ratios(space: BMetricSpace, tmap: SetValuedMap, c: float, q: float, x: Point, y: Point) -> tuple:
    """Both contraction ratios of one pair, term by term from the public
    definitions (hausdorff, n_functional, five_term_max): the reference the
    block reduction in certify agrees with. Raises the ValueError naming the
    pair when it is not distinct, or its distance, a ratio or a ratio's
    denominator is not finite (h / inf = 0 would drop the pair silently)."""
    if x == y or (d_xy := space.dist(x, y)) == 0.0:
        raise ValueError(f"pair ({x!r}, {y!r}) is not distinct")
    if not math.isfinite(d_xy):
        raise ValueError(f"sample pair ({x!r}, {y!r}) has non-finite distance {d_xy}")
    h = hausdorff(space, image_of(space, tmap, x), image_of(space, tmap, y))
    n4, n5 = n_functional(space, tmap, c, q, x, y), five_term_max(space, tmap, x, y)
    if not all(map(math.isfinite, (n4, n5, h / n4, h / n5))):
        raise ValueError(
            f"pair ({x!r}, {y!r}) has non-finite contraction ratios (h / N = {h!r} / {n4!r} four-term, "
            f"{h!r} / {n5!r} five-term): the map cannot be certified"
        )
    return h / n4, h / n5


def _reference_ratios(space, tmap, c, q, pairs) -> np.ndarray:
    """Both ratio arrays of `pairs` (two rows), pair by pair with
    _pair_ratios: the first failing pair raises, in pair order."""
    return np.array([_pair_ratios(space, tmap, c, q, x, y) for x, y in pairs]).T


def _pair_indices(n: int, lo: int, hi: int) -> tuple:
    """(i, j) index arrays of the pairs lo .. hi-1 in combinations(range(n), 2)
    order: row i holds the pairs (i, j > i), and pair ends[i] is the first after it."""
    k = np.arange(lo, hi)
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    i = np.searchsorted(ends, k, side="right")
    return i, k - ends[i] + n


def _block_ratios(space, table, rows, real, dxt, xi, yi, c, q) -> tuple:
    """Both ratio arrays for the pairs (x, y) = (points[xi[b]], points[yi[b]]),
    or None when a pair needs _pair_ratios (not distinct, a non-finite term).

    table holds each sample point u followed by its image T(u) (a
    BMetricSpace.point_table), and dxt[u] = d(u, T(u)). Row u of rows holds
    the table indices of u and T(u), padded to the widest image by
    repeating the last element; real[u] marks the entries that are not such
    repeats (None when no row has one). One space.dists call on gathers of
    the table evaluates each pair's distances from x, T(x) to y, T(y) once;
    padded entries are then copied from the elements they repeat, which
    changes no min or max. Row 0 holds d(x,y) and d(x,T(y)), column 0
    d(y,T(x)), the rest the distances of h. fmin/fmax skip NaN as the
    `<`/`>` loops do, from the same inf / 0."""
    shape = (len(xi), rows.shape[1], rows.shape[1])
    xs = np.broadcast_to(table[rows[xi]][:, :, None], shape)
    ys = np.broadcast_to(table[rows[yi]][:, None, :], shape)
    if real is None:
        m = space.dists(xs.ravel(), ys.ravel()).reshape(shape)
    else:
        keep = real[xi][:, :, None] & real[yi][:, None, :]
        m = np.empty(shape)
        m[keep] = space.dists(xs[keep], ys[keep])
        slot = rows - rows[:, :1]  # the element each padded entry repeats
        m = m[np.arange(len(xi))[:, None, None], slot[xi][:, :, None], slot[yi][:, None, :]]

    # each min and max runs over image elements, a short axis, so it is
    # folded one element at a time: numpy's reduce along a short axis costs
    # about as much per output as a whole binary pass
    fmin, fmax, inf = np.fmin, np.fmax, np.inf
    d_xy = m[:, 0, 0]
    d_x_ty = reduce(fmin, m[:, 0, 1:].T, inf)
    d_y_tx = reduce(fmin, m[:, 1:, 0].T, inf)
    img = m[:, 1:, 1:]
    h = fmax(reduce(fmax, reduce(fmin, img.transpose(2, 1, 0), inf), 0.0),
             reduce(fmax, reduce(fmin, img.transpose(1, 2, 0), inf), 0.0))
    d_x_tx, d_y_ty = dxt[xi], dxt[yi]
    # the terms in the order of _n_from_parts and five_term_max; a NaN d_xy
    # (which Python's max would keep) fails the d_xy > 0 test instead
    n4 = reduce(fmax, [c * d_x_tx, c * d_y_ty, 0.5 * q * (d_x_ty + d_y_tx)], d_xy)
    n5 = reduce(fmax, [d_x_tx, d_y_ty, d_x_ty, d_y_tx], d_xy)
    ratio, ratio41 = h / n4, h / n5
    if not ((d_xy > 0.0) & np.isfinite(n4) & np.isfinite(n5) & np.isfinite(ratio) & np.isfinite(ratio41)).all():
        return None
    return ratio, ratio41


def _ratio_blocks(space, tmap, c, q, points):
    """Yield (xi, yi, ratio, ratio41) for consecutive blocks of the pairs
    (points[xi[b]], points[yi[b]]), in combinations order.

    T(x) and d(x, T(x)) are computed once for each sample point, and the
    points and their images go into one point table. Any failure is left to
    _reference_ratios, which raises the error of the first failing pair:
    from the first pair when a point's own terms or the table fail, or from
    the start of the block that failed."""
    n, total = len(points), len(points) * (len(points) - 1) // 2
    try:
        images = [image_of(space, tmap, x) for x in points]
        dxt = np.array([dist_point_set(space, x, t).value for x, t in zip(points, images)])
        table = space.point_table(chain.from_iterable((x, *t.elements) for x, t in zip(points, images)))
    except _PAIR_ERRORS:
        yield (*_pair_indices(n, 0, total), *_reference_ratios(space, tmap, c, q, combinations(points, 2)))
        return
    width = np.array([1 + len(t.elements) for t in images])
    w = int(width.max())
    slot = np.arange(w)
    rows = (np.cumsum(width) - width)[:, None] + np.minimum(slot, width[:, None] - 1)
    real = None if (width == w).all() else slot < width[:, None]
    step = max(1, _BLOCK_DISTANCES // w**2)
    for lo in range(0, total, step):
        xi, yi = _pair_indices(n, lo, min(lo + step, total))
        try:
            with np.errstate(all="ignore"):
                got = _block_ratios(space, table, rows, real, dxt, xi, yi, c, q)
        except _PAIR_ERRORS:
            got = None
        if got is None:
            pairs = zip(map(points.__getitem__, xi.tolist()), map(points.__getitem__, yi.tolist()))
            got = _reference_ratios(space, tmap, c, q, pairs)
        yield (xi, yi, *got)


def certify(space: BMetricSpace, tmap: SetValuedMap, points, c: float, q: float) -> ContractionCertificate:
    """Smallest feasible contraction coefficients over every pair of a point
    sample, in the order of itertools.combinations(points, 2):

    alpha_min   = max h(T(x),T(y)) / N(x,y)          (four-term condition)
    alpha41_min = max h(T(x),T(y)) / five_term_max    (five-term condition)

    Both ratios are well-defined because distinct pairs give N >= d(x,y) > 0.
    A pair that is not distinct, or whose distance, ratio or denominator is
    not finite (points, images or distances that overflow), makes the
    certificate uncomputable: ValueError names the first such pair, as it
    does fewer than two points. On a finite space sampled at every point the
    certificate is exhaustive; otherwise it only speaks for the sample and
    is labeled empirical. Theorem verdicts come from `verdicts`.

    Cost: one image_of and one d(x, T(x)) per sample point, then
    (1 + |T(x)|) * (1 + |T(y)|) space.dists entries per pair, walked by
    index and reduced in numpy block by block. The result equals the
    pair-by-pair loop over hausdorff, n_functional and five_term_max, worst
    pairs (the first to attain each maximum) and errors included.
    """
    points = list(points)
    n = len(points)
    if n < 2:
        raise ValueError(f"certify needs at least two sample points, got {n}")
    _check_coefficients(c, q)

    alpha_min = alpha41_min = 0.0
    worst = worst41 = (points[0], points[1])
    for xi, yi, ratio, ratio41 in _ratio_blocks(space, tmap, c, q, points):
        i, j = int(np.argmax(ratio)), int(np.argmax(ratio41))
        if ratio[i] > alpha_min:
            alpha_min, worst = float(ratio[i]), (points[xi[i]], points[yi[i]])
        if ratio41[j] > alpha41_min:
            alpha41_min, worst41 = float(ratio41[j]), (points[xi[j]], points[yi[j]])

    # every pair is certified, so on a finite space the points are distinct ids
    finite = space.kind == "matrix"
    continuity = "holds (finite space)" if finite else "assumed (not checkable from finite samples)"
    return ContractionCertificate(
        alpha_min=alpha_min, alpha41_min=alpha41_min, worst_pair=worst, worst_pair41=worst41,
        s=space.s, c=c, q=q, coverage="exhaustive" if finite and n == space.n_points else "empirical",
        n_pairs=n * (n - 1) // 2, assumptions={"map_continuity": continuity, "dist_star_continuity": continuity},
    )


def certifies(cert: ContractionCertificate, alpha: float) -> bool:
    """Whether alpha is a contraction constant the certificate vouches for:
    alpha >= alpha_min, up to a relative 1e-12 for the rounding in alpha_min
    (the paper example's exact constant 0.81 certifies as 0.8100000000000009)."""
    return alpha >= cert.alpha_min * (1.0 - 1e-12)


class SideCondition(NamedTuple):
    """A theorem's side condition `value relation threshold`, written as
    `condition`."""

    condition: str
    value: float
    relation: str  # "<" or "<="
    threshold: float

    @property
    def holds(self) -> bool:
        return self.value < self.threshold if self.relation == "<" else self.value <= self.threshold

    @property
    def shown_relation(self) -> str:
        """How value compares with threshold: the condition's own relation
        when it holds, else ">", or ">=" at equality (a failed "<")."""
        if self.holds:
            return self.relation
        return ">=" if self.value == self.threshold else ">"


def side_conditions(cert: ContractionCertificate, alpha: float, gamma: float | None = None) -> dict:
    """Each theorem's side condition at alpha, as name -> SideCondition;
    lemma41 is None without a run's gamma. Every verdict is read from here."""
    s = cert.s
    aqs = alpha * cert.q * s
    t41 = 1.0 / (s + s * s)
    return {
        "thm21_feasible": SideCondition("alpha*q*s < 1", aqs, "<", 1.0),
        "thm33": SideCondition("max(alpha*c*s, alpha*q*s) < 1", max(alpha * cert.c * s, aqs), "<", 1.0),
        "lemma41": None if gamma is None else SideCondition("s*gamma < 1", s * gamma, "<", 1.0),
        "thm41": SideCondition("alpha41_min <= 1/(s + s^2)", cert.alpha41_min, "<=", t41),
    }


def verdicts(cert: ContractionCertificate, alpha: float, gamma: float | None = None) -> dict:
    """The boolean verdict block at alpha: thm21_feasible (alpha*q*s < 1),
    thm33 (max(alpha*c*s, alpha*q*s) < 1), thm41 (alpha41_min <= 1/(s + s^2))
    and lemma41 (single-step decay s*gamma < 1, None unless a run's gamma is
    given). Any alpha is accepted, alpha_min >= 1 included."""
    return {name: None if cond is None else cond.holds for name, cond in side_conditions(cert, alpha, gamma).items()}


def check_hypotheses(cert: ContractionCertificate, alpha: float) -> dict:
    """Per-theorem applicability at a caller-supplied alpha.

    The three four-term theorems share the contraction condition
    h <= alpha*N (which the certificate established for alpha >= alpha_min,
    see `certifies`) and differ in the side condition: alpha*q*s < 1 plus
    map continuity, alpha*q*s < 1 plus *-continuity of the distance, or
    max(alpha*c*s, alpha*q*s) < 1 with no continuity assumption. The
    five-term route instead needs alpha41_min <= 1/(s + s^2). s, c and q
    are the certificate's.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0,1), got {alpha}")
    contraction_holds = certifies(cert, alpha)
    conditions = side_conditions(cert, alpha)

    def _verdict(name, needs_contraction=True, assumption=None):
        cond = conditions[name]
        out = {
            "applicable": bool(cond.holds and (contraction_holds or not needs_contraction)),
            "condition": cond.condition,
            "value": cond.value,
            "threshold": cond.threshold,
        }
        if assumption is not None:
            out["assumption"] = assumption
        return out

    return {
        "contraction_holds": contraction_holds,
        "alpha": alpha,
        "alpha_min": cert.alpha_min,
        "alpha41_min": cert.alpha41_min,
        "thm31": _verdict("thm21_feasible", assumption=cert.assumptions["map_continuity"]),
        "thm32": _verdict("thm21_feasible", assumption=cert.assumptions["dist_star_continuity"]),
        "thm33": _verdict("thm33"),
        # five-term feasibility does not depend on the supplied alpha
        "thm41": _verdict("thm41", needs_contraction=False),
    }
