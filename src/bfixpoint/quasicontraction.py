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
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import mul

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
    if not space.is_finite:
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
    """All unordered pairs of `points` in index order: the pairs certify walks (both ratios are symmetric)."""
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


def _block_ratios(space, ext, width, feeds, dxt, xi, yi, c, q) -> tuple:
    """Both ratio arrays for the pairs (ext[xi[b]][0], ext[yi[b]][0]), or
    None when a pair needs _pair_ratios (not distinct, a non-finite term).

    ext[u] is the sample point u followed by its image, width[u] its length
    and dxt[u] = d(u, T(u)). space.dists takes each pair's table of
    distances from ext[x] to ext[y], fed in C: each element of ext[x]
    width[y] times against ext[y] width[x] times (`feeds` holds both per
    point when all widths are equal). Row 0 holds d(x,y) and d(x,T(y)),
    column 0 d(y,T(x)), the rest the distances of h. The gather pads ragged
    tables by repeating the last image element, which changes no min or
    max. fmin/fmax skip NaN as the `<`/`>` loops do, from the same inf / 0."""
    xl, yl = xi.tolist(), yi.tolist()
    w = int(width.max())
    if feeds is not None:
        xs, ys = chain.from_iterable(map(feeds[0].__getitem__, xl)), chain.from_iterable(map(feeds[1].__getitem__, yl))
        m = space.dists(xs, ys).reshape(len(xl), w, w)
    else:
        rows, cols = width[xi], width[yi]
        heads = chain.from_iterable(map(ext.__getitem__, xl))
        xs = chain.from_iterable(map(repeat, heads, np.repeat(cols, rows).tolist()))
        vals = space.dists(xs, chain.from_iterable(map(mul, map(ext.__getitem__, yl), rows.tolist())))
        row_of, col_of = (np.minimum(np.arange(w), r[:, None] - 1) for r in (rows, cols))
        start = np.cumsum(rows * cols) - rows * cols
        m = vals[start[:, None, None] + row_of[:, :, None] * cols[:, None, None] + col_of[:, None, :]]

    fmin, fmax, inf = np.fmin.reduce, np.fmax.reduce, np.inf
    d_xy = m[:, 0, 0]
    d_x_ty = fmin(m[:, 0, 1:], axis=1, initial=inf)
    d_y_tx = fmin(m[:, 1:, 0], axis=1, initial=inf)
    img = m[:, 1:, 1:]
    h = np.fmax(fmax(fmin(img, axis=2, initial=inf), axis=1, initial=0.0),
                fmax(fmin(img, axis=1, initial=inf), axis=1, initial=0.0))
    d_x_tx, d_y_ty = dxt[xi], dxt[yi]
    # the terms in the order of _n_from_parts and five_term_max; a NaN d_xy
    # (which Python's max would keep) fails the d_xy > 0 test instead
    n4 = fmax([d_xy, c * d_x_tx, c * d_y_ty, 0.5 * q * (d_x_ty + d_y_tx)], axis=0)
    n5 = fmax([d_xy, d_x_tx, d_y_ty, d_x_ty, d_y_tx], axis=0)
    ratio, ratio41 = h / n4, h / n5
    if not ((d_xy > 0.0) & np.isfinite(n4) & np.isfinite(n5) & np.isfinite(ratio) & np.isfinite(ratio41)).all():
        return None
    return ratio, ratio41


def _ratio_blocks(space, tmap, c, q, points):
    """Yield (xi, yi, ratio, ratio41) for consecutive blocks of the pairs
    (points[xi[b]], points[yi[b]]), in combinations order.

    T(x) and d(x, T(x)) are computed once for each sample point. Any failure
    is left to _reference_ratios, which raises the error of the first
    failing pair: from the first pair when a point's own terms fail, or from
    the start of the block that failed."""
    n, total = len(points), len(points) * (len(points) - 1) // 2
    try:
        images = [image_of(space, tmap, x) for x in points]
        dxt = np.array([dist_point_set(space, x, t).value for x, t in zip(points, images)])
    except _PAIR_ERRORS:
        yield (*_pair_indices(n, 0, total), *_reference_ratios(space, tmap, c, q, combinations(points, 2)))
        return
    ext = [(x, *t.elements) for x, t in zip(points, images)]
    width = np.array([len(e) for e in ext])
    w = int(width.max())
    feeds = ([tuple(a for a in e for _ in e) for e in ext], [e * w for e in ext]) if (width == w).all() else None
    step = max(1, _BLOCK_DISTANCES // w**2)
    for lo in range(0, total, step):
        xi, yi = _pair_indices(n, lo, min(lo + step, total))
        try:
            with np.errstate(all="ignore"):
                got = _block_ratios(space, ext, width, feeds, dxt, xi, yi, c, q)
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
    finite = space.is_finite
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


def _conditions(cert: ContractionCertificate, alpha: float, gamma: float | None) -> dict:
    """Each theorem's side condition at alpha, as name -> (condition, value,
    threshold, holds); lemma41 is None without a run's gamma. Every verdict
    is read from here."""
    s = cert.s
    aqs = alpha * cert.q * s
    a33 = max(alpha * cert.c * s, aqs)
    t41 = 1.0 / (s + s * s)
    return {
        "thm21_feasible": ("alpha*q*s < 1", aqs, 1.0, aqs < 1.0),
        "thm33": ("max(alpha*c*s, alpha*q*s) < 1", a33, 1.0, a33 < 1.0),
        "lemma41": None if gamma is None else ("s*gamma < 1", s * gamma, 1.0, s * gamma < 1.0),
        "thm41": ("alpha41_min <= 1/(s + s^2)", cert.alpha41_min, t41, cert.alpha41_min <= t41),
    }


def verdicts(cert: ContractionCertificate, alpha: float, gamma: float | None = None) -> dict:
    """The boolean verdict block at alpha: thm21_feasible (alpha*q*s < 1),
    thm33 (max(alpha*c*s, alpha*q*s) < 1), thm41 (alpha41_min <= 1/(s + s^2))
    and lemma41 (single-step decay s*gamma < 1, None unless a run's gamma is
    given). Any alpha is accepted, alpha_min >= 1 included."""
    return {name: None if cond is None else cond[3] for name, cond in _conditions(cert, alpha, gamma).items()}


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
    conditions = _conditions(cert, alpha, None)

    def _verdict(name, needs_contraction=True, assumption=None):
        condition, value, threshold, holds = conditions[name]
        out = {
            "applicable": bool(holds and (contraction_holds or not needs_contraction)),
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
        "thm31": _verdict("thm21_feasible", assumption=cert.assumptions["map_continuity"]),
        "thm32": _verdict("thm21_feasible", assumption=cert.assumptions["dist_star_continuity"]),
        "thm33": _verdict("thm33"),
        # five-term feasibility does not depend on the supplied alpha
        "thm41": _verdict("thm41", needs_contraction=False),
    }
