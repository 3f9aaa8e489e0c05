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
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from typing import NamedTuple

import numpy as np

from .bspace import BMetricSpace, Point, _ScreenRule
from .setops import PointSet, dist_point_set, make_point_set


@dataclass(frozen=True)
class SetValuedMap:
    """A set-valued map T, by table or by affine branches.

    evaluate(x) is the tuple of T(x)'s elements before deduplication, built
    once per map. For a table map it is the image tuple table[x].elements.
    For a branch map it is the outputs A_i x + b_i in branch order, coordinate
    r rounded as 0.0 + A[r][0]*x[0] + ... + A[r][k-1]*x[k-1] + b[r], left to
    right: the order sum(map(mul, A[r], x)) + b[r] rounds in before Python
    3.12, whose sum() compensates. It is straight-line code generated per
    shape (_branch_evaluator). Neither checks x, which image_of does
    (space.check_point).
    """

    kind: str  # "table" | "branches"
    table: dict | None = None  # point id -> PointSet
    branches: tuple | None = None  # ((A, b), ...) affine maps x -> A@x + b
    evaluate: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "table":
            evaluate = {u: t.elements for u, t in self.table.items()}.__getitem__
        else:
            coeffs = tuple(v for a, b in self.branches for row, b_r in zip(a, b) for v in (*row, b_r))
            evaluate = _branch_evaluator(len(self.branches[0][1]), len(self.branches))(coeffs)
        object.__setattr__(self, "evaluate", evaluate)


@lru_cache(maxsize=64)
def _branch_evaluator(dim: int, count: int) -> Callable:
    """A factory make(c) of the evaluate function of any branch map with
    `count` branches in `dim` dimensions, c its coefficients flattened
    branch by branch and row by row, A[r][0], ..., A[r][dim-1], b[r].

    The generated source holds only index arithmetic c[k] * x[j], so no
    number is printed and re-parsed, and it depends only on the shape,
    which is why factories are cached by shape: a map costs one call of
    its factory. Compiling one costs time and memory in proportion to its
    count * dim * (dim + 1) terms, and a row of a few thousand terms nests
    deeper than the compiler allows (RecursionError), so make_branch_map
    takes at most MAX_BRANCH_TERMS terms (a row then has at most 56)."""
    outputs = []
    for out in range(count * dim):
        base = out * (dim + 1)
        outputs.append("0.0 + " + "".join(f"c[{base + j}] * x[{j}] + " for j in range(dim)) + f"c[{base + dim}], ")
    images = "".join("(" + "".join(outputs[i * dim : (i + 1) * dim]) + "), " for i in range(count))
    source = f"def make(c):\n    def evaluate(x):\n        return ({images})\n    return evaluate\n"
    namespace = {}
    exec(source, namespace)
    return namespace["make"]


class QuasiParams(NamedTuple):
    """A scenario's coefficients c, q in [0, 1], its alpha in [0, 1) and
    optional beta; Scenario checks them when it is built."""

    c: float
    q: float
    alpha: float
    beta: float | None = None


class ContractionCertificate(NamedTuple):
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
    """Explicit finite map: every domain id must get a nonempty image set
    (make_point_set); a key that check_point rejects is outside the domain."""
    if space.kind != "matrix":
        raise ValueError("table maps need a finite (matrix) space")
    n = space.n_points
    table = {}
    for i in range(n):
        if i not in images:
            raise ValueError(f"missing image for point {i}")
        table[i] = make_point_set(space, images[i])
    for k in images:
        try:
            space.check_point(k)
        except ValueError:
            raise ValueError(f"image given for point {k!r} outside the domain [0, {n})") from None
    return SetValuedMap(kind="table", table=table)


# The most terms, count * dim * (dim + 1), of a branch map's evaluator
# (_branch_evaluator). On CPython 3.11, three branches at dim 32 compiled in 31 ms
# with an 8.1 MiB peak, 3000 at dim 2 (18,000 terms) in 193 ms with 51 MiB.
MAX_BRANCH_TERMS = 3 * 32 * 33


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
    if (terms := len(normd) * k * (k + 1)) > MAX_BRANCH_TERMS:
        raise ValueError(f"branch map has {terms} evaluator terms, over the limit MAX_BRANCH_TERMS = {MAX_BRANCH_TERMS}")
    return SetValuedMap(kind="branches", branches=tuple(normd))


def _check_map(space: BMetricSpace, tmap: SetValuedMap) -> None:
    """ValueError, naming both, for a map built for another space. A table
    map and a matrix space are told by their points, a branch map and a
    power space by their dimension, so a misfit differs in kind or size."""
    table, matrix = tmap.kind == "table", space.kind == "matrix"
    size = len(tmap.table) if table else len(tmap.branches[0][1])
    own = space.n_points if matrix else space.dim
    if table != matrix or size != own:
        fit = f"table map of {size} points" if table else f"branch map of dimension {size}"
        own = f"{own} points" if matrix else f"dimension {own}"
        raise ValueError(f"a {fit} does not fit the {space.kind} space of {own}")


def image_of(space: BMetricSpace, tmap: SetValuedMap, x: Point) -> PointSet:
    """T(x): tmap.evaluate(x), equal outputs deduplicated (the first is kept)
    so the bits do not depend on the Python version. ValueError for a map of
    another space (_check_map), then for a point space.check_point rejects."""
    _check_map(space, tmap)
    space.check_point(x)
    return PointSet(tuple(dict.fromkeys(tmap.evaluate(x))))


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
    return [u for u in range(space.n_points) if u in image_of(space, tmap, u).elements]


# Pairs are reduced in blocks of at most this many distances (screened or
# not), so the buffers stay small however many pairs there are.
_BLOCK_DISTANCES = 1 << 13


def _pair_indices(n: int, lo: int, hi: int) -> tuple:
    """(i, j) index arrays of the pairs lo .. hi-1 in combinations(range(n), 2)
    order: row i holds the pairs (i, j > i), and pair ends[i] is the first after it."""
    k = np.arange(lo, hi)
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    i = np.searchsorted(ends, k, side="right")
    return i, k - ends[i] + n


def _screen(rule: _ScreenRule, v: np.ndarray) -> tuple:
    """(keep, (lead_rows, lead_cols)) for a block of proxies v (axes T(x),
    T(y), pairs): the entries that can decide a term, and the rows T(x) and
    columns T(y) of h whose minimum can be the largest (a non-leading row
    may read more than its minimum from the kept entries). A pair whose
    smallest or largest proxy the rule does not trust keeps all of them."""
    lo, hi = 1.0 + rule.rel, 1.0 - rule.rel
    keep = np.empty(v.shape, dtype=bool)
    keep[0, 0] = True
    keep[0, 1:] = v[0, 1:] <= v[0, 1:].min(axis=0) * lo
    keep[1:, 0] = v[1:, 0] <= v[1:, 0].min(axis=0) * lo
    img = v[1:, 1:]
    rmin, cmin = img.min(axis=1), img.min(axis=0)
    lead_rows, lead_cols = rmin >= rmin.max(axis=0) * hi, cmin >= cmin.max(axis=0) * hi
    keep[1:, 1:] = (lead_rows[:, None] & (img <= rmin[:, None] * lo)) | (lead_cols[None] & (img <= cmin[None] * lo))
    full = ~rule.trusted(v.min(axis=(0, 1)), v.max(axis=(0, 1)))
    return keep | full, (lead_rows | full, lead_cols | full)


def _block_terms(space, table, rule, rows, dxt, xi, yi, c, q) -> tuple:
    """(d(x, y), h(T(x), T(y)), N(x, y), five_term_max(x, y)) as arrays over
    the pairs (x, y) = (points[xi[b]], points[yi[b]]).

    table holds each sample point u followed by its image T(u) (a
    BMetricSpace.point_table), and dxt[u] = d(u, T(u)). Column u of rows
    holds the table indices of u and T(u), padded to the widest image by
    repeating the last element. One dists call evaluates m[a, e, b], the
    distances from x, T(x) to y, T(y) of pair b (given the table's rule,
    only those _screen keeps; the rest read inf); a padded entry repeats a
    distance, which changes no min or max. Row 0 holds d(x,y) and
    d(x,T(y)), column 0 d(T(x),y), read exactly as d(y,T(x)) as every
    space is symmetric, the rest the distances of h. fmin/fmax skip NaN as
    the `<`/`>` loops do, from the same inf / 0."""
    ix, iy = rows.take(xi, axis=1), rows.take(yi, axis=1)  # C-contiguous, unlike rows[:, xi]
    shape = (len(ix), len(ix), len(xi))
    gx, gy = np.broadcast_to(ix[:, None], shape), np.broadcast_to(iy[None], shape)
    if rule is None:
        lead = (True, True)
        m = space.dists(table[gx.ravel()], table[gy.ravel()]).reshape(shape)
    else:
        keep, lead = _screen(rule, rule.proxy(ix[:, None], iy[None]))
        m = np.full(shape, np.inf)
        m[keep] = space.dists(table[gx[keep]], table[gy[keep]])
    fmin, fmax, inf = np.fmin, np.fmax, np.inf
    d_xy = m[0, 0]
    d_x_ty = fmin.reduce(m[0, 1:], axis=0, initial=inf)
    d_y_tx = fmin.reduce(m[1:, 0], axis=0, initial=inf)
    img = m[1:, 1:]
    h = fmax(fmax.reduce(np.where(lead[0], fmin.reduce(img, axis=1, initial=inf), np.nan), axis=0, initial=0.0),
             fmax.reduce(np.where(lead[1], fmin.reduce(img, axis=0, initial=inf), np.nan), axis=0, initial=0.0))
    d_x_tx, d_y_ty = dxt[xi], dxt[yi]
    # the terms in the order of _n_from_parts and five_term_max
    n4 = reduce(fmax, [c * d_x_tx, c * d_y_ty, 0.5 * q * (d_x_ty + d_y_tx)], d_xy)
    n5 = reduce(fmax, [d_x_tx, d_y_ty, d_x_ty, d_y_tx], d_xy)
    return d_xy, h, n4, n5


def _term_blocks(space, tmap, c, q, points):
    """Yield (xi, yi, d_xy, h, n4, n5) for consecutive blocks of the pairs
    (points[xi[b]], points[yi[b]]), in combinations order (_block_terms).

    T(x) is computed once for each sample point, and the points and their
    images go into one point table. Every d(x, T(x)) comes from one dists
    call over the sum of the image sizes, a NaN read as inf, as
    dist_point_set's strict < from inf reads it. Blocks are screened off the
    p = 1 line (whose entries cost no power) in power spaces with some image
    of two elements. A distance beyond the float range reads inf (dists), so
    only image_of raises here; the caller scopes the floating-point warnings."""
    n, total = len(points), len(points) * (len(points) - 1) // 2
    images = [image_of(space, tmap, x) for x in points]
    table = space.point_table(chain.from_iterable((x, *t.elements) for x, t in zip(points, images)))
    width = np.array([1 + len(t.elements) for t in images])
    starts = np.cumsum(width) - width
    own = space.dists(table[np.repeat(starts, width - 1)], table[np.delete(np.arange(len(table)), starts)])
    dxt = np.minimum.reduceat(np.where(np.isnan(own), np.inf, own), starts - np.arange(n))
    w = int(width.max())
    rule = None
    if space.kind == "power" and w >= 3 and (space.dim, space.p) != (1, 1.0):
        rule = _ScreenRule(space, table, _ScreenRule.coordinates(space, table))
    rows = starts + np.minimum(np.arange(w)[:, None], width - 1)
    step = max(1, _BLOCK_DISTANCES // w**2)
    for lo in range(0, total, step):
        xi, yi = _pair_indices(n, lo, min(lo + step, total))
        yield xi, yi, *_block_terms(space, table, rule, rows, dxt, xi, yi, c, q)


def _pair_error(x: Point, y: Point, d_xy: float, h: float, n4: float, n5: float) -> ValueError:
    """The error of a pair that fails certify: not distinct, distinct
    points whose distance underflows to 0, or its distance, a ratio h / N
    or a denominator N is not finite (h / inf = 0 would drop the pair
    silently)."""
    if d_xy == 0.0:
        if x == y:
            return ValueError(f"pair ({x!r}, {y!r}) is not distinct")
        return ValueError(f"pair ({x!r}, {y!r}) has distance 0, though its points are distinct (it underflows)")
    if not math.isfinite(d_xy):
        return ValueError(f"sample pair ({x!r}, {y!r}) has non-finite distance {d_xy}")
    return ValueError(
        f"pair ({x!r}, {y!r}) has non-finite contraction ratios (h / N = {h!r} / {n4!r} four-term, "
        f"{h!r} / {n5!r} five-term): the map cannot be certified"
    )


def certify(
    space: BMetricSpace, tmap: SetValuedMap, points, c: float, q: float, *, _table=None
) -> ContractionCertificate:
    """Smallest feasible contraction coefficients over every pair of a point
    sample, in the order of itertools.combinations(points, 2):

    alpha_min   = max h(T(x),T(y)) / N(x,y)          (four-term condition)
    alpha41_min = max h(T(x),T(y)) / five_term_max    (five-term condition)

    Both ratios are well-defined because distinct pairs give N >= d(x,y) > 0.
    Every sample point is checked first, in order (image_of: ValueError
    names the point). A pair that is not distinct or at distance 0 (an
    underflow), or whose distance, ratio or denominator is not finite
    (images or distances that overflow), makes the certificate
    uncomputable: ValueError names the first such pair, as it does fewer
    than two points. On a finite space sampled at every point the
    certificate is exhaustive; otherwise it only speaks for the sample and
    is labeled empirical. Theorem verdicts come from `verdicts`.

    Cost: one image_of per sample point, one space.dists entry per image
    element for the d(x, T(x)), then at most (1 + w)**2 entries per pair, w
    the widest image (narrower ones are padded), walked by index and
    reduced in numpy block by block: power spaces off the p = 1 line
    evaluate only those a squared-distance screen keeps (_screen). The
    result, worst pairs (the first to attain each maximum) and errors
    included, equals the pair-by-pair loop over hausdorff, n_functional and
    five_term_max.

    The private _table, an n x n float64 array of zeros on n points,
    receives every pair's d(x, y) at [i, j] and [j, i], i and j the pair's
    indices in the sample: the sample's distance table, which verify_axioms
    then reads, with the points checked here, in place of evaluating it.
    """
    points = list(points)
    n = len(points)
    if n < 2:
        raise ValueError(f"certify needs at least two sample points, got {n}")
    _check_coefficients(c, q)

    alpha_min = alpha41_min = 0.0
    worst = worst41 = (points[0], points[1])
    with np.errstate(all="ignore"):
        for xi, yi, d_xy, h, n4, n5 in _term_blocks(space, tmap, c, q, points):
            ratio, ratio41 = h / n4, h / n5
            failed = ~((d_xy > 0.0) & np.isfinite([n4, n5, ratio, ratio41]).all(axis=0))
            if failed.any():
                b = int(failed.argmax())
                raise _pair_error(points[xi[b]], points[yi[b]], *(float(t[b]) for t in (d_xy, h, n4, n5)))
            i, j = int(np.argmax(ratio)), int(np.argmax(ratio41))
            if ratio[i] > alpha_min:
                alpha_min, worst = float(ratio[i]), (points[xi[i]], points[yi[i]])
            if ratio41[j] > alpha41_min:
                alpha41_min, worst41 = float(ratio41[j]), (points[xi[j]], points[yi[j]])
            if _table is not None:
                _table[xi, yi] = _table[yi, xi] = d_xy

    # every pair is certified, so on a finite space the points are distinct ids
    finite = space.kind == "matrix"
    continuity = "holds (finite space)" if finite else "assumed (not checkable from finite samples)"
    return ContractionCertificate(
        alpha_min=alpha_min, alpha41_min=alpha41_min, worst_pair=worst, worst_pair41=worst41,
        s=space.s, c=c, q=q, coverage="exhaustive" if finite and n == space.n_points else "empirical",
        n_pairs=n * (n - 1) // 2, assumptions={"map_continuity": continuity, "dist_star_continuity": continuity},
    )


_CERTIFY_SLACK = 1e-12  # certifies' relative slack (README, "Rounding allowances")


def certifies(cert: ContractionCertificate, alpha: float) -> bool:
    """Whether alpha is a contraction constant the certificate vouches for:
    alpha >= alpha_min, up to a relative _CERTIFY_SLACK (1e-12) for the
    rounding in alpha_min (the paper example's exact constant 0.81
    certifies as 0.8100000000000009)."""
    return alpha >= cert.alpha_min * (1.0 - _CERTIFY_SLACK)


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
