"""Orbit construction, geometric-decay certificates, fixed-point checks.

An orbit picks x_{n+1} inside T(x_n), always taking the closest image
element. Under a certified contraction the step distances obey
d_n <= gamma*d_{n-1} with

    gamma = max(beta, q*s*beta / (2 - q*s*beta)),  beta in (alpha, min(1, 1/(q*s))),

and any sequence with that decay is Cauchy even when s*gamma >= 1: the
computable tail bound is

    d(x_{m+1}, x_{m+k}) <= gamma**m * d(x_0,x_1) * S / (1 - gamma),

where S sums the doubly-exponentially decaying terms s**(2n) * gamma**(2**(n-1)).
A dyadic chaining bound d(x_0,x_k) <= s**ceil(log2 k) * sum(d_i) covers
arbitrary finite stretches of any sequence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
from sys import float_info
from typing import NamedTuple

import numpy as np

from .bspace import BMetricSpace, Point
from .quasicontraction import SetValuedMap, _check_coefficients, _n_from_parts, image_of
from .setops import PointSet, SetDistance, dist_point_set


class RatioViolation(RuntimeError):
    """Raised when a selected step breaks the certified contraction bound."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class OrbitTrace:
    points: tuple
    steps: tuple  # steps[n] = d(points[n], points[n+1])
    beta: float
    gamma: float
    status: str  # "converged" | "max_iter" | "ratio_violation"
    fixed_point: Point | None
    residual: float  # d(u, T(u)) at the final point
    violation_step: int | None = None


@dataclass(frozen=True)
class CauchyCertificate:
    gamma: float
    s: float
    series_sum: float
    first_step: float | None  # d(x_0, x_1); required by cauchy_bound
    terms_used: int


class FixedPointCheck(NamedTuple):
    residual: float
    ok: bool


def beta_limit(q: float, s: float) -> float:
    """Upper end of the admissible beta interval: min(1, 1/(q*s)), 1 when q*s = 0."""
    return 1.0 if q * s == 0.0 else min(1.0, 1.0 / (q * s))


def gamma_of(beta: float, q: float, s: float) -> float:
    """Per-step decay ratio max(beta, q*s*beta/(2 - q*s*beta)); always < 1.

    beta must lie in (0, min(1, 1/(q*s))) (just (0,1) when q = 0), which
    makes the second branch well-defined and keeps the max below 1.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    if not s >= 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    hi = beta_limit(q, s)
    if not 0.0 < beta < hi:
        raise ValueError(f"beta must lie in (0, {hi}), got {beta}")
    if q == 0.0:
        return beta
    return max(beta, q * s * beta / (2.0 - q * s * beta))


def _select(
    space: BMetricSpace,
    c: float,
    q: float,
    beta: float,
    x_prev: Point,
    x_cur: Point,
    d_prev: float,
    t_prev: PointSet,
    r_prev: float,
    t_cur: PointSet,
    near: SetDistance,
) -> Point:
    """select_next from the terms a caller already holds: d_prev = d(x_prev, x_cur),
    t_prev = T(x_prev), r_prev = d(x_prev, T(x_prev)), t_cur = T(x_cur) and
    near = dist_point_set(x_cur, T(x_cur))."""
    d, idx = near
    if d > 0.0:
        bound = beta * _n_from_parts(space, c, q, x_prev, x_cur, d_prev, t_prev, t_cur, r_prev, d)
        if not d < bound:
            raise RatioViolation(
                f"step {d} not below beta*N = {bound} at ({x_prev!r} -> {x_cur!r})"
            )
    return t_cur.elements[idx]


def select_next(
    space: BMetricSpace,
    tmap: SetValuedMap,
    x_prev: Point,
    x_cur: Point,
    beta: float,
    c: float,
    q: float,
) -> Point:
    """The element of T(x_cur) closest to x_cur (smallest index on ties).

    Enforces the selection inequality d(x_cur, next) < beta * N(x_prev, x_cur)
    unless the step is zero; a violation means the contraction hypothesis
    fails at this pair and raises RatioViolation.
    """
    _check_coefficients(c, q)
    t_prev = image_of(space, tmap, x_prev)
    t_cur = image_of(space, tmap, x_cur)
    return _select(
        space, c, q, beta, x_prev, x_cur,
        space.dist(x_prev, x_cur), t_prev, dist_point_set(space, x_prev, t_prev).value,
        t_cur, dist_point_set(space, x_cur, t_cur),
    )


def run_orbit(
    space: BMetricSpace,
    tmap: SetValuedMap,
    c: float,
    q: float,
    alpha: float,
    x0: Point,
    x1: Point | None = None,
    beta: float | None = None,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> OrbitTrace:
    """Iterate x_{n+1} in T(x_n) until the residual d(x_n, T(x_n)) drops to tol.

    Requires alpha in [0,1) with alpha*q*s < 1. beta defaults to the midpoint
    of the admissible interval (alpha, min(1, 1/(q*s))); x1 defaults to the
    closest element of T(x0). Every step is checked against the certified
    decay d_n <= gamma*d_{n-1} (slack 1e-12 relative); a failed check ends
    the trace with status "ratio_violation" and the offending step index.

    Stopping is by residual, not step size: a small step does not certify a
    fixed point, the residual is exactly what the fixed-point theorems bound.

    Each point's image and residual are computed once and carried into the
    next step as T(x_prev) and d(x_prev, T(x_prev)), so a step costs one
    image evaluation; d(x_prev, x_cur) is the previous step distance.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0,1), got {alpha}")
    _check_coefficients(c, q)
    s = space.s
    if not alpha * q * s < 1.0:
        raise ValueError(f"need alpha*q*s < 1, got {alpha * q * s}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    hi = beta_limit(q, s)
    if beta is None:
        beta = 0.5 * (alpha + hi)  # midpoint of the admissible interval
    elif not alpha < beta < hi:
        raise ValueError(f"beta must lie in ({alpha}, {hi}), got {beta}")
    gamma = gamma_of(beta, q, s)

    space.check_point(x0)
    t_prev = image_of(space, tmap, x0)
    r_prev, idx = dist_point_set(space, x0, t_prev)
    if r_prev <= tol:
        return OrbitTrace((x0,), (), beta, gamma, "converged", x0, r_prev)

    if x1 is None:
        x1 = t_prev.elements[idx]
    else:
        x1 = tuple(x1) if isinstance(x1, (list, tuple)) else x1
        space.check_point(x1)
        if all(space.dist(x1, w) != 0.0 for w in t_prev.elements):
            raise ValueError(f"x1 {x1!r} is not an element of T(x0)")

    points = [x0, x1]
    steps = [space.dist(x0, x1)]

    while True:
        x_prev, x_cur = points[-2], points[-1]
        t_cur = image_of(space, tmap, x_cur)
        near = dist_point_set(space, x_cur, t_cur)
        residual = near.value
        if residual <= tol:
            return OrbitTrace(
                tuple(points), tuple(steps), beta, gamma, "converged", x_cur, residual
            )
        if len(steps) >= max_iter:
            return OrbitTrace(
                tuple(points), tuple(steps), beta, gamma, "max_iter", None, residual
            )

        # the attained min is the next step distance; residual > tol > 0 here
        d_prev = steps[-1]
        try:
            if residual > gamma * d_prev + 1e-12 * d_prev:
                raise RatioViolation(
                    f"step {residual} above gamma*previous = {gamma * d_prev}"
                )
            nxt = _select(space, c, q, beta, x_prev, x_cur, d_prev, t_prev, r_prev, t_cur, near)
        except RatioViolation:
            return OrbitTrace(
                tuple(points),
                tuple(steps),
                beta,
                gamma,
                "ratio_violation",
                None,
                residual,
                violation_step=len(steps),
            )
        points.append(nxt)
        steps.append(residual)
        t_prev, r_prev = t_cur, residual


def chaining_bound(steps, s: float) -> float:
    """Dyadic upper bound on d(x_0, x_k) from the k step distances:
    s**ceil(log2 k) * sum(steps), the tightest admissible exponent."""
    steps = list(steps)
    k = len(steps)
    if k == 0:
        raise ValueError("steps must be nonempty")
    if not s >= 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    if any(d < 0 for d in steps):
        raise ValueError("step distances must be non-negative")
    return (s ** (k - 1).bit_length()) * math.fsum(steps)


def _grow_expansion(partials: list, x: float) -> bool:
    """Add x to the Shewchuk expansion `partials` (non-overlapping floats whose
    exact sum is the running total). False if x is not finite or a sum
    overflowed, after which the expansion no longer holds the total (a
    non-finite sum stays non-finite through the rest of the pass, so
    checking the final one is enough)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]
    return math.isfinite(x)


def chaining_bounds(steps, s: float):
    """Yield chaining_bound(steps[:k], s) for k = 1, 2, ..., len(steps).

    The prefix is kept as an exact Shewchuk expansion, so math.fsum of it is
    the correctly rounded prefix sum, bit for bit what math.fsum(steps[:k])
    gives, and the whole sequence costs O(len(steps)) instead of O(len**2).
    Each step is validated when its prefix is reached, so the errors are
    those chaining_bound raises for that prefix.
    """
    partials: list[float] = []
    exact = True  # False once a step is non-finite or the sum overflows; then fsum(steps[:k])
    for k, d in enumerate(steps, 1):
        if k == 1 and not s >= 1.0:
            raise ValueError(f"s must be >= 1, got {s}")
        if d < 0:
            raise ValueError("step distances must be non-negative")
        exact = exact and _grow_expansion(partials, d)
        total = math.fsum(partials) if exact else math.fsum(steps[:k])
        yield (s ** (k - 1).bit_length()) * total


def cauchy_series(gamma: float, s: float, first_step: float | None = None) -> CauchyCertificate:
    """Sum of s**(2n) * gamma**(2**(n-1)) for n >= 1.

    Terms decay doubly exponentially once the gamma factor takes over, so
    summation stops at relative 1e-16 or after 64 terms, far beyond what
    64-bit floats can distinguish.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0,1), got {gamma}")
    if not s >= 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    if first_step is not None and not first_step >= 0.0:
        raise ValueError(f"first_step must be non-negative, got {first_step}")
    total = 0.0
    terms = 0
    for n in range(1, 65):
        t = (s ** (2 * n)) * (gamma ** (2 ** (n - 1)))
        if terms >= 1 and (t == 0.0 or t < 1e-16 * total):
            break
        total += t
        terms += 1
    return CauchyCertificate(gamma, s, total, first_step, terms)


def cauchy_bound(m: int, cert: CauchyCertificate) -> float:
    """Tail bound gamma**m * first_step * series_sum / (1 - gamma) on
    d(x_{m+1}, x_{m+k}) for every k; monotone non-increasing in m.

    The power is accumulated multiplicatively so consecutive bounds satisfy
    bound(m+1) = gamma * bound(m) exactly (and underflow cleanly to 0).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if cert.first_step is None:
        raise ValueError("certificate has no first_step; rebuild with cauchy_series(gamma, s, d01)")
    b = cert.first_step * cert.series_sum / (1.0 - cert.gamma)
    for _ in range(m):
        if b == 0.0:
            break
        b *= cert.gamma
    return b


def _row_maxima(space: BMetricSpace, pts) -> np.ndarray:
    """For each Cauchy row m = 0 .. len(pts)-2, the exact maximum of
    d(pts[m+1], pts[j]) over j >= m+1, or NaN where the row has to be
    checked in full.

    Screen, then confirm. The pair table is walked in fixed tiles of
    approximate values: squared euclidean distances for power spaces (d is
    increasing in them) and the exact entries for matrix spaces. A row's
    candidates are the entries within relative `rel` of its largest value,
    and their exact distances come from one space.dists call per block of
    rows. Squared distances and d = math.dist(x, y)**p differ by a few ulps
    of relative error, and a candidate window of 1e-9 (1e-9/p for p < 1,
    where d**p flattens differences) exceeds what that error can reorder,
    so the true maximum is always a candidate. That error bound holds for
    normal floats, so a row is screened only if its largest value is a
    normal float and its exact maximum is too (rounding to a subnormal
    result may reorder near ties); values below the normal range elsewhere
    in the row are too small to lead. Other rows (the last one, whose only
    value is d(x_i, x_i) = 0, underflowing or overflowing distances,
    non-finite coordinates) are left to the full check.
    """
    n = len(pts)
    rows, cols = 32, 256  # tile shape; the two float64 tiles take 128 KiB
    tiny, huge = float_info.min, float_info.max
    if space.kind == "matrix":
        ids = np.asarray(pts, dtype=np.intp)
        rel = 0.0

        def tile(r0, r1, c0, c1):
            return space.matrix[ids[r0:r1, None], ids[c0:c1]]

    else:
        coords = np.array([[x[k] for x in pts] for k in range(space.dim)], dtype=float)
        sq, tmp = np.empty((rows, cols)), np.empty((rows, cols))
        rel = 1e-9 * max(1.0, 1.0 / space.p)

        def tile(r0, r1, c0, c1):
            out = sq[: r1 - r0, : c1 - c0]
            t = tmp[: r1 - r0, : c1 - c0]
            for k, xs in enumerate(coords):
                dst = t if k else out
                np.subtract(xs[c0:c1], xs[r0:r1, None], out=dst)
                np.multiply(dst, dst, out=dst)
                if k:
                    np.add(out, t, out=out)
            return out

    before_row = np.arange(cols) < np.arange(rows)[:, None]  # tile entries j < i

    def row_tile(r0, r1, c0):
        """Rows x_i, i in [r0, r1), against x_j, j from c0; -inf where j < i."""
        v = tile(r0, r1, c0, min(c0 + cols, n))
        if c0 == r0:  # the tile holding the diagonal j = i
            v[before_row[: r1 - r0, : v.shape[1]]] = -np.inf
        return v

    maxima = np.full(n - 1, np.nan)
    with np.errstate(all="ignore"):
        for r0 in range(1, n, rows):  # tile rows are the points x_i = x_{m+1}
            r1 = min(r0 + rows, n)
            tops = [row_tile(r0, r1, c0).max(axis=1) for c0 in range(r0, n, cols)]
            top = np.max(tops, axis=0)
            ok = (top >= tiny) & (top <= huge)
            thr = top * (1.0 - rel)
            hits = []
            for c0, tile_top in zip(range(r0, n, cols), tops):
                need = ok & (tile_top >= thr)
                if need.any():  # the tile holds a candidate: recompute it
                    b, c = np.nonzero((row_tile(r0, r1, c0) >= thr[:, None]) & need[:, None])
                    hits.append((b, c + c0))
            if hits:
                b, c = (np.concatenate(ix).tolist() for ix in zip(*hits))
                best = np.full(r1 - r0, -np.inf)
                np.fmax.at(best, b, space.dists([pts[r0 + i] for i in b], [pts[j] for j in c]))
                maxima[r0 - 1 : r1 - 1] = np.where(ok & (best >= tiny), best, np.nan)
    return maxima


def _worst_ratio(actual: np.ndarray, bound) -> tuple[float, int]:
    """The largest actual/bound and the violation count over exact
    distances and their bounds (one bound, or one per distance): a zero
    distance passes, a nonzero one over a zero bound is a violation, and a
    NaN ratio is ignored, as max(worst, nan) ignores it."""
    actual, bound = np.broadcast_arrays(actual, bound)
    live, zero = actual != 0.0, bound == 0.0
    with np.errstate(all="ignore"):
        ratios = actual[live & ~zero] / bound[live & ~zero]
    return float(np.fmax.reduce(ratios, initial=0.0)), int(np.count_nonzero(live & zero))


def bound_audit(space: BMetricSpace, trace: OrbitTrace) -> dict:
    """Worst actual/bound ratios over the whole trace.

    Cauchy: d(x_{m+1}, x_{m+k}) against the tail bound at m for every m, k.
    Chaining: d(x_0, x_k) against the dyadic bound for every prefix k.

    Every check is made and counted, and every reported number is exact:
    distances come from space.dists and bounds from exact arithmetic. The
    largest ratio in a Cauchy row is the row's largest distance over its one
    bound, since rounded division by a positive number is monotone, so each
    row needs only its farthest point. A numpy screen picks the candidates
    for it and space.dists confirms them (see _row_maxima); rows the screen
    cannot vouch for, and rows whose bound has underflowed to 0, are checked
    in full, so the violation count and any error raised are those of the
    full pairwise scan. (The distances d(x_0, x_k) are taken before the
    chaining bounds, which raise only for a negative step.) Chaining bounds
    come from a running exact prefix sum (chaining_bounds). On an orbit of
    L points this takes O(L) exact distance evaluations; the O(L**2) screen
    runs in numpy in fixed-size buffers.
    """
    pts = trace.points
    steps = trace.steps
    n = len(pts)  # a trace without steps has one point and no checks
    cauchy = chaining = 0.0
    violations = 0
    if steps:
        cert = cauchy_series(trace.gamma, space.s, first_step=steps[0])
        # row m's bound; bound(m+1) = gamma*bound(m), as cauchy_bound accumulates it
        first = cauchy_bound(0, cert)
        bounds = np.fromiter(accumulate(repeat(cert.gamma, n - 2), operator.mul, initial=first), float)
        tops = _row_maxima(space, pts)
        vouched = ~np.isnan(tops) & (bounds != 0.0)
        cauchy, violations = _worst_ratio(tops[vouched], bounds[vouched])
        for m in np.flatnonzero(~vouched).tolist():
            row = _worst_ratio(space.dists([pts[m + 1]] * (n - 1 - m), pts[m + 1 :]), bounds[m])
            cauchy, violations = max(cauchy, row[0]), violations + row[1]
        chaining, chain_violations = _worst_ratio(
            space.dists([pts[0]] * (n - 1), pts[1:]), np.fromiter(chaining_bounds(steps, space.s), float)
        )
        violations += chain_violations

    slack = 1.0 + 1e-9
    return {
        "cauchy_ratio_max": cauchy,
        "chaining_ratio_max": chaining,
        "cauchy_checks": n * (n - 1) // 2,
        "chaining_checks": n - 1,
        "violations": violations,
        "ok": violations == 0 and cauchy <= slack and chaining <= slack,
    }


def verify_fixed_point(space: BMetricSpace, tmap: SetValuedMap, u: Point, tol: float) -> FixedPointCheck:
    """Residual d(u, T(u)) and whether it clears tol."""
    space.check_point(u)
    residual = dist_point_set(space, u, image_of(space, tmap, u)).value
    return FixedPointCheck(residual, residual <= tol)
