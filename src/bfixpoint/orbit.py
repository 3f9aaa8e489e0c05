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

import operator
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from math import inf
from sys import float_info
from typing import NamedTuple

import numpy as np

from .bspace import BMetricSpace, Point
from .quasicontraction import SetValuedMap, _check_coefficients, _n_from_parts, image_of
from .setops import PointSet, dist_point_set


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
    decay d_n <= gamma*d_{n-1} (slack 1e-12 relative) and the selection
    inequality d(x_cur, x_next) < beta*N(x_prev, x_cur); a failed check ends
    the trace with status "ratio_violation" and the offending step index.

    Stopping is by residual, not step size: a small step does not certify a
    fixed point, the residual is exactly what the fixed-point theorems bound.

    A step costs one tmap.evaluate call and one scalar space.dist per image
    element: each image is a plain tuple, scanned inline for its closest
    element as dist_point_set scans (strict < from inf, so the first of
    equal elements wins and deduplication changes nothing). The image and
    residual of each point are carried into the next step as T(x_prev) and
    d(x_prev, T(x_prev)), and d(x_prev, x_cur) is the previous step
    distance. N's cross terms d(x_prev, T(x_cur)) and d(x_cur, T(x_prev))
    are computed, on PointSets, only when d >= beta*d_prev: N is a max whose
    first term is d_prev, so N >= d_prev unless that is NaN (which fails the
    screen), and rounded multiplication by beta > 0 is monotone, so
    d < beta*d_prev implies d < beta*N in floats too.
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
    t0 = image_of(space, tmap, x0)
    r_prev, idx = dist_point_set(space, x0, t0)
    if r_prev <= tol:
        return OrbitTrace((x0,), (), beta, gamma, "converged", x0, r_prev)

    if x1 is None:
        x1 = t0.elements[idx]
    else:
        x1 = tuple(x1) if isinstance(x1, (list, tuple)) else x1
        space.check_point(x1)
        if all(space.dist(x1, w) != 0.0 for w in t0.elements):
            raise ValueError(f"x1 {x1!r} is not an element of T(x0)")

    image, dist = tmap.evaluate, space.dist
    points = [x0, x1]
    steps = [space.dist(x0, x1)]
    x_prev, x_cur, t_prev = x0, x1, t0.elements

    while True:
        t_cur = image(x_cur)
        residual, nxt = inf, t_cur[0]
        for y in t_cur:
            d = dist(x_cur, y)
            if d < residual:
                residual, nxt = d, y
        if residual <= tol:
            status = "converged"
            break
        if len(steps) >= max_iter:
            status = "max_iter"
            break

        # the attained min is the next step distance; residual > tol > 0 here.
        # N's cross terms are minima over the images, which repeated
        # branch outputs leave unchanged
        d_prev = steps[-1]
        if residual > gamma * d_prev + 1e-12 * d_prev or not (
            residual < beta * d_prev
            or residual < beta * _n_from_parts(
                space, c, q, x_prev, x_cur, d_prev, PointSet(t_prev), PointSet(t_cur), r_prev, residual
            )
        ):
            status = "ratio_violation"
            break
        points.append(nxt)
        steps.append(residual)
        x_prev, x_cur, t_prev, r_prev = x_cur, nxt, t_cur, residual

    return OrbitTrace(
        tuple(points), tuple(steps), beta, gamma, status, x_cur if status == "converged" else None, residual,
        violation_step=len(steps) if status == "ratio_violation" else None,
    )


def chaining_bound(steps, s: float) -> float:
    """Dyadic upper bound on d(x_0, x_k) from the k step distances:
    s**ceil(log2 k) * sum(steps), the tightest admissible exponent; the
    last value of chaining_bounds."""
    steps = list(steps)
    if not steps:
        raise ValueError("steps must be nonempty")
    *_, last = chaining_bounds(steps, s)
    return last


def chaining_bounds(steps, s: float):
    """Yield s**ceil(log2 k) * sum(steps[:k]) for k = 1, 2, ..., len(steps),
    the sum correctly rounded.

    A finite step is m * 2**(e - 53), m a 53-bit integer and e its np.frexp
    exponent. Shifted to the smallest e (0 if every e is larger), the m add
    up as Python ints to every prefix sum exactly (accumulate of lshift),
    and int true division rounds that correctly; a sum past the float range
    raises OverflowError. From the first non-finite step on, a prefix sums
    to inf, or nan after a nan. One lazy map yields the bounds, each (or
    its error, s**ceil(log2 k) first) at its own prefix; a negative step
    raises ValueError after the bounds before it.
    """
    a = np.asarray(steps, dtype=float)
    if a.size and not s >= 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    negative, special = np.flatnonzero(a < 0), np.flatnonzero(~np.isfinite(a))
    end = int(negative[0]) if negative.size else a.size
    cut = min(end, int(special[0])) if special.size else end  # prefixes from cut on are inf or nan
    mant, expo = np.frexp(a[:cut])
    low = int(expo.min(initial=0))
    sums = accumulate(map(operator.lshift, (mant * 2.0**53).astype(np.int64).tolist(), (expo - low).tolist()))
    tails = np.cumsum(np.where(np.isfinite(a[cut:end]), 0.0, a[cut:end])).tolist()
    powers = map(pow, repeat(s), map(int.bit_length, range(end)))  # s**ceil(log2 k)
    yield from map(operator.mul, powers, chain(map(operator.truediv, sums, repeat(1 << (53 - low))), tails))
    if end < a.size:
        raise ValueError("step distances must be non-negative")


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


def cauchy_bounds(cert: CauchyCertificate, n: int) -> list:
    """The tail bounds gamma**m * first_step * series_sum / (1 - gamma) on
    d(x_{m+1}, x_{m+k}) for m = 0 .. n-1.

    The power is accumulated multiplicatively, so consecutive bounds satisfy
    bound(m+1) = gamma * bound(m) exactly (and underflow cleanly to 0).
    """
    if cert.first_step is None:
        raise ValueError("certificate has no first_step; rebuild with cauchy_series(gamma, s, d01)")
    first = cert.first_step * cert.series_sum / (1.0 - cert.gamma)
    return list(islice(accumulate(repeat(cert.gamma), operator.mul, initial=first), n))


def cauchy_bound(m: int, cert: CauchyCertificate) -> float:
    """Tail bound at m, cauchy_bounds(cert, m + 1)[m] (O(m) time and
    memory): it bounds d(x_{m+1}, x_{m+k}) for every k and is monotone
    non-increasing in m."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return cauchy_bounds(cert, m + 1)[m]


_BLOCK_ENTRIES = 1 << 14  # approximate values per row block of _row_maxima


def _row_maxima(space: BMetricSpace, table: np.ndarray, coords, rows: np.ndarray) -> np.ndarray:
    """For each point index i in rows (ascending), the exact maximum of
    d(x_i, x_j) over j >= i, or NaN where the row has to be checked in
    full; table is space.point_table of the points and coords their
    coordinates, one array per dimension (None for a matrix space).

    Screen, then confirm. The rows are taken in blocks of as many as fit
    _BLOCK_ENTRIES values (at least one row), each block against the points
    from its first row on, in approximate values: squared euclidean
    distances for power spaces (d is increasing in them) and the exact
    entries for matrix spaces; entries with j < i are -inf. A row's
    candidates are the entries within relative `rel` of its largest value,
    and their exact distances come from one space.dists call per block.
    Squared distances and d = math.dist(x, y)**p differ by a few ulps of
    relative error, and a candidate window of 1e-9 (1e-9/p for p < 1, where
    d**p flattens differences) exceeds what that error can reorder, so the
    true maximum is always a candidate. That error bound holds for normal
    floats, so a row is screened only if its largest value is a normal
    float and its exact maximum is too (rounding to a subnormal result may
    reorder near ties); values below the normal range elsewhere in the row
    are too small to lead. Other rows (the last one, whose only value is
    d(x_i, x_i) = 0, underflowing or overflowing distances, non-finite
    coordinates) are left to the full check.
    """
    n = len(table)
    tiny, huge = float_info.min, float_info.max
    rel = 0.0 if space.kind == "matrix" else 1e-9 * max(1.0, 1.0 / space.p)
    maxima = np.full(len(rows), np.nan)
    lo = 0
    with np.errstate(all="ignore"):
        while lo < len(rows):
            ri = rows[lo : lo + max(1, _BLOCK_ENTRIES // (n - rows[lo]))]
            c0 = ri[0]
            if space.kind == "matrix":
                v = space.matrix[table[ri, None], table[c0:]]
            else:
                v = sum((xs[c0:] - xs[ri, None]) ** 2 for xs in coords)  # in coordinate order
            v[np.arange(c0, n) < ri[:, None]] = -np.inf
            top = v.max(axis=1)
            ok = (top >= tiny) & (top <= huge)
            b, c = np.nonzero((v >= (top * (1.0 - rel))[:, None]) & ok[:, None])
            best = np.full(len(ri), -np.inf)
            np.fmax.at(best, b, space.dists(table[ri[b]], table[c + c0]))
            maxima[lo : lo + len(ri)] = np.where(ok & (best >= tiny), best, np.nan)
            lo += len(ri)
    return maxima


def _ruled_out(space: BMetricSpace, table: np.ndarray, coords, bounds: np.ndarray) -> np.ndarray:
    """For each Cauchy row m = 0 .. n-2, its exact last entry
    d(x_{m+1}, x_{n-1}) if the row cannot hold the audit's largest ratio,
    NaN if it has to be screened; bounds[m] is the row's bound, table and
    coords are as in _row_maxima.

    The largest ratio is at least that of any real entry, so at least
    lb = max over m of d(x_{m+1}, x_{n-1}) / bounds[m]. Every distance of
    row m is at most d_hi, the length of the vector from x_{m+1} to the far
    corner of the bounding box of x_{m+1}, ..., x_{n-1}, to the power p,
    widened by 1e-9*max(1, p) relative. That is far more than the rounding
    of the squares, their sum, math.dist, the power (whose relative error
    grows by p/2 from squared lengths) and the division can move it, so
    d_hi covers every exact entry, and if d_hi / bounds[m] < lb no entry of
    the row can lead (rounded division is monotone). The error bound holds
    for normal floats, so a row is ruled out only if its bound, its squared
    length and d_hi are finite positive normal floats: then no entry of it
    overflows or is NaN, and a zero bound, the only source of violations,
    is never ruled out. In one dimension the far corner is a point of the
    orbit, so d_hi is tight. Matrix spaces rule out no row.
    """
    n = len(table)
    out = np.full(n - 1, np.nan)
    if space.kind == "matrix":
        return out
    last = space.dists(table[1:], table[np.full(n - 1, n - 1)])
    lb = _worst_ratio(last, bounds)[0]
    suffix = coords[:, :0:-1]  # x_{n-1}, ..., x_1; accumulated and reversed, column m spans x_{m+1:}
    hi = np.maximum.accumulate(suffix, axis=1)[:, ::-1]
    lo = np.minimum.accumulate(suffix, axis=1)[:, ::-1]
    with np.errstate(all="ignore"):
        far = np.maximum(coords[:, 1:] - lo, hi - coords[:, 1:])
        u2 = (far * far).sum(axis=0)
        d_hi = u2 ** (0.5 * space.p) * (1.0 + 1e-9 * max(1.0, space.p))
        ruled = d_hi / bounds < lb
        for v in (bounds, u2, d_hi):
            ruled &= (v >= float_info.min) & (v <= float_info.max)
    out[ruled] = last[ruled]
    return out


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
    row needs only its farthest point, and only if it can lead at all. A
    bounding-box bound rules out, in O(L) numpy work, the rows whose every
    ratio stays below one that a real entry attains (see _ruled_out); they
    contribute that exact entry. A numpy screen picks the farthest-point
    candidates of the other rows, a block of rows at a time, and
    space.dists confirms them (see _row_maxima); rows the screen cannot
    vouch for, and rows whose bound has underflowed to 0, are checked in
    full, so the largest ratio, the violation count and any error raised
    are those of the full pairwise scan. (The distances d(x_0, x_k) are
    taken before the chaining bounds, which raise only for a negative
    step.) Chaining bounds come from exact integer prefix sums
    (chaining_bounds). On an orbit of L points this takes O(L) exact
    distance evaluations; the screen is quadratic only in the rows that
    cannot be ruled out, and holds at most _BLOCK_ENTRIES approximate
    values (or one row) at a time.
    """
    pts = trace.points
    steps = trace.steps
    n = len(pts)  # a trace without steps has one point and no checks
    cauchy = chaining = 0.0
    violations = 0
    if steps:
        cert = cauchy_series(trace.gamma, space.s, first_step=steps[0])
        bounds = np.array(cauchy_bounds(cert, n - 1))  # row m's bound
        table = space.point_table(pts)
        coords = None if space.kind == "matrix" else (
            np.fromiter(chain.from_iterable(pts), float, n * space.dim).reshape(n, -1).T.copy())
        tops = _ruled_out(space, table, coords, bounds)
        screened = np.flatnonzero(np.isnan(tops) & (bounds != 0.0))
        tops[screened] = _row_maxima(space, table, coords, screened + 1)
        vouched = ~np.isnan(tops) & (bounds != 0.0)
        cauchy, violations = _worst_ratio(tops[vouched], bounds[vouched])
        for m in np.flatnonzero(~vouched).tolist():
            row = _worst_ratio(space.dists(table[np.full(n - 1 - m, m + 1)], table[m + 1 :]), bounds[m])
            cauchy, violations = max(cauchy, row[0]), violations + row[1]
        from_x0 = space.dists(table[np.zeros(n - 1, np.intp)], table[1:])
        chaining, chain_violations = _worst_ratio(from_x0, np.fromiter(chaining_bounds(steps, space.s), float))
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
