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
from itertools import accumulate, islice, repeat
from math import exp, frexp, inf, log
from typing import NamedTuple

import numpy as np

from .bspace import _BOX_WIDENING, BMetricSpace, Point, _check_int, _ScreenRule
from .quasicontraction import SetValuedMap, _check_coefficients, _check_map, _n_from_parts, image_of
from .setops import PointSet, dist_point_set


# rounding allowances (README, "Rounding allowances")
_DECAY_SLACK = 1e-12  # run_orbit's decay check, relative to d_{n-1}
_AUDIT_SLACK = 1e-9  # bound_audit's ok takes ratios up to 1 + _AUDIT_SLACK
_SERIES_CUTOFF = 1e-16  # cauchy_series stops at a term below this share of the sum,
_SERIES_TERMS = 64  # or after this many terms


class OrbitTrace(NamedTuple):
    points: tuple
    steps: tuple  # steps[n] = d(points[n], points[n+1])
    beta: float
    gamma: float
    status: str  # "converged" | "max_iter" | "ratio_violation"
    fixed_point: Point | None
    residual: float  # d(u, T(u)) at the final point
    violation_step: int | None = None


class CauchyCertificate(NamedTuple):
    gamma: float
    s: float
    series_sum: float
    first_step: float | None  # d(x_0, x_1); required by cauchy_bounds
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
    if not 1.0 <= s < inf:
        raise ValueError(f"s must be >= 1 and finite, got {s}")
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
    of the admissible interval (alpha, min(1, 1/(q*s))). The first step, out
    of x0, goes through the loop as every other: x1 defaults to the closest
    element of T(x0), and a given x1 is read only once x0 has failed to
    converge, and must pass space.check_point (as x0 must) and equal an element
    of T(x0). When no element of T(x_n) is at a finite distance from a point
    x_n, OverflowError names both, before max_iter or x1 is read, as it does a
    given x1 at an infinite distance from x0. Every later step is checked
    against the certified decay d_n <= gamma*d_{n-1} (relative slack
    _DECAY_SLACK, 1e-12) and the selection inequality d(x_cur, x_next) <
    beta*N(x_prev, x_cur), with N finite where it is computed (see below); a
    failed check ends the trace as "ratio_violation" at the offending step.

    Stopping is by residual, not step size: a small step does not certify a
    fixed point, the residual is exactly what the fixed-point theorems bound.

    A point costs one tmap.evaluate call and one scalar space.dist per image
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
    if not 0.0 < tol < inf:  # inf would stop at x0 whatever its residual
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_int("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    hi = beta_limit(q, s)
    if beta is None:
        beta = 0.5 * (alpha + hi)  # midpoint of the admissible interval
    elif not alpha < beta < hi:
        raise ValueError(f"beta must lie in ({alpha}, {hi}), got {beta}")
    gamma = gamma_of(beta, q, s)

    _check_map(space, tmap)
    space.check_point(x0)
    image, dist = tmap.evaluate, space.dist
    points, steps = [x0], []
    x_cur = x0

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
        if residual == inf:  # no d(x_n, y) below inf: T(x_n) has no point at a finite distance
            xn = f"x{len(steps)}"
            raise OverflowError(f"no element of T({xn}) is at a finite distance from {xn} = {x_cur!r}:"
                                f" T({xn}) = {t_cur!r}")
        if len(steps) >= max_iter:
            status = "max_iter"
            break

        # the attained min is the next step distance, residual > tol > 0
        # here; the first step has no previous one to check against. N's
        # cross terms are minima over the images, which repeated branch
        # outputs leave unchanged
        step = residual
        if not steps:
            if x1 is not None:
                space.check_point(x1)
                if x1 not in t_cur:
                    raise ValueError(f"x1 {x1!r} is not an element of T(x0)")
                nxt, step = x1, dist(x0, x1)
                if step == inf:  # a trace would converge from it unchecked
                    raise OverflowError(f"x1 = {x1!r} is at an infinite distance from x0 = {x0!r}")
        elif residual > gamma * d_prev + _DECAY_SLACK * d_prev or not (
            residual < beta * d_prev
            or residual < beta * _n_from_parts(
                space, c, q, x_prev, x_cur, d_prev, PointSet(t_prev), PointSet(t_cur), r_prev, residual
            ) < inf
        ):
            status = "ratio_violation"
            break
        points.append(nxt)
        steps.append(step)
        x_prev, x_cur, t_prev, r_prev, d_prev = x_cur, nxt, t_cur, residual, step

    return OrbitTrace(
        tuple(points), tuple(steps), beta, gamma, status, x_cur if status == "converged" else None, residual,
        violation_step=len(steps) if status == "ratio_violation" else None,
    )


def chaining_bounds(steps, s: float) -> list:
    """The bounds s**ceil(log2 k) * sum(steps[:k]) for k = 1 .. len(steps),
    non-decreasing, from finite steps >= 0 and a finite s >= 1 (else
    ValueError, naming the first bad step). A step is m * 2**(e - 53), m a
    53-bit integer and e its np.frexp exponent; shifted to the smallest e (0
    if every e is larger), the m add up as Python ints to every prefix sum
    exactly, and int true division rounds that correctly. OverflowError
    names the first k whose bound is beyond the float range, in its power,
    its sum or their product.
    """
    a = np.asarray(steps, dtype=float)
    if a.size and not 1.0 <= s < inf:
        raise ValueError(f"s must be >= 1 and finite, got {s}")
    if (bad := np.flatnonzero(~(np.isfinite(a) & (a >= 0.0)))).size:
        raise ValueError(f"step distances must be finite and non-negative, got d_{bad[0]} = {float(a[bad[0]])!r}")
    mant, expo = np.frexp(a)
    low = int(expo.min(initial=0))
    sums = accumulate(map(operator.lshift, (mant * 2.0**53).astype(np.int64).tolist(), (expo - low).tolist()))
    unit = 1 << (53 - low)

    def bound(k: int, total: int) -> float:  # inf beyond the float range
        try:
            return s ** (k - 1).bit_length() * (total / unit)
        except OverflowError:
            return inf

    bounds = list(map(bound, range(1, a.size + 1), sums))
    if bounds and bounds[-1] == inf:  # the bounds never decrease
        k = bounds.index(inf) + 1
        raise OverflowError(f"the chaining bound at k = {k}, s**ceil(log2 k)*(d_0 + ... + d_{k - 1}) with s = {s!r},"
                            " is beyond the float range")
    return bounds


def cauchy_series(gamma: float, s: float, first_step: float | None = None) -> CauchyCertificate:
    """Sum of s**(2n) * gamma**(2**(n-1)) for n >= 1.

    Terms decay doubly exponentially once the gamma factor takes over, so
    summation stops at relative _SERIES_CUTOFF (1e-16) or after
    _SERIES_TERMS (64) terms, far beyond what 64-bit floats can
    distinguish. Where s**(2n) alone leaves the float range, the term is
    exp(2n*log(s) + 2**(n-1)*log(gamma)) (0 at gamma = 0). s and first_step
    must be finite (ValueError); a sum beyond the float range is OverflowError.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0,1), got {gamma}")
    if not 1.0 <= s < inf:
        raise ValueError(f"s must be >= 1 and finite, got {s}")
    if first_step is not None and not 0.0 <= first_step < inf:
        raise ValueError(f"first_step must be non-negative and finite, got {first_step}")
    total, terms = 0.0, 0
    for n in range(1, _SERIES_TERMS + 1):
        try:
            t = (s ** (2 * n)) * (gamma ** (2 ** (n - 1)))
        except OverflowError:
            t = exp(2 * n * log(s) + 2 ** (n - 1) * log(gamma)) if gamma > 0.0 else 0.0
        if terms >= 1 and (t == 0.0 or t < _SERIES_CUTOFF * total):
            break
        total += t
        terms += 1
    if total == inf:  # finite terms whose sum is not
        raise OverflowError(f"the series for gamma = {gamma!r}, s = {s!r} sums beyond the float range")
    return CauchyCertificate(gamma, s, total, first_step, terms)


def cauchy_bounds(cert: CauchyCertificate, n: int) -> list:
    """The tail bounds gamma**m * first_step * series_sum / (1 - gamma) on
    d(x_{m+1}, x_{m+k}) for m = 0 .. n-1, n an integer >= 0.

    The power is accumulated multiplicatively, so consecutive bounds satisfy
    bound(m+1) = gamma * bound(m) exactly (and underflow cleanly to 0).
    No later bound exceeds the first, and OverflowError names a first bound
    beyond the float range with d(x0, x1), S and gamma.
    """
    if cert.first_step is None:
        raise ValueError("certificate has no first_step; rebuild with cauchy_series(gamma, s, d01)")
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    first = cert.first_step * cert.series_sum / (1.0 - cert.gamma)
    if not first < inf:
        raise OverflowError(
            f"the Cauchy bound at m = 0, d(x0, x1)*S/(1 - gamma) with d(x0, x1) = {cert.first_step!r},"
            f" S = {cert.series_sum!r} and gamma = {cert.gamma!r}, is beyond the float range"
        )
    return list(islice(accumulate(repeat(cert.gamma), operator.mul, initial=first), n))


_BLOCK_ENTRIES = 1 << 14  # approximate values per row block of _row_maxima


def _row_maxima(space: BMetricSpace, table: np.ndarray, coords, rows: np.ndarray) -> np.ndarray:
    """For each point index i in rows (ascending), the exact maximum of
    d(x_i, x_j) over j >= i, or NaN where the row has to be checked in full;
    table is space.point_table of the points, coords as in bound_audit.

    Screen, then confirm, in blocks of as many rows as fit _BLOCK_ENTRIES
    proxies (bspace._ScreenRule; at least one row), each against the points
    from its first row on (entries with j < i are -inf). Where the rule
    trusts a row's largest proxy, the row's maximum is among the entries
    within the rule's window of it, evaluated in one dists call per block;
    the other rows (the last one, whose only value is d(x_i, x_i) = 0,
    non-finite coordinates, distances out of range) are checked in full.
    """
    n = len(table)
    rule = _ScreenRule(space, table, coords)
    maxima = np.full(len(rows), np.nan)
    lo = 0
    with np.errstate(all="ignore"):
        while lo < len(rows):
            ri = rows[lo : lo + max(1, _BLOCK_ENTRIES // (n - rows[lo]))]
            c0 = ri[0]
            v = rule.proxy(ri[:, None], slice(c0, None))
            v[np.arange(c0, n) < ri[:, None]] = -np.inf
            top = v.max(axis=1)
            ok = rule.trusted(top, top)
            b, c = np.nonzero((v >= (top * (1.0 - rule.rel))[:, None]) & ok[:, None])
            best = np.full(len(ri), -np.inf)
            np.fmax.at(best, b, space.dists(table[ri[b]], table[c + c0]))
            maxima[lo : lo + len(ri)] = np.where(ok, best, np.nan)
            lo += len(ri)
    return maxima


def _ruled_out(space: BMetricSpace, table: np.ndarray, coords, bounds: np.ndarray, shift: int) -> np.ndarray:
    """For each Cauchy row m = 0 .. n-2, its exact last entry d(x_{m+1},
    x_{n-1}) if the row cannot hold the audit's largest ratio, else NaN (to
    screen); bounds[m] is its bound, table, coords and shift as in bound_audit.

    The largest ratio is at least lb = max over m of d(x_{m+1}, x_{n-1}) /
    bounds[m]. No distance of row m exceeds d_hi: the scaled squared length
    u2 from x_{m+1} to the far corner of the bounding box of x_{m+1}, ...,
    x_{n-1}, to the power p/2, times 2**(shift*p) (inf beyond the float
    range) and widened by bspace._BOX_WIDENING*max(1, p), far more than the
    rounding of the squares, their sum, math.dist, the power (p/2 times that
    of u2) and the factor (2**-43 at most while finite) can move d, where
    the screen rule trusts u2 (bspace._ScreenRule). Then no entry of a row
    with d_hi / bounds[m] < lb can lead (rounded division is monotone); an
    inf d_hi and a zero bound, the only source of violations, give inf,
    which never is. In 1-D the far corner is an orbit point, so d_hi is
    tight. Matrix spaces rule out no row.
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
        d_hi = u2 ** (0.5 * space.p) * np.exp2(shift * space.p) * (1.0 + _BOX_WIDENING * max(1.0, space.p))
        ruled = _ScreenRule(space, table, coords).trusted(u2, u2) & (d_hi / bounds < lb)
    out[ruled] = last[ruled]
    return out


def _worst_ratio(actual: np.ndarray, bound) -> tuple[float, int]:
    """The largest actual/bound and the violation count over exact
    distances and their bounds (one bound, or one per distance): a zero
    distance passes; a nonzero one over a zero bound is a violation, and so
    is a NaN ratio (a NaN distance, or inf/inf), which decides nothing."""
    actual, bound = np.broadcast_arrays(actual, bound)
    live, zero = actual != 0.0, bound == 0.0
    with np.errstate(all="ignore"):
        ratios = actual[live & ~zero] / bound[live & ~zero]
    return float(np.fmax.reduce(ratios, initial=0.0)), int(np.count_nonzero(live & zero) + np.isnan(ratios).sum())


def _trace_arrays(space: BMetricSpace, trace: OrbitTrace) -> tuple:
    """A finished trace's point_table, coordinate rows (None on a matrix space)
    and Cauchy bound at each of its n points ([0.0] without steps), made once
    for bound_audit (its rows: the first n - 1, bit for bit) and the writers."""
    pts, steps = trace.points, trace.steps
    bounds = cauchy_bounds(cauchy_series(trace.gamma, space.s, first_step=steps[0]), len(pts)) if steps else [0.0]
    table = space.point_table(pts)
    return table, None if space.kind == "matrix" else _ScreenRule.coordinates(space, table), np.array(bounds)


def bound_audit(space: BMetricSpace, trace: OrbitTrace, *, _arrays=None) -> dict:
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
    contribute that exact entry. A numpy screen finds the farthest point of
    the other rows (see _row_maxima); rows it cannot vouch for, and rows
    whose bound has underflowed to 0, are checked in full, so the largest
    ratio and the violation count are those of the full pairwise scan.
    Chaining bounds come from exact integer prefix sums (chaining_bounds).
    On an orbit of L points this takes O(L) exact distance evaluations; the
    screen is quadratic only in the rows that cannot be ruled out. Both
    take the coordinates scaled by 2**-shift, shift >= 0 keeping every
    squared length below 2**1023 (0 unless a coordinate reaches about
    2**510), so huge orbits are screened too. Every bound is finite: beyond
    the float range a bound decides no check, and its maker raises
    OverflowError. It reads _trace_arrays, made here unless _arrays is given.
    """
    steps, n = trace.steps, len(trace.points)  # a trace without steps has one point and no checks
    cauchy, chaining, violations = 0.0, 0.0, 0
    if steps:
        table, coords, bounds = _trace_arrays(space, trace) if _arrays is None else _arrays
        bounds = bounds[:-1]  # row m's bound
        chain_bounds = np.fromiter(chaining_bounds(steps, space.s), float, n - 1)
        shift = 0
        if coords is not None:
            # every coordinate below 2**e, a squared length below 4*dim*4**(e - shift) <= 2**1023
            shift = max(0, frexp(float(np.abs(coords).max()))[1] - (1021 - (space.dim - 1).bit_length()) // 2)
            coords = coords * 2.0**-shift
        tops = _ruled_out(space, table, coords, bounds, shift)
        screened = np.flatnonzero(np.isnan(tops) & (bounds != 0.0))
        tops[screened] = _row_maxima(space, table, coords, screened + 1)
        vouched = ~np.isnan(tops) & (bounds != 0.0)
        cauchy, violations = _worst_ratio(tops[vouched], bounds[vouched])
        for m in np.flatnonzero(~vouched).tolist():
            row = _worst_ratio(space.dists(table[np.full(n - 1 - m, m + 1)], table[m + 1 :]), bounds[m])
            cauchy, violations = max(cauchy, row[0]), violations + row[1]
        from_x0 = space.dists(table[np.zeros(n - 1, np.intp)], table[1:])
        chaining, chain_violations = _worst_ratio(from_x0, chain_bounds)
        violations += chain_violations

    slack = 1.0 + _AUDIT_SLACK
    return {
        "cauchy_ratio_max": cauchy,
        "chaining_ratio_max": chaining,
        "cauchy_checks": n * (n - 1) // 2,
        "chaining_checks": n - 1,
        "violations": violations,
        "ok": violations == 0 and cauchy <= slack and chaining <= slack,
    }


def verify_fixed_point(space: BMetricSpace, tmap: SetValuedMap, u: Point, tol: float) -> FixedPointCheck:
    """Residual d(u, T(u)) (image_of checks u) and whether it clears tol (finite, >= 0)."""
    if not 0.0 <= tol < inf:  # nan would fail every point, inf pass every point
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    residual = dist_point_set(space, u, image_of(space, tmap, u)).value
    return FixedPointCheck(residual, residual <= tol)
