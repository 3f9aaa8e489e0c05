"""b-metric spaces: distance carriers, axiom verification, relaxation estimation.

A b-metric relaxes the triangle inequality to d(x,y) <= s*(d(x,z) + d(z,y))
for a fixed coefficient s >= 1; s = 1 recovers ordinary metric spaces. Two
carriers are supported:

* power spaces: R^k with d(x,y) = (euclidean distance)**p, declared
  s = max(1, 2**(p-1));
* matrix spaces: a finite point list with distances read from a matrix.

Every space checks itself when built (BMetricSpace): its distance is
symmetric and zero exactly between equal points, and 1 <= s < inf. Only the
relaxed triangle with that s is the caller's claim, which verify_axioms
checks on a sample.

Points are coordinate tuples in power spaces and integer ids in matrix
spaces. A distance beyond the float range, from the norm or the power, is inf.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple, Union

import numpy as np

Point = Union[tuple, int]

COORD_TOL = 1e-12  # coordinate tolerance for treating continuous points as equal
# the relative tol of `bfixpoint verify`'s axiom check: zero is read up to
# this fraction of the largest sample distance (see verify_axioms)
VERIFY_TOL = 1e-12


def _check_int(name: str, value) -> None:
    """Reject a count or seed that is not an integer: int() would
    truncate a float and accept a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class BMetricSpace:
    kind: str  # "power" | "matrix"
    s: float
    dim: int | None = None
    p: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "matrix":
            m = np.array(self.matrix, dtype=float)  # a copy: the caller's array stays writable
            n = len(m) if m.ndim else 0
            if m.shape != (n, n):
                raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
            # the first entry in row-major order that fails the first failing
            # check; -0.0 passes as a zero, since no check reads the sign of a zero
            for bad, message in (
                (~np.isfinite(m), "non-finite entry at ({i},{j})"),
                (m < 0.0, "negative entry at ({i},{j}): {v}"),
                (m != m.T, "asymmetry at ({i},{j}): {v} != {w}"),
                (np.diag(np.diag(m) != 0.0), "nonzero diagonal at ({i},{j}): {v}"),
                (m + np.eye(n) == 0.0,  # the diagonal masked
                 "zero off-diagonal entry at ({i},{j}): distinct points must have positive distance"),
            ):
                if bad.any():
                    i, j = map(int, np.argwhere(bad)[0])
                    raise ValueError(message.format(i=i, j=j, v=m[i, j], w=m[j, i]))
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        elif self.kind == "power":
            _check_int("dimension", self.dim)
            if self.dim < 1:
                raise ValueError(f"dimension must be >= 1, got {self.dim}")
            if not 0.0 < self.p < 1025.0:  # from p = 1025 on, s = 2**(p-1) overflows
                raise ValueError(f"exponent p must lie in (0, 1025), got {self.p}")
            object.__setattr__(self, "dim", int(self.dim))
            object.__setattr__(self, "p", float(self.p))
        else:
            raise ValueError(f"space kind must be 'power' or 'matrix', got {self.kind!r}")
        if not 1.0 <= self.s < math.inf:
            raise ValueError(f"relaxation coefficient s must be finite and >= 1, got {self.s}")
        object.__setattr__(self, "s", float(self.s))

    @property
    def n_points(self) -> int:
        """Domain size for matrix spaces."""
        if self.matrix is None:
            raise ValueError("continuous space has no finite point list")
        return self.matrix.shape[0]

    def dist(self, x: Point, y: Point) -> float:
        if self.kind == "matrix":
            return float(self.matrix[x, y])
        # math.dist is exactly symmetric under argument swap, so d(x,y) and
        # d(y,x) agree bit for bit without canonical ordering.
        try:
            return math.dist(x, y) ** self.p
        except OverflowError:  # a power beyond the float range
            return math.inf

    def point_table(self, points) -> np.ndarray:
        """The points as a one-dimensional array, in the form dists
        evaluates from: the ids (intp) of a matrix space, the coordinates
        (float64) of a one-dimensional power space, the point tuples (an
        object array) in higher dimensions."""
        if self.kind == "power" and self.dim == 1:
            return np.fromiter((x for (x,) in points), float)
        return np.fromiter(points, np.intp if self.kind == "matrix" else object)

    def dists(self, xs, ys) -> np.ndarray:
        """d(xs[i], ys[i]) for each i, as a float64 array whose entries
        equal dist bit for bit. xs and ys are gathers of equal length from
        one point_table, dists(table[ix], table[iy]). Matrix spaces gather.
        A one-dimensional power space takes numpy's |x - y|, which is what
        math.dist returns for one coordinate, then Python's float power per
        entry unless p = 1 (x ** 1.0 is x). Higher dimensions take
        math.dist and builtin pow. The float power is that of **; numpy's
        float power and norms round differently."""
        if self.kind == "matrix":
            return self.matrix[xs, ys]
        try:
            if self.dim == 1:
                with np.errstate(over="ignore", invalid="ignore"):
                    d = np.abs(xs - ys)
                # an object array's power is the builtin float power, entry by entry
                return d if self.p == 1.0 else np.power(d.astype(object), self.p).astype(float)
            return np.fromiter(map(pow, map(math.dist, xs.tolist(), ys.tolist()), repeat(self.p)), float)
        except OverflowError:  # from pow: each half again, down to the single entries, which read inf
            k = len(xs) // 2
            return np.concatenate([self.dists(xs[:k], ys[:k]), self.dists(xs[k:], ys[k:])] if k else [[math.inf]])

    def check_point(self, x: Point) -> None:
        """The engine's one point rule: ValueError naming x, as given, unless
        it is an in-range int id on a matrix space (no bool or numpy integer:
        dumps_canonical writes no other), else a tuple of dim finite reals."""
        if self.kind == "matrix":
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix-space point must be an integer id, got {x!r}")
            if not 0 <= x < self.n_points:
                raise ValueError(f"point id {x} out of range [0, {self.n_points})")
            return
        if not isinstance(x, tuple) or len(x) != self.dim:
            raise ValueError(f"expected a coordinate tuple of length {self.dim}, got {x!r}")
        for c in x:
            try:
                finite = math.isfinite(c)
            except TypeError:  # math.isfinite takes only real numbers, not a str or a complex
                raise ValueError(f"coordinate {c!r} is not a real number in point {x!r}") from None
            except OverflowError:  # an integer beyond the float range
                raise ValueError(f"coordinate beyond the float range in point {x!r}") from None
            if not finite:
                raise ValueError(f"non-finite coordinate in point {x!r}")


_TINY = 2.0**-1022  # the smallest normal float64, sys.float_info.min
_SCREEN_WINDOW = 1e-9  # _ScreenRule's window (README, "Rounding allowances")
_BOX_WIDENING = 1e-9  # the widening of orbit._ruled_out's box bound


def _screen_window(p: float) -> float:
    """_SCREEN_WINDOW, times 1/p for p < 1, where d = v**(p/2) flattens v."""
    return _SCREEN_WINDOW * max(1.0, 1.0 / p)


class _ScreenRule:
    """The one screening rule: which dists entries a screen (certify's
    _screen, bound_audit's _row_maxima and _ruled_out) may skip, from a
    proxy of d. proxy(ix, iy) is that of d(table[ix], table[iy]), for index
    arrays or slices that broadcast: the exact entry on a matrix space, else
    the squared length v of x - y from coords (coordinates), scaled by
    2**-shift, shift >= 0. For a normal v, the rounding of v (a scaled
    coordinate moves by 2**-1075 at most) and of d = math.dist(x, y)**p is
    a few ulps, far inside the window rel = _screen_window(p) (0 on a matrix
    space): no entry whose v lies further than rel from a group's extreme v
    attains the group's extreme d. That needs d normal too, and d is at
    least v**(p/2) less those ulps. So a screen trusts a group of proxies
    from lo to hi only where trusted(lo, hi): floor <= lo, hi <=
    float_info.max, floor the least normal float or (2*_TINY)**(2/p) if
    larger, where d >= 2*_TINY less a few ulps; never 0, a subnormal, inf
    (which orders nothing) or NaN. Each screen decides it per group, and
    evaluates an untrusted group in full."""

    def __init__(self, space: BMetricSpace, table: np.ndarray, coords):
        self.space, self.table, self.coords = space, table, coords
        matrix = space.kind == "matrix"
        self.rel = 0.0 if matrix else _screen_window(space.p)
        self.floor = _TINY if matrix else max(_TINY, (2.0 * _TINY) ** (2.0 / space.p))

    @staticmethod
    def coordinates(space: BMetricSpace, table: np.ndarray) -> np.ndarray:
        """A power space's point table as one float64 row per dimension (a view in 1-D)."""
        if space.dim == 1:
            return table[None]
        return np.fromiter(chain.from_iterable(table.tolist()), float).reshape(-1, space.dim).T.copy()

    def proxy(self, ix, iy) -> np.ndarray:
        if self.space.kind == "matrix":
            return self.space.matrix[self.table[ix], self.table[iy]]
        return sum((xs[ix] - xs[iy]) ** 2 for xs in self.coords)  # in coordinate order

    def trusted(self, lo, hi) -> np.ndarray:
        return (lo >= self.floor) & (hi <= sys.float_info.max)


class AxiomViolation(NamedTuple):
    axiom: str  # "identity" | "relaxed-triangle"
    witness: tuple  # offending points, (x, y) or (x, y, z) with z the via point
    lhs: float
    rhs: float


class AxiomReport(NamedTuple):
    passed: bool
    violations: tuple[AxiomViolation, ...] = ()


def _power_coefficient(p: float) -> float:
    """max(1, 2**(p-1)), the relaxation coefficient with which |x-y|_2**p
    is a b-metric: by Minkowski's inequality and (a + b)**p <=
    2**(p-1)*(a**p + b**p) for p >= 1, and (a + b)**p <= a**p + b**p for p
    in (0,1). It is inf from p = 1025 on, where 2**(p-1) overflows (and
    BMetricSpace rejects p)."""
    return max(1.0, 2.0 ** (p - 1.0)) if p < 1025.0 else math.inf


def make_power_space(dimension: int, p: float) -> BMetricSpace:
    """R^dimension under d(x,y) = |x-y|_2**p with s = max(1, 2**(p-1))
    (_power_coefficient)."""
    return BMetricSpace(kind="power", s=_power_coefficient(p), dim=dimension, p=p)


def make_matrix_space(n: int, matrix, s: float) -> BMetricSpace:
    """Finite space whose distances are read from an explicit n x n matrix,
    checked as every matrix space is (BMetricSpace): exactly symmetric, a
    zero diagonal, and strictly positive off-diagonal entries (so distance
    zero is equivalent to identity). The relaxed triangle with coefficient
    s is NOT assumed; run verify_axioms for that.
    """
    _check_int("n", n)
    m = np.asarray(matrix, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    return BMetricSpace(kind="matrix", s=s, matrix=m)


def _sample_table(space: BMetricSpace, sample, table=None) -> tuple[list, np.ndarray]:
    """The sample, an iterable of points read once, as a list, and its
    _distance_table. A given table is returned as it is: certify's, filled
    in on the same points, which it checked. Else every point is checked
    (check_point)."""
    sample = list(sample)
    if table is None:
        for x in sample:
            space.check_point(x)
        table = _distance_table(space, sample)
    return sample, table


def _distance_table(space: BMetricSpace, sample: list) -> np.ndarray:
    """The n x n table d(sample[i], sample[j]), each entry equal to dist
    bit for bit up to the sign of a zero: the n(n-1)/2 pairs i < j, in
    row-major order, are evaluated in one dists call and mirrored, and the
    diagonal is 0.0. Every space is symmetric (a power space exactly:
    fl(a - b) is -fl(b - a)), and d(x, x) is 0: 0.0**p is 0, and a matrix
    diagonal is 0.0 or -0.0.

    A distance beyond the float range names its pair (the first in index
    order, with i < j) here, before any check or reduction does arithmetic
    on it."""
    n = len(sample)
    upper = np.triu_indices(n, 1)
    table = space.point_table(sample)
    dmat = np.zeros((n, n))
    dmat[upper] = dmat.T[upper] = space.dists(table[upper[0]], table[upper[1]])
    if not np.isfinite(dmat).all():
        i, j = map(int, np.argwhere(~np.isfinite(dmat))[0])
        raise ValueError(f"sample pair ({sample[i]!r}, {sample[j]!r}) has non-finite distance {dmat[i, j]}")
    return dmat


# The via-point reduction sums d(x,z) + d(z,y) for a block of rows x at a
# time: as many rows as fit in this many sums over the block's columns y,
# and at least one row, so the buffer does not grow as n**3.
_BLOCK_SUMS = 1 << 16


def _via_minimum(dmat: np.ndarray) -> np.ndarray:
    """min over k of dmat[i,k] + dmat[k,j] for every (i, j) of a symmetric
    table (a _distance_table); a sum that overflows is inf (callers scope
    the overflow warning).

    A block of rows lo..hi is reduced over the columns j >= lo only and
    mirrored, about n**3/2 sums: float addition commutes, so the minimum for
    (i, j) is that for (j, i), up to the sign of a zero. Row j of dmat is
    its column j, so each sum runs along a contiguous axis."""
    n = len(dmat)
    best = np.empty_like(dmat)
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _BLOCK_SUMS // ((n - lo) * n)))
        block = np.fmin.reduce(dmat[lo:hi, None, :] + dmat[None, lo:, :], axis=2)
        best[lo:hi, lo:] = block
        best[lo:, lo:hi] = block.T
        lo = hi
    return best


_U = 2.0**-53  # the unit roundoff of float64


def _rounding_bound(p: float, dim: int) -> float:
    """A relative tol from which on no rounding can make a table of the
    power space (dim, p) violate the relaxed triangle, under the conditions
    of _triangle_is_theorem; inf where the first-order reckoning below is
    not trusted (a bound above 2**-20).

    The exact distances C = d(x,y), A = d(x,z), B = d(z,y) of float points
    satisfy C <= S*(A + B), S = _power_coefficient(p). With u = 2**-53 and
    P = max(p, 1), to first order in u:
    - a coordinate difference rounds by u, and math.dist is charged
      (2*dim - 2)u (it is exact on one coordinate, and CPython's is within
      one ulp, 2u), so a normal root is within (2*dim - 1)u of the exact
      norm;
    - the power multiplies that relative error by p (by at most P), and
      pow adds its ulp, 2u, so a normal entry is within e = P*(2*dim - 1)u
      + 2u of its exact value;
    - s >= fl(S), a pow, is within 2u of S.
    The check reads c > fl(fl(s*fl(a + b)) + fl(tol*M)), M the largest
    entry. A float c exceeds fl(y) only if it exceeds y, and a + b and s*(a
    + b) are normal (or inf, which nothing exceeds), so a violation needs
        c - fl(tol*M) > s*(a + b)*(1 - u)**2 >= S*(A + B)*(1 - e - 4u)
                                             >= C*(1 - e - 4u),
    and with c <= C*(1 + e) that is fl(tol*M) < C*(2e + 4u). Every error is
    relative to C <= M*(1 + e), so it is at most M*(2e + 4u). And fl(tol*M)
    >= M*(tol - u - tol*u): a subnormal product is off by at most 2**-1075
    <= u*M. So tol >= 2e + 5u = (2P(2*dim - 1) + 9)u, first order, rules a
    violation out. The bound is twice that, which covers the second-order
    terms (relative size at most e <= 2**-20).

    At VERIFY_TOL it holds for every p on a line, up to p = 749 in the
    plane and 449 in 3-D; above, the scan runs."""
    bound = (4.0 * max(p, 1.0) * (2 * dim - 1) + 18.0) * _U
    return bound if bound <= 2.0**-20 else math.inf


def _triangle_is_theorem(space: BMetricSpace, dmat: np.ndarray, tol: float) -> bool:
    """Whether no triple of the table dmat can violate the relaxed triangle
    at the relative tol, so verify_axioms need not scan: dmat is a power
    space's table (whose exact distances satisfy the triangle with
    _power_coefficient(p)), s is at least that coefficient, tol is at least
    the _rounding_bound, and every off-diagonal entry is at least
    4*_TINY**min(p, 1). Such an entry is normal, and so is the root it was
    powered from (at least (4/(1 + 2u))**(1/p) * _TINY**(min(p, 1)/p) >=
    _TINY), so every entry carries only the relative errors the bound
    counts. Costs one pass over the table."""
    if space.kind != "power" or space.s < _power_coefficient(space.p) or tol < _rounding_bound(space.p, space.dim):
        return False
    # the n zeros of the diagonal are the only entries below the floor
    return np.count_nonzero(dmat < 4.0 * _TINY ** min(space.p, 1.0)) == len(dmat)


def verify_axioms(space: BMetricSpace, sample, tol: float = 0.0, *, _table=None) -> AxiomReport:
    """Check the b-metric axioms on every ordered pair/triple of the sample,
    an iterable of points read once (symmetry holds in every space by
    construction, and identity in a matrix space):

    identity:         d(x,y) = 0 exactly when the points coincide (zero is
                      read up to tol, and point coincidence up to
                      COORD_TOL in every coordinate);
    relaxed-triangle: d(x,y) <= s*(d(x,z) + d(z,y)) + tol.

    tol is relative: each check reads it as tol times the largest sample
    distance (tol = 0 is exact). It must be finite and >= 0.

    Violations are data, not errors; each carries its witnesses and both
    sides of the failed inequality, ordered by smallest index tuple first.
    A sample distance that is not finite (finite coordinates can overflow)
    is an error: ValueError names the first such pair.

    On n points this evaluates n(n-1)/2 dists entries (see _distance_table),
    none if the private _table is given: the sample's n x n distance table
    as certify fills it on the same sample, whose points certify has
    checked, so they are not checked again.
    In a power space whose s is at least max(1, 2**(p-1)) the relaxed
    triangle is a theorem for the exact distances, so only rounding can
    break it. Where the table's off-diagonal entries are normal floats and
    tol is at least a bound on that rounding (_rounding_bound: about
    4*p*(2*dim - 1) units of roundoff, below VERIFY_TOL up to p = 449 in 3-D)
    no triple can fail, and none is scanned (_triangle_is_theorem). Else,
    and always in a matrix space (whose s is the caller's claim), the
    triangle costs about n**3/2 via-point sums (see _via_minimum).
    """
    if not 0.0 <= tol < math.inf:  # a nan tol would pass every check
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    sample, dmat = _sample_table(space, sample, _table)
    if not sample:
        raise ValueError("sample must be nonempty")

    violations: list[AxiomViolation] = []
    scan = not _triangle_is_theorem(space, dmat, tol)
    tol = tol * float(dmat.max())

    # identity for every ordered pair (i, j), in index order: equal points
    # are at distance 0 (0.0**p is 0), so only a zero between points that do
    # not coincide (some coordinate apart by more than COORD_TOL) fails; a
    # matrix space has none, its off-diagonal entries are checked positive.
    # The diagonal coincides, and only the zeros off it are compared.
    if space.kind == "power":
        zeros = np.argwhere(dmat <= tol)
        zeros = zeros[zeros[:, 0] != zeros[:, 1]]
        if len(zeros):
            xs = np.array(sample, dtype=float)
            with np.errstate(all="ignore"):
                apart = ~(np.abs(xs[zeros[:, 0]] - xs[zeros[:, 1]]) <= COORD_TOL).all(axis=1)
            for i, j in zeros[apart].tolist():
                violations.append(AxiomViolation("identity", (sample[i], sample[j]), float(dmat[i, j]), 0.0))

    # Relaxed triangle, unless no triple can fail: the right-hand side
    # s*(a + b) + tol never falls as the sum a + b grows, rounding included,
    # so some via-point k violates it exactly when the smallest sum over k
    # does. The block reduction finds the violating pairs; only those are
    # scanned point by point, which yields (i, j, k) in index order. A
    # right-hand side that overflows is inf, which no distance exceeds.
    s = space.s
    with np.errstate(over="ignore"):
        for i, j in np.argwhere(dmat > s * _via_minimum(dmat) + tol).tolist() if scan else ():
            rhs = s * (dmat[i] + dmat[:, j]) + tol
            violations += (
                AxiomViolation("relaxed-triangle", (sample[i], sample[j], sample[k]), float(dmat[i, j]), float(rhs[k]))
                for k in np.flatnonzero(dmat[i, j] > rhs).tolist()
            )

    return AxiomReport(passed=not violations, violations=tuple(violations))


def estimate_min_s(space: BMetricSpace, sample) -> float:
    """Tightest relaxation coefficient on the sample, an iterable of points
    read once: the largest ratio d(x,y) / (d(x,z) + d(z,y)) over triples
    with x != y, clamped below at 1.

    Zero denominators are skipped (they need d(x,z) = d(z,y) = 0, which
    distances that underflow can give even where d(x,y) > 0). Requires at
    least two points at positive distance, and finite distances, as
    verify_axioms.
    """
    sample, dmat = _sample_table(space, sample)
    positive = dmat > 0.0
    if not positive.any():
        raise ValueError("sample needs at least 2 distinct points")

    # d / x never grows as x does, so each pair's largest ratio is its
    # distance over its smallest positive via-point sum. The few pairs whose
    # minimum is a zero sum are reduced again over their positive sums only.
    with np.errstate(over="ignore"):
        low = _via_minimum(dmat)
        for i, j in np.argwhere(positive & (low == 0.0)).tolist():
            den = dmat[i] + dmat[:, j]
            low[i, j] = den[den > 0.0].min(initial=math.inf)
        return max(1.0, float((dmat[positive] / low[positive]).max()))
