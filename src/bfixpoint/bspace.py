"""b-metric spaces: distance carriers, axiom verification, relaxation estimation.

A b-metric relaxes the triangle inequality to d(x,y) <= s*(d(x,z) + d(z,y))
for a fixed coefficient s >= 1; s = 1 recovers ordinary metric spaces. Two
carriers are supported:

* power spaces: R^k with d(x,y) = (euclidean distance)**p, declared
  s = max(1, 2**(p-1));
* matrix spaces: a finite point list with distances read from an explicit
  symmetric matrix (axioms are the caller's claim, checkable exhaustively).

Points are coordinate tuples in power spaces and integer ids in matrix
spaces.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from typing import Union

import numpy as np

Point = Union[tuple, int]

COORD_TOL = 1e-12  # coordinate tolerance for treating continuous points as equal


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
        return math.dist(x, y) ** self.p

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
        math.dist and builtin pow. The float power is that of ** with the
        same OverflowError; numpy's float power and norms round
        differently."""
        if self.kind == "matrix":
            return self.matrix[xs, ys]
        if self.dim == 1:
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.abs(xs - ys)
            # an object array's power is the builtin float power, entry by entry
            return d if self.p == 1.0 else np.power(d.astype(object), self.p).astype(float)
        return np.fromiter(map(pow, map(math.dist, xs.tolist(), ys.tolist()), repeat(self.p)), float)

    def check_point(self, x: Point) -> None:
        """Reject points outside the domain (bad ids, wrong arity, non-finite coords)."""
        if self.kind == "matrix":
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix-space point must be an integer id, got {x!r}")
            if not 0 <= x < self.n_points:
                raise ValueError(f"point id {x} out of range [0, {self.n_points})")
            return
        if not isinstance(x, tuple) or len(x) != self.dim:
            raise ValueError(f"expected a coordinate tuple of length {self.dim}, got {x!r}")
        for c in x:
            if not math.isfinite(c):
                raise ValueError(f"non-finite coordinate in point {x!r}")


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str  # "identity" | "symmetry" | "relaxed-triangle"
    witness: tuple  # offending points, (x, y) or (x, y, z) with z the via point
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple[AxiomViolation, ...] = field(default_factory=tuple)


def make_power_space(dimension: int, p: float) -> BMetricSpace:
    """R^dimension under d(x,y) = |x-y|_2**p with s = max(1, 2**(p-1)).

    For p >= 1 the relaxed triangle inequality holds with s = 2**(p-1); for
    p in (0,1) the p-th power of a metric is again a metric, so s = 1.
    """
    _check_int("dimension", dimension)
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not 0.0 < p < 1025.0:  # from p = 1025 on, s = 2**(p-1) overflows
        raise ValueError(f"exponent p must lie in (0, 1025), got {p}")
    return BMetricSpace(kind="power", s=max(1.0, 2.0 ** (p - 1.0)), dim=int(dimension), p=float(p))


def make_matrix_space(n: int, matrix, s: float) -> BMetricSpace:
    """Finite space whose distances are read from an explicit n x n matrix.

    Requires exact symmetry, a zero diagonal, and strictly positive
    off-diagonal entries (so distance zero is equivalent to identity).
    The b-metric axioms are NOT assumed; run verify_axioms for that.
    """
    _check_int("n", n)
    m = np.array(matrix, dtype=float)  # a copy: the caller's array stays writable
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        i, j = map(int, np.argwhere(~np.isfinite(m))[0])
        raise ValueError(f"non-finite entry at ({i},{j})")
    neg = np.argwhere(m < 0)
    if len(neg):
        i, j = map(int, neg[0])
        raise ValueError(f"negative entry at ({i},{j}): {m[i, j]}")
    asym = np.argwhere(m != m.T)
    if len(asym):
        i, j = map(int, asym[0])
        raise ValueError(f"asymmetry at ({i},{j}): {m[i, j]} != {m[j, i]}")
    bad_diag = np.argwhere(np.diag(m) != 0.0)
    if len(bad_diag):
        i = int(bad_diag[0][0])
        raise ValueError(f"nonzero diagonal at ({i},{i}): {m[i, i]}")
    off = m + np.eye(n)  # mask the diagonal before the positivity scan
    zero_off = np.argwhere(off == 0.0)
    if len(zero_off):
        i, j = map(int, zero_off[0])
        raise ValueError(f"zero off-diagonal entry at ({i},{j}): distinct points must have positive distance")
    if not 1.0 <= s < math.inf:
        raise ValueError(f"relaxation coefficient s must be finite and >= 1, got {s}")
    m.setflags(write=False)
    return BMetricSpace(kind="matrix", s=float(s), matrix=m)


def _distance_table(space: BMetricSpace, sample: list) -> np.ndarray:
    """The n x n table d(sample[i], sample[j]), each entry equal to dist
    bit for bit. A power space evaluates the n(n-1)/2 pairs i < j in one
    dists call and mirrors them, leaving the diagonal at 0: fl(a - b) is
    -fl(b - a), so its distance is exactly symmetric, and 0.0**p is 0. A
    matrix space gathers all n**2 entries, both orders, since a hand-built
    matrix can be asymmetric and symmetry is one of the axioms checked.

    A distance that overflows names its pair (the first in index order,
    which on a symmetric table has i < j) here, before any check or
    reduction does arithmetic on it."""
    n = len(sample)
    table = space.point_table(sample)
    if space.kind == "matrix":
        dmat = space.dists(np.repeat(table, n), np.tile(table, n)).reshape(n, n)
    else:
        upper = np.triu_indices(n, 1)
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
    """min over k of dmat[i,k] + dmat[k,j] for every (i, j); a sum that
    overflows is inf (callers scope the overflow warning).

    A symmetric table (dmat == dmat.T, as every power-space table and every
    matrix make_matrix_space accepts) reduces only the columns j >= lo of a
    block of rows lo..hi and mirrors them, about n**3/2 sums: float addition
    commutes, so the minimum for (i, j) is that for (j, i), up to the sign
    of a zero. Any other table reduces every column."""
    n = len(dmat)
    symmetric = bool((dmat == dmat.T).all())
    # row j of cols is column j of dmat, so each sum runs along a contiguous axis
    cols = dmat if symmetric else dmat.T.copy()
    best = np.empty_like(dmat)
    lo = 0
    while lo < n:
        first = lo if symmetric else 0
        hi = min(n, lo + max(1, _BLOCK_SUMS // ((n - first) * n)))
        block = np.fmin.reduce(dmat[lo:hi, None, :] + cols[None, first:, :], axis=2)
        best[lo:hi, first:] = block
        if symmetric:
            best[lo:, lo:hi] = block.T
        lo = hi
    return best


def _coincide(space: BMetricSpace, sample: list) -> tuple[np.ndarray, np.ndarray]:
    """Two n x n masks over the sample: the points are equal (as Python
    values), and they coincide (equal ids, or every coordinate within
    COORD_TOL)."""
    if space.kind == "matrix":
        ids = np.asarray(sample)
        same = ids[:, None] == ids[None, :]
        return same, same
    coords = np.array(sample, dtype=float).T
    same = np.ones((len(sample), len(sample)), dtype=bool)
    close = same.copy()
    with np.errstate(all="ignore"):
        for xs in coords:
            same &= xs[:, None] == xs[None, :]
            close &= np.abs(xs[:, None] - xs[None, :]) <= COORD_TOL
    return same, close


def verify_axioms(space: BMetricSpace, sample: list, tol: float = 0.0) -> AxiomReport:
    """Check the b-metric axioms on every ordered pair/triple of the sample.

    identity:         d(x,y) = 0 exactly when the points coincide (zero is
                      read up to tol on formula-backed spaces, and point
                      coincidence up to coordinate tolerance 1e-12);
    symmetry:         |d(x,y) - d(y,x)| <= tol;
    relaxed-triangle: d(x,y) <= s*(d(x,z) + d(z,y)) + tol.

    tol is relative: each check reads it as tol times the largest sample
    distance (tol = 0 is exact). It must be finite and >= 0.

    Violations are data, not errors; each carries its witnesses and both
    sides of the failed inequality, ordered by smallest index tuple first.
    A sample distance that is not finite (finite coordinates can overflow)
    is an error: ValueError names the first such pair.

    On n points this evaluates n(n-1)/2 dists entries in a power space and
    n**2 in a matrix space (see _distance_table), and about n**3/2
    via-point sums on a symmetric table, n**3 otherwise (see _via_minimum).
    """
    if not sample:
        raise ValueError("sample must be nonempty")
    if not 0.0 <= tol < math.inf:  # a nan tol would pass every check
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    for x in sample:
        space.check_point(x)

    violations: list[AxiomViolation] = []
    dmat = _distance_table(space, sample)
    tol = tol * float(dmat.max())

    # identity and symmetry for every ordered pair (i, j), in index order
    # and identity first
    same, close = _coincide(space, sample)
    zero_d = (dmat == 0.0) if space.kind == "matrix" else (dmat <= tol)
    identity = (same & (dmat != 0.0)) | (zero_d & ~close)
    symmetry = np.abs(dmat - dmat.T) > tol
    for i, j, sym in np.argwhere(np.stack([identity, symmetry], axis=-1)).tolist():
        lhs = float(dmat[i, j])
        if sym:
            violations.append(AxiomViolation("symmetry", (sample[i], sample[j]), lhs, float(dmat[j, i])))
        else:
            violations.append(AxiomViolation("identity", (sample[i], sample[j]), lhs, 0.0))

    # Relaxed triangle: the right-hand side s*(a + b) + tol never falls as
    # the sum a + b grows, rounding included, so some via-point k violates
    # it exactly when the smallest sum over k does. The block reduction finds
    # the violating pairs; only those are scanned point by point, which
    # yields (i, j, k) in index order. A right-hand side that overflows is
    # inf, which no distance exceeds.
    s = space.s
    with np.errstate(over="ignore"):
        for i, j in np.argwhere(dmat > s * _via_minimum(dmat) + tol).tolist():
            rhs = s * (dmat[i] + dmat[:, j]) + tol
            for k in np.flatnonzero(dmat[i, j] > rhs).tolist():
                violations.append(
                    AxiomViolation(
                        "relaxed-triangle", (sample[i], sample[j], sample[k]), float(dmat[i, j]), float(rhs[k])
                    )
                )

    return AxiomReport(passed=not violations, violations=tuple(violations))


def estimate_min_s(space: BMetricSpace, sample: list) -> float:
    """Tightest relaxation coefficient on the sample: the largest ratio
    d(x,y) / (d(x,z) + d(z,y)) over triples with x != y, clamped below at 1.

    Denominators that are not positive are skipped (zero ones need
    d(x,z) = d(z,y) = 0, which distances that underflow can give even where
    d(x,y) > 0; negative ones only a hand-built table). Requires at least two
    points at positive distance, and finite distances, as verify_axioms.
    """
    for x in sample:
        space.check_point(x)
    dmat = _distance_table(space, sample)
    positive = dmat > 0.0
    if not positive.any():
        raise ValueError("sample needs at least 2 distinct points")

    # d / x never grows as x does, so each pair's largest ratio is its
    # distance over its smallest positive via-point sum. The few pairs whose
    # minimum is not positive (a zero sum, or a negative entry in a
    # hand-built table) are reduced again over their positive sums only.
    with np.errstate(over="ignore"):
        low = _via_minimum(dmat)
        for i, j in np.argwhere(positive & (low <= 0.0)).tolist():
            den = dmat[i] + dmat[:, j]
            low[i, j] = den[den > 0.0].min(initial=math.inf)
        return max(1.0, float((dmat[positive] / low[positive]).max()))
