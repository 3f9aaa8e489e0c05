"""Problem instances: built-ins, seeded generation, JSON I/O.

Scenario JSON schema (all keys lower-case):

    {
      "space":    {"kind": "power", "dim": int, "p": float}
                | {"kind": "matrix", "n": int, "s": float, "d": [[...]]},
      "map":      {"kind": "branches", "branches": [{"A": [[...]], "b": [...]}]}
                | {"kind": "table", "images": {"<point-id>": [<point-id>, ...]}},
      "params":   {"c": float, "q": float, "alpha": float, "beta": float?},
      "x0":       [coords...] | id,
      "x1":       ([coords...] | id)?,
      "tol":      float,
      "max_iter": int,
      "seed":     int?,
      "sample":   {"kind": "grid", "lo": float, "hi": float, "step": float}
                | {"kind": "points", "pts": [...]}
    }

The built-in "paper-example" scenario is the squared-distance line (s = 2)
under the single branch x -> 0.9x, certified on the grid -1.0..1.0 step 0.1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from itertools import repeat
from math import cos, dist as _euclid, floor, inf, pi, sin
from sys import float_info

import numpy as np

from .bspace import BMetricSpace, _distance_table, make_matrix_space, make_power_space
from .jsonutil import dumps_canonical
from .orbit import beta_limit
from .quasicontraction import (
    ContractionCertificate,
    QuasiParams,
    SetValuedMap,
    certify,
    make_branch_map,
    make_table_map,
)
from .rng import SplitMix64


class ScenarioFormatError(ValueError):
    """Schema violation; the message names the offending field path."""


@dataclass(frozen=True)
class GridSample:
    lo: float
    hi: float
    step: float


@dataclass(frozen=True)
class PointsSample:
    pts: tuple


@dataclass(frozen=True, eq=False)
class Scenario:
    """A problem instance: the built space and map, the run parameters and
    the certification sample. Construction is the one place that checks a
    scenario: 0 < tol < inf, max_iter >= 1, beta in (alpha, beta_limit(q,
    s)), and x0, x1 and every sample point against the space. Two scenarios
    are equal when their canonical JSON objects are."""

    space: BMetricSpace
    map: SetValuedMap
    params: QuasiParams
    x0: tuple | int
    x1: tuple | int | None
    tol: float
    max_iter: int
    seed: int | None
    sample: GridSample | PointsSample

    def __post_init__(self):
        if not 0 < self.tol < inf:  # JSON output (the digest, the report) has no inf
            raise ScenarioFormatError(f"tol must be positive and finite, got {self.tol}")
        if not self.max_iter >= 1:
            raise ScenarioFormatError(f"max_iter must be >= 1, got {self.max_iter}")
        p, hi = self.params, beta_limit(self.params.q, self.space.s)
        if p.beta is not None and not p.alpha < p.beta < hi:
            raise ScenarioFormatError(f"params.beta {p.beta} outside (alpha, min(1, 1/(q*s))) = ({p.alpha}, {hi})")
        self.space.check_point(self.x0)
        if self.x1 is not None:
            self.space.check_point(self.x1)
        for pt in sample_points(self):
            self.space.check_point(pt)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return dumps_canonical(scenario_to_obj(self)) == dumps_canonical(scenario_to_obj(other))


BUILTIN_NAMES = ("paper-example", "random-finite")
MAX_GRID_POINTS = 100_000  # certify is quadratic in the sample; the largest one in use has 201 points


def paper_example() -> Scenario:
    """The built-in quadratic-line instance: d(x,y) = (x-y)^2, T(x) = {0.9x}."""
    space = make_power_space(1, 2.0)
    return Scenario(
        space=space,
        map=make_branch_map(space, [([[0.9]], [0.0])]),
        params=QuasiParams(c=0.0, q=0.0, alpha=0.9),
        x0=(1.0,),
        x1=None,
        tol=1e-10,
        max_iter=1000,
        seed=None,
        sample=GridSample(lo=-1.0, hi=1.0, step=0.1),
    )


def builtin(name: str, seed: int | None = None) -> Scenario:
    """Resolve a built-in scenario name ("paper-example" or "random-finite")."""
    if name == "paper-example":
        return paper_example()
    if name == "random-finite":
        sc, _cert = random_finite(seed if seed is not None else 2024, n_points=8, p=2.0, alpha_cap=0.6)
        return sc
    raise ScenarioFormatError(f"unknown builtin scenario: {name}")


def instantiate(sc: Scenario) -> tuple[BMetricSpace, SetValuedMap]:
    """The scenario's space and map (built and checked with the scenario)."""
    return sc.space, sc.map


def sample_points(sc: Scenario) -> list:
    """Materialize the certification sample (grid or explicit list). A grid
    holds lo + i*step for every whole number i of steps that ends at or
    below hi; one of more than MAX_GRID_POINTS points is rejected before it
    is built."""
    if isinstance(sc.sample, GridSample):
        g = sc.sample
        if sc.space.kind != "power" or sc.space.dim != 1:
            raise ScenarioFormatError("sample.kind 'grid' needs a 1-dimensional power space")
        if not g.step > 0 or not g.hi > g.lo:
            raise ScenarioFormatError("sample grid needs step > 0 and hi > lo")
        steps = (g.hi - g.lo) / g.step
        # whole steps up to hi; the slack keeps the point at hi when the
        # division rounds just below a whole number (2 / 0.1 = 19.999999999999996)
        count = floor(steps * (1.0 + 1e-12)) + 1 if steps < MAX_GRID_POINTS else MAX_GRID_POINTS + 1
        if count > MAX_GRID_POINTS:
            raise ScenarioFormatError(
                f"sample grid {g.lo}..{g.hi} step {g.step} has too many points (over {MAX_GRID_POINTS})"
            )
        return [(g.lo + i * g.step,) for i in range(count)]
    return list(sc.sample.pts)


def certify_scenario(sc: Scenario) -> ContractionCertificate:
    return certify(sc.space, sc.map, sample_points(sc), sc.params.c, sc.params.q)


def random_finite(
    seed: int, n_points: int, p: float, alpha_cap: float
) -> tuple[Scenario, ContractionCertificate]:
    """Seeded finite instance whose exhaustive certificate satisfies
    alpha_min <= alpha_cap and the max(alpha*c*s, alpha*q*s) < 1 verdict.

    Planar points get p-power euclidean distances (s = 2**(p-1)); the map
    sends each point one hop along a contraction orbit toward a designated
    root (sometimes with a second image element), so the root is a fixed
    point by construction. Candidates whose chains cannot be placed or
    trimmed, or that certify badly, are rejected and rebuilt from a derived
    seed; after 1000 rejections RuntimeError is raised. Generation is a pure
    function of the arguments. The accepted scenario's alpha is tightened to
    the certified minimum.
    """
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0.0 < alpha_cap < 1.0:
        raise ValueError(f"alpha_cap must be in (0,1), got {alpha_cap}")

    master = SplitMix64(seed)
    for _attempt in range(1000):
        rng = master.derive()
        try:
            sc = _build_candidate(rng, seed, n_points, p, alpha_cap)
        except _PlacementError:
            continue
        cert = certify_scenario(sc)
        if cert.alpha_min <= alpha_cap and cert.verdicts["thm33"]:
            # tighten the declared alpha to the certified minimum; the
            # certificate's verdicts are already evaluated there
            return replace(sc, params=replace(sc.params, alpha=cert.alpha_min)), cert
    raise RuntimeError(f"no acceptable instance after 1000 rejections (seed {seed})")


_SEPARATION = 0.04  # cross-chain spacing; keeps positive distances far above tolerances
_STOP_RADIUS = 0.06  # chain points inside this radius snap to the root
_MAX_CHAINS = 2000  # chain starts a candidate may draw before it is rejected
_BLOCK = 64  # chain starts drawn at once
_RUN = 16  # chains rolled back in a row before a placement starts screening
_SCREEN_STEPS = 6  # steps the screen follows a start; lam < 0.3 stops chains within 3
_MARGIN = 1e-9  # relative margin on squared thresholds, far above their rounding


class _PlacementError(RuntimeError):
    """A candidate whose chains cannot be placed or trimmed; random_finite
    rejects it like one that certifies badly."""


def _build_candidate(rng: SplitMix64, seed: int, n_points: int, p: float, alpha_cap: float) -> Scenario:
    # Points are orbits of one affine euclidean contraction
    # F(z) = u + lam*R(z - u) toward the root u, and each orbit point maps to
    # its successor, so almost every pair certifies at exactly lam**p.
    # Chains end either inside the stop radius (snapping to the root) or by
    # grafting onto an existing point that sits within a tight tolerance of
    # the true next orbit point. The lambda / separation / graft budgets keep
    # every snapped pair under the cap too; the outer rejection loop vetoes
    # the occasional geometric fluke or bad garnish.
    cap_e = alpha_cap ** (1.0 / p)  # per-step budget in euclidean terms
    lam = rng.uniform(0.15 * cap_e, 0.3 * cap_e)
    graft_tol = 0.3 * cap_e * _SEPARATION
    theta = rng.uniform(0.0, 2.0 * pi)
    u = (rng.uniform(0.35, 0.65), rng.uniform(0.35, 0.65))
    ct, st = cos(theta), sin(theta)

    def step(z):  # also steps a pair of coordinate arrays, element-wise
        dx, dy = z[0] - u[0], z[1] - u[1]
        return (u[0] + lam * (ct * dx - st * dy), u[1] + lam * (st * dx + ct * dy))

    placed, succ = _place_chains(rng, n_points, u, step, graft_tol)

    # trim outermost unreferenced points until exactly n_points remain
    while len(placed) > n_points:
        indeg = {w: 0 for w in placed}
        for a, b in succ.items():
            if a != b:
                indeg[b] += 1
        free = [w for w in placed if indeg[w] == 0 and w != u]
        if not free:
            raise _PlacementError("cannot trim without breaking the map closure")
        victim = max(free, key=lambda w: _euclid(w, u))
        placed.remove(victim)
        del succ[victim]

    pts = list(placed)
    index = {z: i for i, z in enumerate(pts)}
    images: dict[int, tuple[int, ...]] = {index[a]: (index[b],) for a, b in succ.items()}

    # occasional second image elements (the successor's successor or a
    # nearby fellow root-end); the certificate gates what survives
    non_root = [w for w in pts if w != u]
    for _ in range(2):
        if rng.uniform() < 0.35:
            a = non_root[rng.randrange(len(non_root))]
            b = succ[a]
            if succ[b] not in (a, b):
                images[index[a]] = (index[b], index[succ[b]])
    ends = [w for w in non_root if succ[w] == u]
    if len(ends) >= 2 and rng.uniform() < 0.35:
        e = ends[rng.randrange(len(ends))]
        near = min((w for w in ends if w != e), key=lambda w: (_euclid(e, w), index[w]))
        images[index[e]] = (0, index[near])

    plane = make_power_space(2, p)
    d = _distance_table(plane, pts)
    s = plane.s

    # keep the side conditions reachable: q (and c) below 0.9/(alpha_cap*s)
    coeff_hi = min(1.0, 0.9 / (alpha_cap * s))
    c = rng.uniform(0.0, coeff_hi)
    q = rng.uniform(0.0, coeff_hi)
    x0 = 1 + rng.randrange(n_points - 1)  # start away from the root

    space = make_matrix_space(n_points, d, s)
    return Scenario(
        space=space,
        map=make_table_map(space, images),
        params=QuasiParams(c=c, q=q, alpha=alpha_cap),
        x0=x0,
        x1=None,
        tol=1e-9,
        max_iter=1000,
        seed=seed,
        sample=PointsSample(pts=tuple(range(n_points))),
    )


def _place_chains(rng: SplitMix64, n_points: int, u, step, graft_tol: float):
    """Grow chains toward the root u until at least n_points are placed;
    returns (placed points, successor map). Each chain start takes two
    draws, r0 and ang. They are read _BLOCK starts at a time, and the
    generator is advanced past the starts used, so it ends where one
    uniform() call per draw would leave it. From the first run of _RUN
    rollbacks on, each block gets a _Screen that takes every accepted chain,
    and the starts it proves roll back skip the chain body."""
    placed: list[tuple[float, float]] = [u]
    succ: dict[tuple[float, float], tuple[float, float]] = {u: u}
    drawn = run = 0
    while len(placed) < n_points:
        if drawn == _MAX_CHAINS:
            raise _PlacementError("could not place separated chains")
        units = rng.peek_uniforms(2 * min(_BLOCK, _MAX_CHAINS - drawn))
        # uniform(0.18, 0.5) and uniform(0, 2*pi): uniform's own affine step
        r0s = (0.18 + (0.5 - 0.18) * units[0::2]).tolist()
        angs = ((2.0 * pi) * units[1::2]).tolist()
        zx = [u[0] + r0 * cos(ang) for r0, ang in zip(r0s, angs)]
        zy = [u[1] + r0 * sin(ang) for r0, ang in zip(r0s, angs)]
        i, screen = 0, None
        while i < len(zx) and len(placed) < n_points:
            if screen is None and run >= _RUN:
                screen = _Screen(zx, zy, placed, u, step, graft_tol)
            if screen is not None and (i := screen.next_open(i)) == len(zx):
                break
            chain, target = _follow((zx[i], zy[i]), placed, u, step, graft_tol)
            i += 1
            if target is None:
                run += 1  # rolled back
                continue
            for a, b in zip(chain, chain[1:]):
                succ[a] = b
            succ[chain[-1]] = target
            placed.extend(chain)
            if screen is None:
                run = 0
            else:
                screen.add(chain)
        rng.advance(2 * i)
        drawn += i
    return placed, succ


def _follow(z, placed, u, step, graft_tol):
    """One chain from start z: (its points, the point its last one maps to),
    with target None when the chain rolls back. The nearest placed point is
    the first one at the smallest math.dist."""
    chain: list[tuple[float, float]] = []
    while True:
        ds = list(map(_euclid, repeat(z), placed))
        gap = min(ds)
        if chain and gap <= graft_tol:
            return chain, placed[ds.index(gap)]
        if gap < _SEPARATION:
            return chain, None  # too close to graft, too far to ignore: roll back
        chain.append(z)
        if _euclid(z, u) <= _STOP_RADIUS:
            return chain, u
        z = step(z)


class _Screen:
    """Which starts (zx[b], zy[b]) of a block surely roll back among the
    placed points, followed for up to _SCREEN_STEPS steps as arrays through
    the same step (the same bits) until none can be live. gaps[k, b] is the
    smallest squared gap from start b's k-th point to a placed point; add()
    lowers it by a min, which does not depend on order, so the marks equal a
    fresh screen's. A test of _follow is decided only where a squared gap
    clears its squared threshold by the relative _MARGIN (a square sum and
    math.dist squared differ by a few ulps). Every coordinate is a sum onto
    u's scale, a multiple of 2**-56, so a squared gap is 0 or a normal float
    and the margin holds even where graft_tol**2 underflows."""

    def __init__(self, zx, zy, placed, u, step, graft_tol: float):
        lo, hi = 1.0 - _MARGIN, 1.0 + _MARGIN
        self.sep_lo, self.sep_hi, self.graft_hi = _SEPARATION**2 * lo, _SEPARATION**2 * hi, graft_tol**2 * hi
        pts, xs, ys = np.array(placed), np.array(zx), np.array(zy)
        rows, live = [], np.ones(len(zx), dtype=bool)
        while True:
            gap, far = _gaps(xs, ys, pts), (xs - u[0]) ** 2 + (ys - u[1]) ** 2 > _STOP_RADIUS**2 * hi
            rows.append((xs, ys, gap, far))
            live &= (gap > self.sep_hi) & far
            if len(rows) == _SCREEN_STEPS or not live.any():
                break
            xs, ys = step((xs, ys))
        self.xs, self.ys, self.gaps, self.far = map(np.array, zip(*rows))
        self._mark()

    def _mark(self):
        # goes[k, b]: b surely goes on past point k; from point 1 on, close may be a graft
        goes = np.logical_and.accumulate((self.gaps > self.sep_hi) & self.far, axis=0)
        close = self.gaps < self.sep_lo
        close[1:] &= (self.gaps[1:] > self.graft_hi) & goes[:-1]
        self.skip = close.any(axis=0)

    def add(self, chain):
        """Lower the gaps with an accepted chain's points and mark again."""
        np.minimum(self.gaps, _gaps(self.xs, self.ys, np.array(chain)), out=self.gaps)
        self._mark()

    def next_open(self, i: int) -> int:
        """The first start from i on that is not a sure rollback (the block's length if none)."""
        rest = np.flatnonzero(~self.skip[i:])
        return i + int(rest[0]) if rest.size else len(self.skip)


def _gaps(xs, ys, pts):
    """The smallest squared gap from each point (xs, ys) to the points pts."""
    return ((xs[..., None] - pts[:, 0]) ** 2 + (ys[..., None] - pts[:, 1]) ** 2).min(axis=-1)


# --- JSON (de)serialization -------------------------------------------------

def scenario_to_obj(sc: Scenario) -> dict:
    """The scenario's JSON object, read off the built space and map. Points
    and matrix rows stay tuples; dumps_canonical writes them as arrays."""
    if sc.space.kind == "power":
        space = {"kind": "power", "dim": sc.space.dim, "p": sc.space.p}
    else:
        space = {"kind": "matrix", "n": sc.space.n_points, "s": sc.space.s, "d": sc.space.matrix.tolist()}
    if sc.map.kind == "branches":
        mp = {"kind": "branches", "branches": [{"A": a, "b": b} for a, b in sc.map.branches]}
    else:
        mp = {"kind": "table", "images": {str(k): v.elements for k, v in sc.map.table.items()}}
    params = {"c": sc.params.c, "q": sc.params.q, "alpha": sc.params.alpha}
    if sc.params.beta is not None:
        params["beta"] = sc.params.beta
    if isinstance(sc.sample, GridSample):
        sample = {"kind": "grid", "lo": sc.sample.lo, "hi": sc.sample.hi, "step": sc.sample.step}
    else:
        sample = {"kind": "points", "pts": sc.sample.pts}
    obj = {
        "space": space,
        "map": mp,
        "params": params,
        "x0": sc.x0,
        "tol": sc.tol,
        "max_iter": sc.max_iter,
        "sample": sample,
    }
    if sc.x1 is not None:
        obj["x1"] = sc.x1
    if sc.seed is not None:
        obj["seed"] = sc.seed
    return obj


class _Field:
    """A JSON value and its field path. The typed reads (object, list,
    number, integer and their combinations) raise ScenarioFormatError
    naming the path."""

    def __init__(self, value, path: str = ""):
        self.value, self.path = value, path

    def _expect(self, what: str, ok: bool):
        if not ok:
            raise ScenarioFormatError(f"expected {what} at {self.path or 'the top level'}, got {self.value!r}")
        return self.value

    def as_obj(self) -> dict:
        return self._expect("an object", isinstance(self.value, dict))

    def as_list(self) -> list[_Field]:
        items = self._expect("a list", isinstance(self.value, list))
        return [_Field(v, f"{self.path}[{i}]") for i, v in enumerate(items)]

    def as_num(self) -> float:
        v = self.value  # an integer literal beyond the float range is rejected, not rounded
        ok = isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool) and abs(v) <= float_info.max)
        return float(self._expect("a number", ok))

    def as_nums(self) -> list[float]:
        return [v.as_num() for v in self.as_list()]

    def as_rows(self) -> list[list[float]]:
        return [row.as_nums() for row in self.as_list()]

    def as_int(self) -> int:
        return self._expect("an integer", isinstance(self.value, int) and not isinstance(self.value, bool))

    def as_point(self):
        """A coordinate list as a tuple of floats, or an integer point id."""
        return tuple(self.as_nums()) if isinstance(self.value, list) else self.as_int()

    def __getitem__(self, key: str) -> _Field:
        path = f"{self.path}.{key}" if self.path else key
        if key not in self.as_obj():
            raise ScenarioFormatError(f"missing field: {path}")
        return _Field(self.value[key], path)

    def get(self, key: str, read):
        """read(self[key]) for an optional field, None when it is absent."""
        return read(self[key]) if key in self.as_obj() else None


def scenario_from_obj(obj) -> Scenario:
    """Read a scenario's JSON object. Each field is read once, by type;
    building the space, map and Scenario checks the values."""
    root = _Field(obj)
    sp = root["space"]
    kind = sp["kind"].value
    if kind == "power":
        space = make_power_space(sp["dim"].as_int(), sp["p"].as_num())
    elif kind == "matrix":
        space = make_matrix_space(sp["n"].as_int(), sp["d"].as_rows(), sp["s"].as_num())
    else:
        raise ScenarioFormatError(f"unknown space.kind: {kind!r}")

    mp = root["map"]
    mkind = mp["kind"].value
    if mkind == "branches":
        # make_branch_map checks the shapes and normalizes to tuples
        tmap = make_branch_map(space, [(br["A"].as_rows(), br["b"].as_nums()) for br in mp["branches"].as_list()])
    elif mkind == "table":
        raw = mp["images"]
        images, named_by = {}, {}
        for k in raw.as_obj():
            try:
                key = int(k)
            except ValueError:
                raise ScenarioFormatError(f"non-integer point id in map.images: {k!r}") from None
            if key in named_by:
                raise ScenarioFormatError(f"map.images keys {named_by[key]!r} and {k!r} both name point {key}")
            named_by[key] = k
            images[key] = tuple(j.as_int() for j in raw[k].as_list())
        tmap = make_table_map(space, images)
    else:
        raise ScenarioFormatError(f"unknown map.kind: {mkind!r}")

    pr = root["params"]
    c, q, alpha, beta = pr["c"].as_num(), pr["q"].as_num(), pr["alpha"].as_num(), pr.get("beta", _Field.as_num)
    try:
        params = QuasiParams(c=c, q=q, alpha=alpha, beta=beta)
    except ValueError as exc:
        raise ScenarioFormatError(f"params: {exc}") from None

    sm = root["sample"]
    skind = sm["kind"].value
    if skind == "grid":
        sample = GridSample(lo=sm["lo"].as_num(), hi=sm["hi"].as_num(), step=sm["step"].as_num())
    elif skind == "points":
        sample = PointsSample(pts=tuple(v.as_point() for v in sm["pts"].as_list()))
    else:
        raise ScenarioFormatError(f"unknown sample.kind: {skind!r}")

    return Scenario(
        space=space,
        map=tmap,
        params=params,
        x0=root["x0"].as_point(),
        x1=root.get("x1", _Field.as_point),
        tol=root["tol"].as_num(),
        max_iter=root["max_iter"].as_int(),
        seed=root.get("seed", _Field.as_int),
        sample=sample,
    )


def scenario_digest(sc: Scenario) -> str:
    return hashlib.sha256(dumps_canonical(scenario_to_obj(sc)).encode()).hexdigest()


def save(sc: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(scenario_to_obj(sc)) + "\n")


def load(path) -> Scenario:
    """Parse a scenario file and build its space and map (bad spaces, maps
    and points fail here)."""
    with open(path) as fh:
        return scenario_from_obj(json.load(fh))
