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
from math import cos, dist as _euclid, pi, sin

from .bspace import BMetricSpace, make_matrix_space, make_power_space
from .jsonutil import dumps_canonical
from .quasicontraction import (
    ContractionCertificate,
    QuasiParams,
    SetValuedMap,
    all_pairs,
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
    the certification sample. Construction checks x0, x1 and every sample
    point against the space. Two scenarios are equal when their canonical
    JSON objects are."""

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
    """Materialize the certification sample (grid or explicit list)."""
    if isinstance(sc.sample, GridSample):
        g = sc.sample
        if sc.space.kind != "power" or sc.space.dim != 1:
            raise ScenarioFormatError("sample.kind 'grid' needs a 1-dimensional power space")
        if not g.step > 0 or not g.hi > g.lo:
            raise ScenarioFormatError("sample grid needs step > 0 and hi > lo")
        n = round((g.hi - g.lo) / g.step)
        return [(g.lo + i * g.step,) for i in range(n + 1)]
    return list(sc.sample.pts)


def certification_pairs(sc: Scenario) -> list[tuple]:
    return all_pairs(sample_points(sc))


def certify_scenario(sc: Scenario) -> ContractionCertificate:
    return certify(sc.space, sc.map, certification_pairs(sc), sc.params.c, sc.params.q)


def random_finite(
    seed: int, n_points: int, p: float, alpha_cap: float
) -> tuple[Scenario, ContractionCertificate]:
    """Seeded finite instance whose exhaustive certificate satisfies
    alpha_min <= alpha_cap and the max(alpha*c*s, alpha*q*s) < 1 verdict.

    Planar points get p-power euclidean distances (s = 2**(p-1)); the map
    sends each point one hop along a contraction orbit toward a designated
    root (sometimes with a second image element), so the root is a fixed
    point by construction. Candidates that certify badly are rejected and
    rebuilt from a derived seed; generation is a pure function of the seed.
    The accepted scenario's alpha is tightened to the certified minimum.
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
        sc = _build_candidate(rng, seed, n_points, p, alpha_cap)
        cert = certify_scenario(sc)
        if cert.alpha_min <= alpha_cap and cert.verdicts["thm33"]:
            # tighten the declared alpha to the certified minimum; the
            # certificate's verdicts are already evaluated there
            return replace(sc, params=replace(sc.params, alpha=cert.alpha_min)), cert
    raise RuntimeError(f"no acceptable instance after 1000 rejections (seed {seed})")


_SEPARATION = 0.04  # cross-chain spacing; keeps positive distances far above tolerances
_STOP_RADIUS = 0.06  # chain points inside this radius snap to the root


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

    def step(z):
        dx, dy = z[0] - u[0], z[1] - u[1]
        return (u[0] + lam * (ct * dx - st * dy), u[1] + lam * (st * dx + ct * dy))

    placed: list[tuple[float, float]] = [u]
    succ: dict[tuple[float, float], tuple[float, float]] = {u: u}

    guard = 0
    while len(placed) < n_points:
        guard += 1
        if guard > 2000:
            raise RuntimeError("could not place separated chains")
        r0 = rng.uniform(0.18, 0.5)
        ang = rng.uniform(0.0, 2.0 * pi)
        z = (u[0] + r0 * cos(ang), u[1] + r0 * sin(ang))
        chain: list[tuple[float, float]] = []
        target = None
        while True:
            near = min(placed, key=lambda w: _euclid(z, w))
            gap = _euclid(z, near)
            if chain and gap <= graft_tol:
                target = near
                break
            if gap < _SEPARATION:
                break  # too close to graft, too far to ignore: roll back
            chain.append(z)
            if _euclid(z, u) <= _STOP_RADIUS:
                target = u
                break
            z = step(z)
        if target is not None and chain:
            for a, b in zip(chain, chain[1:]):
                succ[a] = b
            succ[chain[-1]] = target
            placed.extend(chain)

    # trim outermost unreferenced points until exactly n_points remain
    while len(placed) > n_points:
        indeg = {w: 0 for w in placed}
        for a, b in succ.items():
            if a != b:
                indeg[b] += 1
        free = [w for w in placed if indeg[w] == 0 and w != u]
        if not free:
            raise RuntimeError("cannot trim without breaking the map closure")
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

    d = [[_euclid(a, b) ** p for b in pts] for a in pts]
    s = max(1.0, 2.0 ** (p - 1.0))

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


def _need(obj: dict, key: str, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ScenarioFormatError(f"missing field: {path}{key}")
    return obj[key]


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioFormatError(f"expected a number at {path}, got {v!r}")
    return float(v)


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioFormatError(f"expected an integer at {path}, got {v!r}")
    return v


def _point_from_obj(v, path: str):
    if isinstance(v, list):
        return tuple(_as_float(coord, f"{path}[{i}]") for i, coord in enumerate(v))
    return _as_int(v, path)


def scenario_from_obj(obj: dict) -> Scenario:
    space_obj = _need(obj, "space", "")
    kind = _need(space_obj, "kind", "space.")
    if kind == "power":
        space = make_power_space(
            _as_int(_need(space_obj, "dim", "space."), "space.dim"),
            _as_float(_need(space_obj, "p", "space."), "space.p"),
        )
    elif kind == "matrix":
        rows = _need(space_obj, "d", "space.")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ScenarioFormatError("expected a list of rows at space.d")
        space = make_matrix_space(
            _as_int(_need(space_obj, "n", "space."), "space.n"),
            [[_as_float(v, f"space.d[{i}][{j}]") for j, v in enumerate(r)] for i, r in enumerate(rows)],
            _as_float(_need(space_obj, "s", "space."), "space.s"),
        )
    else:
        raise ScenarioFormatError(f"unknown space.kind: {kind!r}")

    map_obj = _need(obj, "map", "")
    mkind = _need(map_obj, "kind", "map.")
    if mkind == "branches":
        raw = _need(map_obj, "branches", "map.")
        branches = []
        for i, br in enumerate(raw):
            a = _need(br, "A", f"map.branches[{i}].")
            b = _need(br, "b", f"map.branches[{i}].")
            # make_branch_map checks the shapes and normalizes to tuples
            branches.append(
                ([[_as_float(v, f"map.branches[{i}].A") for v in row] for row in a],
                 [_as_float(v, f"map.branches[{i}].b") for v in b])
            )
        tmap = make_branch_map(space, branches)
    elif mkind == "table":
        raw = _need(map_obj, "images", "map.")
        images = {}
        for k, v in raw.items():
            try:
                key = int(k)
            except ValueError:
                raise ScenarioFormatError(f"non-integer point id in map.images: {k!r}") from None
            images[key] = tuple(_as_int(j, f"map.images[{k}]") for j in v)
        tmap = make_table_map(space, images)
    else:
        raise ScenarioFormatError(f"unknown map.kind: {mkind!r}")

    params_obj = _need(obj, "params", "")
    try:
        params = QuasiParams(
            c=_as_float(_need(params_obj, "c", "params."), "params.c"),
            q=_as_float(_need(params_obj, "q", "params."), "params.q"),
            alpha=_as_float(_need(params_obj, "alpha", "params."), "params.alpha"),
            beta=(_as_float(params_obj["beta"], "params.beta") if "beta" in params_obj else None),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"params: {exc}") from None

    sample_obj = _need(obj, "sample", "")
    skind = _need(sample_obj, "kind", "sample.")
    if skind == "grid":
        sample = GridSample(
            lo=_as_float(_need(sample_obj, "lo", "sample."), "sample.lo"),
            hi=_as_float(_need(sample_obj, "hi", "sample."), "sample.hi"),
            step=_as_float(_need(sample_obj, "step", "sample."), "sample.step"),
        )
    elif skind == "points":
        pts = _need(sample_obj, "pts", "sample.")
        sample = PointsSample(pts=tuple(_point_from_obj(v, f"sample.pts[{i}]") for i, v in enumerate(pts)))
    else:
        raise ScenarioFormatError(f"unknown sample.kind: {skind!r}")

    tol = _as_float(_need(obj, "tol", ""), "tol")
    if not tol > 0:
        raise ScenarioFormatError(f"tol must be positive, got {tol}")
    max_iter = _as_int(_need(obj, "max_iter", ""), "max_iter")
    if max_iter < 1:
        raise ScenarioFormatError(f"max_iter must be >= 1, got {max_iter}")

    return Scenario(
        space=space,
        map=tmap,
        params=params,
        x0=_point_from_obj(_need(obj, "x0", ""), "x0"),
        x1=(_point_from_obj(obj["x1"], "x1") if "x1" in obj else None),
        tol=tol,
        max_iter=max_iter,
        seed=(_as_int(obj["seed"], "seed") if "seed" in obj else None),
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
