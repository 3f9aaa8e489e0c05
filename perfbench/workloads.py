"""Benchmark inputs and operations, and the output check for each operation.

Each workload draws its operations from a fixed pool of items. Item k is a
pure function of (workload, k) under the benchmark's own RNG (Python's
``random``, not ``bfixpoint.rng``), so a golden digest of its output can be
recorded once, at the commit that defined the benchmark (see golden.py).
The run seed picks which pool items run and in what order. The pool is
split into strata (``CYCLE`` slots by ``k % CYCLE``) of similar cost; every
round of the sequence visits each slot once in a seeded order, and a run
measures whole blocks of rounds, so every run has the same mix of costs
whatever the seed. A gen-sweep block is the whole pool, so every run
executes the same instances, and the ones random_finite fails on, in a
seeded order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from bfixpoint import cli, orbit, quasicontraction, scenarios

# The CLI pools are larger than the operations one run reaches. The
# gen-sweep pool is one block, so that every run holds the same failing
# instances and reports the same number of failures: its costs are spread
# thinly around the median (an instance takes one to several certification
# rounds), and only the whole pool gives every run the same share of them.
POOL = {"certify-grid": 360, "long-orbit": 128, "gen-sweep": 300}
CYCLE = {"certify-grid": 12, "long-orbit": 8, "gen-sweep": 3}
# Rounds per block: a block, a few seconds of work at most, is the unit a
# run measures whole and the list of operations a traced run repeats.
ROUNDS_PER_BLOCK = {"certify-grid": 1, "long-orbit": 1, "gen-sweep": 100}
WARMUP_OPS = 2
# A run times one block per this many seconds of its length, so that it
# sweeps the list four to ten times. The list depends only on the seed and
# the run length, never on the machine's speed, so every run of a workload
# times the same mix of slots.
SECONDS_PER_BLOCK = {"certify-grid": 7.5, "long-orbit": 10.0, "gen-sweep": 30.0}

# certify-grid slots: (command, sample points, branches, p, dim), in
# rising cost. 3 compare in 12 keeps verify:compare at 3:1, and the 2-D
# slots take the math.dist path for dim > 1. Slots 5-8 cost about the same,
# and so do slots 11-12, so that the median and the tail (the 11th largest
# of about 11 rounds) fall on plateaus rather than between two costs.
_CG_SLOTS = [
    ("verify", 41, 1, 0.5, 1),
    ("compare", 61, 1, 2.0, 1),
    ("verify", 45, 2, 1.5, 2),
    ("verify", 60, 1, 1.5, 2),
    ("verify", 57, 2, 1.0, 1),
    ("verify", 81, 1, 0.5, 1),
    ("verify", 81, 1, 2.0, 1),
    ("verify", 60, 2, 1.5, 2),
    ("verify", 97, 1, 2.0, 1),
    ("compare", 85, 2, 1.0, 1),
    ("compare", 113, 3, 1.0, 1),
    ("verify", 121, 3, 2.0, 1),
]

# long-orbit slots: (dim, branches, trace format, target orbit steps);
# csv:json is 3:1. The four middle slots cost about the same, so the
# median is taken over items from every part of the run, and so do the
# last three, for the tail.
_LO_SLOTS = [
    (1, 1, "csv", 500),
    (2, 1, "csv", 750),
    (1, 2, "json", 800),
    (1, 1, "csv", 850),
    (2, 2, "csv", 750),
    (1, 2, "csv", 1200),
    (2, 2, "csv", 1150),
    (2, 1, "json", 1100),
]

_GS_SIZES = (8, 16, 24)
GS_ALPHA_CAP = 0.6
_LO_TOL = 1e-10


def _item_rng(workload: str, k: int) -> random.Random:
    return random.Random(f"{workload}:{k}")


def _rotation(rng: random.Random, scale: float, angle: float) -> list:
    ca, sa = math.cos(angle), math.sin(angle)
    return [[scale * ca, -scale * sa], [scale * sa, scale * ca]]


def certify_grid_item(k: int) -> tuple[str, dict]:
    cmd, n, nb, p, dim = _CG_SLOTS[k % len(_CG_SLOTS)]
    rng = _item_rng("certify-grid", k)
    n = min(121, max(41, n + rng.randint(-2, 2)))
    branches = []
    for _ in range(nb):
        if dim == 1:
            a = [[rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.7)]]
        else:
            a = _rotation(rng, rng.uniform(0.2, 0.7), rng.uniform(0.0, 2.0 * math.pi))
        branches.append({"A": a, "b": [rng.uniform(-0.3, 0.3) for _ in range(dim)]})
    if dim == 1:
        lo, hi = -rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
        sample = {"kind": "grid", "lo": lo, "hi": hi, "step": (hi - lo) / (n - 1)}
    else:
        sample = {"kind": "points", "pts": [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(n)]}
    scenario = {
        "space": {"kind": "power", "dim": dim, "p": p},
        "map": {"kind": "branches", "branches": branches},
        # c, q > 0 keep all four terms of N live
        "params": {"c": rng.uniform(0.1, 0.9), "q": rng.uniform(0.1, 0.9), "alpha": rng.uniform(0.5, 0.95)},
        "x0": [rng.uniform(-1.0, 1.0) for _ in range(dim)],
        "tol": 1e-10,
        "max_iter": 1000,
        "sample": sample,
    }
    return cmd, scenario


def long_orbit_item(k: int) -> tuple[str, dict]:
    dim, nb, fmt, steps = _LO_SLOTS[k % len(_LO_SLOTS)]
    rng = _item_rng("long-orbit", k)
    p = 2.0
    rate = rng.uniform(0.98, 0.995)
    steps = steps * rng.uniform(0.95, 1.0)
    u = [rng.uniform(-0.5, 0.5) for _ in range(dim)]
    if dim == 1:
        a = [[rate]]
        gap = 1.0 - rate  # |x - T(x)| / |x - u|
    else:
        angle = rng.uniform(0.02, 0.2)
        a = _rotation(rng, rate, angle)
        gap = math.hypot(1.0 - rate * math.cos(angle), rate * math.sin(angle))
    # The residual d(x_n, T(x_n)) = (gap * rate**n * |x0 - u|)**p falls to
    # tol after about `steps` steps from this starting radius.
    radius = _LO_TOL ** (1.0 / p) / (gap * rate**steps)
    direction = rng.uniform(0.0, 2.0 * math.pi)
    x0 = [u[0] + radius] if dim == 1 else [u[0] + radius * math.cos(direction), u[1] + radius * math.sin(direction)]
    b = [u[i] - sum(a[i][j] * u[j] for j in range(dim)) for i in range(dim)]  # fixes u
    branches = [{"A": a, "b": b}]
    if nb == 2:
        # a translated copy far enough away that the orbit never selects it
        off = rng.uniform(5.0, 10.0)
        branches.append({"A": a, "b": [b[0] + off] + [bi - off for bi in b[1:]]})
    if dim == 1:
        sample = {"kind": "grid", "lo": u[0] - 1.0, "hi": u[0] + 1.0, "step": 2.0 / (rng.randint(11, 21) - 1)}
    else:
        sample = {"kind": "points", "pts": [[ui + rng.uniform(-1.0, 1.0) for ui in u] for _ in range(rng.randint(10, 15))]}
    contraction = rate**p
    scenario = {
        "space": {"kind": "power", "dim": dim, "p": p},
        "map": {"kind": "branches", "branches": branches},
        "params": {
            "c": rng.uniform(0.05, 0.95),
            "q": rng.uniform(0.05, 0.45),  # keeps alpha*q*s < 1 at s = 2
            "alpha": contraction + rng.uniform(0.2, 0.6) * (1.0 - contraction),
        },
        "x0": x0,
        "tol": _LO_TOL,
        "max_iter": 2000,
        "sample": sample,
    }
    return fmt, scenario


def gen_sweep_item(k: int) -> tuple[int, int]:
    """(random_finite seed, n_points); n cycles through 8, 16, 24."""
    return _item_rng("gen-sweep", k).getrandbits(31), _GS_SIZES[k % len(_GS_SIZES)]


def blocks(workload: str, seed: int):
    """Endless sequence of blocks of pool indices for a run seed. A block is
    ROUNDS_PER_BLOCK rounds; a round holds one item of every slot, in a
    seeded order."""
    rng = random.Random(seed)
    c, pool = CYCLE[workload], POOL[workload]
    slots = [rng.sample(range(s, pool, c), len(range(s, pool, c))) for s in range(c)]
    r = 0
    while True:
        block = []
        for _ in range(ROUNDS_PER_BLOCK[workload]):
            block += [slots[s][r % len(slots[s])] for s in rng.sample(range(c), c)]
            r += 1
        yield block


def timed_ops(workload: str, seed: int, seconds: float) -> tuple[list, list]:
    """(warm-up operations, the list of operations each sweep of a run
    of this many seconds times)."""
    run = blocks(workload, seed)
    warmup = next(run)[:WARMUP_OPS]
    n_blocks = max(1, round(seconds / SECONDS_PER_BLOCK[workload]))
    return warmup, [k for _ in range(n_blocks) for k in next(run)]


class Inputs:
    """The generated inputs of the given pool items: scenario files for
    the CLI workloads, (seed, n) pairs for gen-sweep."""

    def __init__(self, workload: str, workdir: Path, items):
        self.workload = workload
        self.out = workdir / "out"
        self.argv = {}
        self.gen = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for k in items:
            if workload == "gen-sweep":
                self.gen[k] = gen_sweep_item(k)
                continue
            path = workdir / f"{k}.json"
            if workload == "certify-grid":
                cmd, sc = certify_grid_item(k)
                self.argv[k] = [cmd, "--scenario", str(path)]
            else:
                fmt, sc = long_orbit_item(k)
                self.argv[k] = ["run", "--scenario", str(path), "--out", str(self.out), "--format", fmt]
            path.write_text(json.dumps(sc))

    def prepare(self, k: int) -> None:
        """Untimed: clear the previous run's output files."""
        if self.workload == "long-orbit":
            for name in ("report.json", "trace.csv", "trace.json"):
                (self.out / name).unlink(missing_ok=True)

    def run(self, k: int):
        """The timed operation. Calls go through module attributes so that
        the trace pass's patches apply."""
        if self.workload == "gen-sweep":
            seed, n = self.gen[k]
            sc, cert = scenarios.random_finite(seed, n, p=2.0, alpha_cap=GS_ALPHA_CAP)
            space, tmap = scenarios.instantiate(sc)
            p = sc.params
            tr = orbit.run_orbit(space, tmap, p.c, p.q, p.alpha, sc.x0, tol=sc.tol, max_iter=sc.max_iter)
            return sc, cert, space, tmap, tr, quasicontraction.enumerate_fixed_points(space, tmap)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(self.argv[k])
            except SystemExit as exc:  # argparse rejects
                code = exc.code
        return code, buf.getvalue()

    def digest(self, k: int, result) -> str:
        """Digest of everything the operation is expected to reproduce."""
        if self.workload == "gen-sweep":
            sc, cert, space, tmap, tr, fps = result
            obj = {
                "params": [sc.params.c, sc.params.q, sc.params.alpha],
                "x0": sc.x0,
                "alpha_min": [cert.alpha_min, cert.alpha41_min],
                "d": space.matrix.tolist(),
                "images": [list(quasicontraction.image_of(space, tmap, i).elements) for i in range(space.n_points)],
                "orbit": [tr.status, list(tr.points), tr.fixed_point],
                "fixed_points": fps,
            }
            text = json.dumps(obj)
        else:
            code, stdout = result
            text = f"{code}\n{stdout}" if self.workload == "certify-grid" else self._run_outputs(k, code)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def _run_outputs(self, k: int, code) -> str:
        # report.json is compared on the sections this benchmark's commit
        # writes; timing_ms and any later top-level additions are left out.
        report = json.loads((self.out / "report.json").read_text())
        kept = {key: report.get(key) for key in ("certificate", "orbit", "audit")}
        fmt = self.argv[k][-1]
        trace = (self.out / f"trace.{fmt}").read_text()
        return f"{code}\n{json.dumps(kept, sort_keys=True)}\n{trace}"

    def check(self, k: int, result, golden: str) -> bool:
        """True if the result matches its golden digest. A gen-sweep item
        that failed when the digests were recorded has none; if it succeeds
        now, it is checked by what the generator promises instead."""
        if self.workload != "gen-sweep":
            return self.digest(k, result) == golden
        if golden == "fail":
            return promised(result)
        return _ends_at_fixed_point(result) and self.digest(k, result) == golden


def _ends_at_fixed_point(result) -> bool:
    *_, tr, fps = result
    return tr.status == "converged" and tr.fixed_point in fps


def promised(result) -> bool:
    """What random_finite promises for every instance it returns, plus the
    orbit from x0 ending at one of the enumerated fixed points."""
    sc, cert, _space, _tmap, _tr, fps = result
    return (
        cert.alpha_min <= GS_ALPHA_CAP
        and cert.verdicts["thm33"]
        and 0 in fps  # the root is point 0 by construction
        and _ends_at_fixed_point(result)
        and scenarios.certify_scenario(sc).alpha_min == cert.alpha_min
    )


def load_golden(workload: str) -> list:
    path = Path(__file__).resolve().parent / "golden" / f"{workload}.json"
    return json.loads(path.read_text())["digests"]
