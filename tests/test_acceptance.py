"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the printed lines.
"""

import json
import time
from math import dist as edist

import mpmath
import pytest

import bfixpoint as bf
from bfixpoint.cli import main as cli_main
from bfixpoint.rng import SplitMix64


def _report(num: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_matrix_space(rng: SplitMix64, n: int, p: float):
    pts = []
    while len(pts) < n:
        cand = (rng.uniform(), rng.uniform())
        if all(edist(cand, q) >= 0.04 for q in pts):
            pts.append(cand)
    d = [[edist(a, b) ** p for b in pts] for a in pts]
    return bf.make_matrix_space(n, d, max(1.0, 2.0 ** (p - 1.0)))


def _verified_space_pool(seed: int, count: int):
    rng = SplitMix64(seed)
    pool = []
    for i in range(count):
        n = 4 + rng.randrange(9)
        p = [1.0, 1.5, 2.0, 3.0][i % 4]
        space = _random_matrix_space(rng, n, p)
        assert bf.verify_axioms(space, range(space.n_points), tol=1e-12).passed
        pool.append(space)
    return pool


def _generated_scenarios(count: int):
    out = []
    for seed in range(1, count + 1):
        sc, cert = bf.random_finite(
            seed, n_points=5 + seed % 5, p=[1.0, 2.0, 3.0][seed % 3], alpha_cap=0.6
        )
        out.append((sc, cert))
    return out


def test_criterion_1_builtin_example_reproduction(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "run"
    code = cli_main(["run", "--scenario", "paper-example", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "report.json").read_text())
    orbit = report["orbit"]

    assert cli_main(["compare", "--scenario", "paper-example"]) == 0
    table = capsys.readouterr().out
    row33 = next(ln for ln in table.splitlines() if ln.startswith("thm33"))
    row41 = next(ln for ln in table.splitlines() if ln.startswith("thm41"))

    ok = (
        code == 0
        and orbit["status"] == "converged"
        and orbit["residual"] <= 1e-9
        and orbit["iterations"] <= 100
        and abs(orbit["fixed_point"][0]) <= 1e-4
        and "YES" in row33
        and "NO" in row41
        and "0.16666666666666666" in row41
        and elapsed < 1.0
    )
    _report(1, "builtin example: residual<=1e-9, <=100 iters, |u|<=1e-4, verdict table", ok)


def test_criterion_2_certificate_value(tmp_path):
    cert = bf.certify_scenario(bf.paper_example())
    out = tmp_path / "run"
    cli_main(["run", "--scenario", "paper-example", "--out", str(out)])
    cert_obj = json.loads((out / "report.json").read_text())["certificate"]
    ok = (
        abs(cert.alpha_min - 0.81) <= 1e-9
        and abs(cert.alpha41_min - 0.81) <= 1e-9
        and cert_obj["alpha_supplied"] == 0.9
        and cert_obj["supplied_alpha_is_valid_certificate"] is True
        and cert_obj["alpha_supplied"] > cert_obj["alpha_min"]  # valid but not minimal
    )
    _report(2, "grid certificate: alpha_min = alpha41_min = 0.81 +- 1e-9; 0.9 noted valid", ok)


def test_criterion_3_chaining_bound_suite():
    t0 = time.perf_counter()
    pool = _verified_space_pool(301, 40)
    rng = SplitMix64(302)
    violations = 0
    sequences = 0
    for _ in range(1000):
        space = pool[rng.randrange(len(pool))]
        n = space.n_points
        length = 2 + rng.randrange(63)  # up to 64 steps
        walk = [rng.randrange(n) for _ in range(length + 1)]
        steps = [space.dist(a, b) for a, b in zip(walk, walk[1:])]
        sequences += 1
        for k, bound in enumerate(bf.chaining_bounds(steps, space.s), start=1):
            if space.dist(walk[0], walk[k]) > bound * (1.0 + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = sequences == 1000 and violations == 0 and elapsed < 10.0
    _report(3, f"chaining bound: 1000 random sequences, {violations} violations, {elapsed:.2f}s", ok)


def test_criterion_4_cauchy_bound_suite():
    t0 = time.perf_counter()
    rng = SplitMix64(401)
    violations = 0
    relaxed_regime = 0  # cases with s*gamma >= 1, outside the classical lemma
    for i in range(1000):
        if i % 5 < 2:
            p = [2.0, 3.0][rng.randrange(2)]
            s = 2.0 ** (p - 1.0)
            gamma = rng.uniform(1.0 / s, 0.97)
        else:
            p = [1.0, 2.0, 3.0][rng.randrange(3)]
            s = 2.0 ** (p - 1.0)
            gamma = rng.uniform(0.05, 0.97)
        if s * gamma >= 1.0:
            relaxed_regime += 1

        space = bf.make_power_space(1, p)
        x = rng.uniform(-1.0, 1.0)
        pts = [(x,)]
        d = rng.uniform(0.5, 2.0)
        for _ in range(3 + rng.randrange(37)):
            x = x + (1.0 if rng.uniform() < 0.5 else -1.0) * d ** (1.0 / p)
            pts.append((x,))
            d = d * gamma * rng.uniform(0.6, 1.0)  # enforced d_{n+1} <= gamma*d_n
        cert = bf.cauchy_series(gamma, s, first_step=space.dist(pts[0], pts[1]))
        for m, bound in enumerate(bf.cauchy_bounds(cert, len(pts) - 1)):
            for k in range(1, len(pts) - m):
                if space.dist(pts[m + 1], pts[m + k]) > bound * (1.0 + 1e-9):
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and relaxed_regime >= 200 and elapsed < 10.0
    _report(
        4,
        f"cauchy bound: 1000 decaying sequences ({relaxed_regime} with s*gamma>=1), "
        f"{violations} violations, {elapsed:.2f}s",
        ok,
    )


def test_criterion_5_orbit_decay():
    traces = []
    sc = bf.paper_example()
    space, tmap = bf.instantiate(sc)
    traces.append((space, bf.run_orbit(space, tmap, 0.0, 0.0, 0.9, (1.0,), tol=1e-9, max_iter=1000)))
    for sc, _cert in _generated_scenarios(20):
        space, tmap = bf.instantiate(sc)
        p = sc.params
        for x in range(space.n_points):
            traces.append((space, bf.run_orbit(space, tmap, p.c, p.q, p.alpha, x, tol=sc.tol, max_iter=sc.max_iter)))
    bad = 0
    for _space, tr in traces:
        for prev, cur in zip(tr.steps, tr.steps[1:]):
            if cur > tr.gamma * prev * (1.0 + 1e-12):
                bad += 1
    ok = bad == 0 and len(traces) > 100
    _report(5, f"orbit decay d_n <= gamma*d_(n-1) over {len(traces)} traces, {bad} violations", ok)


def test_criterion_6_weakly_picard_sweep():
    t0 = time.perf_counter()
    orbits = 0
    failures = 0
    for sc, cert in _generated_scenarios(50):
        space, tmap = bf.instantiate(sc)
        assert cert.verdicts["thm33"]
        fixed = set(bf.enumerate_fixed_points(space, tmap))
        assert fixed
        p = sc.params
        for x in range(space.n_points):
            for y in bf.image_of(space, tmap, x).elements:
                tr = bf.run_orbit(space, tmap, p.c, p.q, p.alpha, x, x1=y, tol=1e-9, max_iter=1000)
                orbits += 1
                if tr.status != "converged":
                    failures += 1
                    continue
                residual, passed = bf.verify_fixed_point(space, tmap, tr.fixed_point, 1e-9)
                if not passed or tr.fixed_point not in fixed:
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and orbits >= 250 and elapsed < 30.0
    _report(
        6,
        f"weakly-Picard sweep: {orbits} admissible starts over 50 scenarios, "
        f"{failures} failures, {elapsed:.2f}s",
        ok,
    )


def test_criterion_7_series_oracle():
    mpmath.mp.dps = 50
    worst = 0.0
    for gamma in (0.1, 0.5, 0.81, 0.9, 0.99):
        for s in (1.0, 2.0, 4.0):
            got = bf.cauchy_series(gamma, s).series_sum
            g = mpmath.mpf(gamma)
            ss = mpmath.mpf(s)
            total = mpmath.mpf(0)
            for n in range(1, 400):
                t = ss ** (2 * n) * g ** (2 ** (n - 1))
                total += t
                if n > 2 and t < mpmath.mpf("1e-40") * total:
                    break
            rel = abs(got - float(total)) / float(total) if total > 0 else abs(got)
            worst = max(worst, rel)
    ok = worst <= 1e-12
    _report(7, f"series vs 50-digit oracle over 15 (gamma, s) combos, worst rel err {worst:.2e}", ok)


def test_criterion_8_hausdorff_properties():
    t0 = time.perf_counter()
    pool = _verified_space_pool(801, 25)
    rng = SplitMix64(802)
    bad = 0
    for _ in range(1000):
        space = pool[rng.randrange(len(pool))]
        n = space.n_points
        sets = []
        for _ in range(3):
            size = 1 + rng.randrange(min(4, n))
            ids = list(range(n))
            chosen = [ids.pop(rng.randrange(len(ids))) for _ in range(size)]
            sets.append(bf.make_point_set(space, chosen))
        a, b, c = sets
        hab = bf.hausdorff(space, a, b)
        hbc = bf.hausdorff(space, b, c)
        hac = bf.hausdorff(space, a, c)
        if hab != bf.hausdorff(space, b, a):
            bad += 1
        if bf.hausdorff(space, a, a) != 0.0:
            bad += 1
        if hac > space.s * (hab + hbc) * (1.0 + 1e-9):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    _report(8, f"hausdorff symmetry/identity/relaxed-triangle on 1000 triples, {bad} violations", ok)
