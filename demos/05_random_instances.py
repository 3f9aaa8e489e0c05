#!/usr/bin/env python3
"""Seeded finite instances and the weakly-Picard sweep.

random_finite builds a finite b-metric space (p-power distances on planar
points) together with a table map certified exhaustively below a requested
contraction cap. Identical seeds give identical instances on any platform.

On such an instance the map is a multi-valued weakly Picard operator: from
every point x and every admissible first hop y in T(x), the orbit converges
and its limit is one of the brute-force fixed points u with u in T(u).
"""

from bfixpoint import (
    enumerate_fixed_points,
    image_of,
    random_finite,
    run_orbit,
    verify_fixed_point,
)

print("=" * 68)
print("1. a reproducible instance (seed 42)")
print("=" * 68)
sc, cert = random_finite(seed=42, n_points=8, p=2.0, alpha_cap=0.6)
space, tmap = sc.space, sc.map
print(f"  points: {space.n_points}, s = {space.s}, c = {sc.params.c:.4f}, q = {sc.params.q:.4f}")
print(f"  exhaustive alpha_min = {cert.alpha_min:.6f} (cap was 0.6), coverage = {cert.coverage}")
print(f"  images: {[list(image_of(space, tmap, i).elements) for i in range(space.n_points)]}")
again, _ = random_finite(seed=42, n_points=8, p=2.0, alpha_cap=0.6)
print(f"  same seed reproduces the instance exactly: {again == sc}")

fixed = enumerate_fixed_points(space, tmap)
print(f"  brute-force fixed points (u in T(u)): {fixed}")

print()
print("=" * 68)
print("2. weakly-Picard sweep: every start, every admissible first hop")
print("=" * 68)
params = sc.params
orbits = 0
for x in range(space.n_points):
    for y in image_of(space, tmap, x).elements:
        trace = run_orbit(space, tmap, params.c, params.q, params.alpha, x, x1=y, tol=1e-9)
        residual, ok = verify_fixed_point(space, tmap, trace.fixed_point, 1e-9)
        assert trace.status == "converged" and ok and trace.fixed_point in fixed
        orbits += 1
        print(f"  start ({x} -> {y}): converged to {trace.fixed_point} "
              f"in {len(trace.steps)} steps, residual {trace.residual:.1e}")
print(f"\n  all {orbits} admissible starts reached an enumerated fixed point")

print()
print("=" * 68)
print("3. a batch across seeds")
print("=" * 68)
for seed in range(1, 6):
    sc, cert = random_finite(seed=seed, n_points=6 + seed % 3, p=[1.0, 2.0, 3.0][seed % 3], alpha_cap=0.6)
    space, tmap = sc.space, sc.map
    print(f"  seed {seed}: n = {space.n_points}, s = {space.s}, "
          f"alpha_min = {cert.alpha_min:.4f}, fixed points = {enumerate_fixed_points(space, tmap)}")
