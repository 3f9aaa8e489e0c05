#!/usr/bin/env python3
"""Run a Picard-style orbit and audit its decay and tail bounds.

Each step picks the closest element of the current image set, so under a
certified contraction the step distances obey d_n <= gamma*d_{n-1}. That
single inequality yields a computable Cauchy tail bound

    d(x_{m+1}, x_{m+k}) <= gamma^m * d(x_0,x_1) * S / (1 - gamma),
    S = sum over n >= 1 of s^(2n) * gamma^(2^(n-1)),

valid even when s*gamma >= 1, where the classical per-step argument fails.
The dyadic chaining bound s^ceil(log2 k) * sum(d_i) covers any prefix.
"""

from bfixpoint import (
    cauchy_bounds,
    cauchy_series,
    chaining_bounds,
    paper_example,
    run_orbit,
    verify_fixed_point,
)

sc = paper_example()
space, tmap = sc.space, sc.map
p = sc.params

print("=" * 68)
print("1. the orbit from x0 = 1 under x -> {0.9x} on the squared line")
print("=" * 68)
trace = run_orbit(space, tmap, p.c, p.q, p.alpha, sc.x0, tol=sc.tol, max_iter=sc.max_iter)
print(f"  status    = {trace.status} after {len(trace.steps)} steps")
print(f"  fixed pt  = {trace.fixed_point[0]:.6e}   residual = {trace.residual:.3e}")
print(f"  beta      = {trace.beta}   gamma = {trace.gamma}")
residual, ok = verify_fixed_point(space, tmap, trace.fixed_point, sc.tol)
print(f"  re-check  : residual {residual:.3e}, within tolerance: {ok}")

print()
print("  n    x_n            d_n            d_n/d_(n-1)")
for n in (0, 1, 2, 3, 20, 50, len(trace.steps) - 1):
    ratio = trace.steps[n] / trace.steps[n - 1] if n > 0 else float("nan")
    print(f"  {n:3d}  {trace.points[n][0]:<13.6e}  {trace.steps[n]:<13.6e}  {ratio:.6f}")
print("  (steps decay at exactly 0.81 per step, well below gamma = 0.95)")

print()
print("=" * 68)
print("2. Cauchy tail bound vs the actual distances")
print("=" * 68)
cert = cauchy_series(trace.gamma, space.s, first_step=trace.steps[0])
print(f"  S = {cert.series_sum:.6f} after {cert.terms_used} terms; s*gamma = {space.s * trace.gamma}")
print("  (s*gamma = 1.9 >= 1: the classical small-product regime does not apply)")
worst = 0.0
pts = trace.points
for m, bound in enumerate(cauchy_bounds(cert, len(pts) - 1)):
    for k in range(1, len(pts) - m):
        actual = space.dist(pts[m + 1], pts[m + k])
        if bound > 0:
            worst = max(worst, actual / bound)
print(f"  worst actual/bound ratio over all (m, k): {worst:.3e}  (must be <= 1)")

print()
print("=" * 68)
print("3. dyadic chaining bound over every prefix")
print("=" * 68)
worst = 0.0
for k, bound in enumerate(chaining_bounds(trace.steps, space.s), start=1):
    worst = max(worst, space.dist(pts[0], pts[k]) / bound)
print(f"  worst actual/bound ratio over prefixes: {worst:.6f}  (must be <= 1)")
