#!/usr/bin/env python3
"""Build b-metric spaces and check their axioms on samples.

A b-metric keeps identity and symmetry but relaxes the triangle inequality
to d(x,y) <= s*(d(x,z) + d(z,y)). Squaring the distances on a line already
needs s = 2, so these spaces are strictly more general than metric spaces.
"""

from bfixpoint import estimate_min_s, make_matrix_space, make_power_space, verify_axioms

print("=" * 68)
print("1. power spaces: d(x,y) = |x - y|^p with s = max(1, 2^(p-1))")
print("=" * 68)
for p in (1.0, 2.0, 3.0):
    sp = make_power_space(1, p)
    print(f"  p = {p}: declared s = {sp.s}, d(0,2) = {sp.dist((0.0,), (2.0,))}")

quad = make_power_space(1, 2.0)
grid = [(float(x),) for x in range(5)]
report = verify_axioms(quad, grid, tol=0.0)
print(f"\n  axioms on the integer grid 0..4 (tol 0): passed = {report.passed}")

print()
print("=" * 68)
print("2. the squared line 0, 1, 2 packed into an explicit matrix")
print("=" * 68)
squared = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]
sp2 = make_matrix_space(3, squared, s=2.0)
print(f"  declared s = 2: passed = {verify_axioms(sp2, range(sp2.n_points), tol=0.0).passed}")

# understate the coefficient and the middle point becomes a witness
sp19 = make_matrix_space(3, squared, s=1.9)
report = verify_axioms(sp19, range(sp19.n_points), tol=0.0)
print(f"  declared s = 1.9: passed = {report.passed}")
v = report.violations[0]
print(f"    first violation: {v.axiom}, witness (x,y,z) = {v.witness},")
print(f"    lhs {v.lhs} > rhs {v.rhs}  (4 > 1.9*(1+1))")

print()
print("=" * 68)
print("3. the tightest coefficient a sample supports")
print("=" * 68)
for xs in [(0, 1, 2), (0, 1, 10)]:
    sample = [(float(x),) for x in xs]
    est = estimate_min_s(quad, sample)
    print(f"  squared line, sample {xs}: smallest feasible s = {est:.10g}")
print("  (the equispaced triple attains the declared s = 2;")
print("   the skewed triple only needs 100/82)")
