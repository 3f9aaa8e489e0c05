#!/usr/bin/env python3
"""Certify a set-valued quasi-contraction and compare applicability verdicts.

The built-in "paper-example" scenario is the squared line (s = 2) under the
single branch x -> {0.9x}. certify takes the grid -1.0 .. 1.0 as a point
sample and returns the sup of h(T(x),T(y)) / N(x,y) over every pair of it;
with c = q = 0 the comparison functional N reduces to the plain distance
and every pair gives exactly 0.81.

The five-term variant (all five point/set distances in the max) certifies
at 0.81 too, which is far above its admissibility threshold 1/(s + s^2) =
1/6, so the four-term route applies here and the five-term route does not.
"""

from bfixpoint import (
    certify,
    certifies,
    check_hypotheses,
    instantiate,
    n_functional,
    paper_example,
    sample_points,
)

sc = paper_example()
space, tmap = instantiate(sc)
grid = sample_points(sc)

print("=" * 68)
print("1. the comparison functional at a sample pair")
print("=" * 68)
x, y = (1.0,), (0.0,)
for c, q in [(0.0, 0.0), (1.0, 1.0)]:
    n = n_functional(space, tmap, c, q, x, y)
    print(f"  N(1, 0) with c={c}, q={q}: {n}")
print("  (with c=q=1 the four terms are 1, 0.01, 0, 0.905; the distance wins)")

print()
print("=" * 68)
print("2. certificate over every pair of the 21-point grid")
print("=" * 68)
cert = certify(space, tmap, grid, sc.params.c, sc.params.q)
print(f"  pairs checked: {cert.n_pairs} ({cert.coverage})")
print(f"  alpha_min   = {cert.alpha_min!r}")
print(f"  alpha41_min = {cert.alpha41_min!r}")
print(f"  worst pair  = {cert.worst_pair}")
print(f"  supplied alpha {sc.params.alpha} is a valid, non-minimal certificate: "
      f"{certifies(cert, sc.params.alpha)}")

print()
print("=" * 68)
print("3. which sufficient conditions apply at alpha = 0.9")
print("=" * 68)
hyp = check_hypotheses(cert, sc.params.alpha)
for name in ("thm31", "thm32", "thm33", "thm41"):
    v = hyp[name]
    mark = "applicable    " if v["applicable"] else "NOT applicable"
    extra = f"  [{v['assumption']}]" if "assumption" in v else ""
    print(f"  {name}: {mark}  {v['condition']}: {v['value']:.6g} vs {v['threshold']:.6g}{extra}")
