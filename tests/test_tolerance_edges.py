"""Each tolerance that decides a verdict, at its edge: a case just inside
passes and the next float outside fails. (The orbit's decay slack has its
edge test in test_orbit.py, TestRunOrbit.test_decay_slack_at_its_edge.)"""

import math
from dataclasses import replace

from bfixpoint.bspace import make_power_space, verify_axioms
from bfixpoint.orbit import OrbitTrace, bound_audit
from bfixpoint.quasicontraction import certifies
from bfixpoint.scenarios import GridSample, certify_scenario, paper_example, sample_points

LINE = make_power_space(1, 1.0)
QUAD = make_power_space(1, 2.0)


def test_certifies_relative_slack():
    # the exact constant is 0.81; alpha_min carries its rounding
    cert = certify_scenario(paper_example())
    assert cert.alpha_min == 0.8100000000000009
    edge = cert.alpha_min * (1.0 - 1e-12)
    assert edge == 0.8099999999991909
    assert certifies(cert, edge)
    assert not certifies(cert, math.nextafter(edge, 0.0))


def test_audit_ok_slack():
    # one step of 1.0 bounds d(x_0, x_1) by 1.0: a ratio up to 1 + 1e-9 is ok
    def audit(x1):
        return bound_audit(LINE, OrbitTrace(((0.0,), (x1,)), (1.0,), 0.25, 0.5, "max_iter", None, 1.0))

    inside = audit(1.000000001)
    assert inside["ok"] and inside["violations"] == 0
    outside = audit(math.nextafter(1.000000001, 2.0))
    assert not outside["ok"] and outside["violations"] == 0


def test_grid_count_slack():
    # (hi - lo)/step just below 20 still counts the point at 20 steps
    sc = paper_example()

    def count(hi):
        return len(sample_points(replace(sc, sample=GridSample(lo=-1.0, hi=hi, step=0.1))))

    assert count(-1.0 + 2.0 * (1.0 - 0.9e-12)) == 21
    assert count(-1.0 + 2.0 * (1.0 - 1.1e-12)) == 20


def test_coordinate_tolerance():
    # on the squared line d(0, 1e-12) = 1e-24 is a zero at tol 1e-12 (of the
    # largest distance, 1); points within COORD_TOL coincide, so no violation
    assert verify_axioms(QUAD, [(0.0,), (1e-12,), (1.0,)], tol=1e-12).passed
    apart = math.nextafter(1e-12, 1.0)
    report = verify_axioms(QUAD, [(0.0,), (apart,), (1.0,)], tol=1e-12)
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("identity", ((0.0,), (apart,))),
        ("identity", ((apart,), (0.0,))),
    ]


def test_verify_relative_tol():
    # the largest distance is 2, so zero is read up to 2e-12
    report = verify_axioms(LINE, [(0.0,), (2e-12,), (2.0,)], tol=1e-12)
    assert [(v.axiom, v.lhs) for v in report.violations] == [("identity", 2e-12), ("identity", 2e-12)]
    assert verify_axioms(LINE, [(0.0,), (math.nextafter(2e-12, 1.0),), (2.0,)], tol=1e-12).passed
