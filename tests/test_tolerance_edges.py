"""Each tolerance that decides a verdict, at its edge: a case just inside
passes and the next float outside fails. (The orbit's decay slack has its
edge test in test_orbit.py, TestRunOrbit.test_decay_slack_at_its_edge.)
README's table of rounding allowances names every allowance once, with
its value and its edge test, and is checked against the code here."""

import ast
import importlib
import inspect
import math
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import bfixpoint

from bfixpoint.bspace import make_power_space, verify_axioms
from bfixpoint.orbit import _SERIES_TERMS, OrbitTrace, bound_audit, cauchy_series
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


def test_series_cap_is_never_reached():
    # the largest float gamma below 1 takes the most terms: the relative
    # cutoff ends its sum by 60, and from s = 336.3 on a power of s overflows
    # on its own (past the cutoff there), and from about s = 521.5 the sum does
    terms = [cauchy_series(math.nextafter(1.0, 0.0), s).terms_used for s in (1.0, 2.0, 25.5, 300.0, 336.3)]
    assert terms == [59, 59, 60, 60, 60] and max(terms) < _SERIES_TERMS


# --- README's table of rounding allowances ---------------------------------

ROOT = Path(__file__).resolve().parent.parent
# a module-level constant whose name ends so is an allowance, and needs a row
SUFFIXES = ("_TOL", "_SLACK", "_WINDOW", "_WIDENING", "_MARGIN", "_CUTOFF")
# the arguments at which a function's row is evaluated
ARGUMENTS = {"p": [0.5, 1.0, 1.5, 2.0, 64.0, 449.0], "dim": [1, 2, 3]}


def allowance_rows() -> dict:
    """Code name (module.name) -> (value expression, edge tests) of each
    row of README's table."""
    section = (ROOT / "README.md").read_text().split("\n## Rounding allowances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| `(\w+\.\w+)` \|.*\|([^|]*)\|$", section, re.M)
    return {name: (value, re.findall(r"`(tests/\w+\.py(?:::\w+)+)`", edge)) for value, name, edge in rows}


def test_every_code_name_has_its_listed_value():
    rows = allowance_rows()
    assert len(rows) == 12
    for name, (value, _) in rows.items():
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"bfixpoint.{module}"), attr)
        params = list(inspect.signature(obj).parameters) if callable(obj) else []
        for args in product(*(ARGUMENTS[p] for p in params)):
            want = eval(value, {"__builtins__": {}, "max": max}, dict(zip(params, args)))
            got = obj(*args) if callable(obj) else obj
            assert (got, type(got)) == (want, type(want)), f"{name}{args} is {got!r}, README lists {value}"


def test_every_edge_test_exists():
    for name, (_, edges) in allowance_rows().items():
        assert edges, f"{name} names no edge test"
        for edge in edges:
            path, *parts = edge.split("::")
            scope = ast.parse((ROOT / path).read_text()).body
            for part in parts:
                found = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part]
                assert found, f"{name}: {edge} does not exist"
                scope = found[0].body


def test_every_allowance_constant_has_a_row():
    listed = set(allowance_rows())
    defined = set()
    for path in Path(bfixpoint.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined.update(
                f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name) and t.id.endswith(SUFFIXES)
            )
    assert "scenarios._MARGIN" in defined
    assert defined <= listed, f"README's table of rounding allowances lacks {sorted(defined - listed)}"


def test_one_screening_rule():
    # the normal-range floor and the screen window belong to bspace's one
    # screening rule (_ScreenRule): a screen elsewhere holds no guard of its own
    for path in Path(bfixpoint.__file__).parent.glob("*.py"):
        if path.name != "bspace.py":
            assert not re.findall(r"\b(?:_TINY|_screen_window)\b", path.read_text()), path.name
