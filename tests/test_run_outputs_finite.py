"""A search for a `bfixpoint run` that writes a number that is not finite.

JSON has no inf or NaN (RFC 8259, section 6), and a trace cell that reads
inf decides nothing. `run_orbit` keeps its points, steps and gamma finite,
and `cauchy_bounds` and `chaining_bounds` raise for a bound beyond the float
range, so no writer checks its cells. This search is the evidence: it runs
`run` on contractions of the line and the plane, p in {0.5, 1, 2, 3}, from
an x0 near the p-th root of the largest float, where d(x0, x1), the Cauchy
bounds and the chaining bounds reach the top of the float range. Every run
either exits 0, 1 or 2 with every number of report.json and the trace
finite, or exits 3 naming a Cauchy or a chaining bound.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bfixpoint.cli import main

CELLS = re.compile(r"[^,;\n]+")
BOUND_ERROR = re.compile(
    r"error: arithmetic failure \(OverflowError: the (Cauchy bound at m = 0|chaining bound at k = \d+), .*\)\n"
)


def reject(constant):
    raise ValueError(f"{constant} in JSON output")


def top(p):
    """The p-th root of the largest float, or the largest float if p < 1."""
    return sys.float_info.max ** (1.0 / p) if p >= 1.0 else sys.float_info.max


@st.composite
def scenarios(draw):
    """A contraction x -> r*R(theta)*x of the line or the plane, certified on
    a small sample, from an x0 whose coordinates are at most a quarter of
    top(p) and at least 2**-17 of it: then d(x0, T(x0)) is finite, and the
    larger ones take the Cauchy or the chaining bounds beyond the float
    range."""
    dim, p = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    r = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    if dim == 1:
        a = [[r]]
        sample = {"kind": "grid", "lo": -1.0, "hi": 1.0, "step": 0.1}
    else:
        theta = draw(st.sampled_from([0.0, 0.5, 2.0]))
        a = [[r * math.cos(theta), -r * math.sin(theta)], [r * math.sin(theta), r * math.cos(theta)]]
        sample = {"kind": "points", "pts": [[0.0, 0.0], [1.0, 0.5], [-0.5, 0.8], [0.3, -0.9]]}
    coordinate = st.builds(
        lambda m, e, sign: sign * m * 2.0**-e * top(p),
        st.floats(0.5, 1.0), st.integers(2, 16), st.sampled_from([1.0, -1.0]),
    )
    # alpha just above the certified r**p keeps gamma, and so the Cauchy
    # bounds, small next to the chaining bounds; below r**p the run is a
    # hypothesis violation
    alpha = r**p + draw(st.sampled_from([0.02, 0.02, 0.5, -0.5])) * min(r**p, 1.0 - r**p)
    return {
        "space": {"kind": "power", "dim": dim, "p": p},
        "map": {"kind": "branches", "branches": [{"A": a, "b": [0.0] * dim}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": alpha},
        "x0": [draw(coordinate) for _ in range(dim)],
        "tol": draw(st.sampled_from([1e-9, 1e-3])),
        "max_iter": draw(st.sampled_from([50, 1200])),
        "sample": sample,
    }


def line(p, x0, r=0.5, alpha=0.9):
    return {
        "space": {"kind": "power", "dim": 1, "p": p},
        "map": {"kind": "branches", "branches": [{"A": [[r]], "b": [0.0]}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": alpha},
        "x0": [x0],
        "tol": 1e-9,
        "max_iter": 2000,
        "sample": {"kind": "grid", "lo": -1.0, "hi": 1.0, "step": 0.1},
    }


@settings(max_examples=200)
@given(scenarios(), st.sampled_from(["csv", "json"]))
@example(line(2.0, 2.36e153, r=0.7, alpha=0.5), "csv")  # the chaining bound at k = 129
@example(line(2.0, 2e154), "json")  # the Cauchy bound at m = 0
@example(line(1.0, 1.5e308), "csv")
def test_run_writes_only_finite_numbers(scenario, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "sc.json", Path(tmp) / "o"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(path), "--out", str(out), "--format", fmt])
        if code == 3:
            match = BOUND_ERROR.fullmatch(err.getvalue())
            assert match, err.getvalue()
            event(f"exit 3: the {match.group(1).split()[0]} bound")
            return
        event(f"exit {code}")
        assert code in (0, 1, 2), err.getvalue()
        json.loads((out / "report.json").read_text(), parse_constant=reject)
        trace = (out / f"trace.{fmt}").read_text()
        if fmt == "json":
            json.loads(trace, parse_constant=reject)
        else:
            cells = CELLS.findall(trace.split("\n", 1)[1])
            assert all(math.isfinite(float(c)) for c in cells)
