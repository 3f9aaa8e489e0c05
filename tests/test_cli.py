import hashlib
import json
import math
import operator
import re
import sys
import warnings
from collections import Counter
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bfixpoint.bspace import BMetricSpace, make_matrix_space, make_power_space
from bfixpoint.cli import _parser, _trace_csv, _trace_json, main
from bfixpoint.jsonutil import dumps_canonical, format_float
from bfixpoint.orbit import OrbitTrace, _trace_arrays, cauchy_series
from bfixpoint.scenarios import paper_example, scenario_to_obj


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def squared_line_scenario(s=2.0, c=0.0, q=0.0, alpha=0.9):
    return {
        "space": {"kind": "matrix", "n": 3, "s": s, "d": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]},
        "map": {"kind": "table", "images": {"0": [0], "1": [0], "2": [1]}},
        "params": {"c": c, "q": q, "alpha": alpha},
        "x0": 2,
        "tol": 1e-9,
        "max_iter": 100,
        "sample": {"kind": "points", "pts": [0, 1, 2]},
    }


def overflowing_scenario():
    # the branch x -> 1e200*x makes (x - T(x))**2 overflow in pow, so
    # d(x, T(x)) and h are inf and the first pair's ratios are not finite
    return {
        "space": {"kind": "power", "dim": 1, "p": 2.0},
        "map": {"kind": "branches", "branches": [{"A": [[1e200]], "b": [0.0]}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": 0.9},
        "x0": [1.0],
        "tol": 1e-10,
        "max_iter": 100,
        "sample": {"kind": "grid", "lo": -1.0, "hi": 1.0, "step": 0.1},
    }


def paper_scenario(alpha=0.9):
    # the built-in paper example written out as a file
    return {
        "space": {"kind": "power", "dim": 1, "p": 2.0},
        "map": {"kind": "branches", "branches": [{"A": [[0.9]], "b": [0.0]}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": alpha},
        "x0": [1.0],
        "tol": 1e-10,
        "max_iter": 1000,
        "sample": {"kind": "grid", "lo": -1.0, "hi": 1.0, "step": 0.1},
    }


def non_finite_plane_scenario():
    # the images overflow to +-inf, so the first pair's ratios are inf and nan
    return {
        "space": {"kind": "power", "dim": 2, "p": 1.0},
        "map": {"kind": "branches", "branches": [{"A": [[1e308, -1e308], [0.0, 0.0]], "b": [0.0, 0.0]}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": 0.9},
        "x0": [10.0, 10.0],
        "tol": 1e-10,
        "max_iter": 100,
        "sample": {"kind": "points", "pts": [[0.0, 0.0], [10.0, 10.0], [-3.0, 2.0]]},
    }


def nan_ratio_scenario():
    # x -> 1e308*x + 1e308 sends the upper grid to inf; 57 ratios are nan
    return dict(
        paper_scenario(),
        space={"kind": "power", "dim": 1, "p": 0.5},
        map={"kind": "branches", "branches": [{"A": [[1e308]], "b": [1e308]}]},
        params={"c": 0.5, "q": 0.5, "alpha": 0.9},
    )


def overflowing_distance_scenario():
    # finite coordinates whose distance overflows: math.dist((1e308,), (-1e308,)) is inf
    return dict(
        paper_scenario(),
        space={"kind": "power", "dim": 1, "p": 1.0},
        map={"kind": "branches", "branches": [{"A": [[0.5]], "b": [0.0]}]},
        sample={"kind": "points", "pts": [[1e308], [-1e308], [0.0]]},
    )


def overflowing_residual_scenario():
    # x -> -x: d(1e308, T(1e308)) overflows while the pair's distance does not
    return dict(
        overflowing_distance_scenario(),
        map={"kind": "branches", "branches": [{"A": [[-1.0]], "b": [0.0]}]},
        sample={"kind": "points", "pts": [[1e308], [9e307]]},
    )


def duplicate_sample_scenario():
    return dict(paper_scenario(), sample={"kind": "points", "pts": [[0.5], [0.25], [0.5]]})


def underflowing_distance_scenario():
    # p = 1024.5 is accepted (below 1025), and 0.1**1024.5 underflows to 0
    return set_field(paper_scenario(), ("space", "p"), 1024.5)


def out_of_domain_image_scenario():
    obj = squared_line_scenario()
    obj["map"]["images"]["7"] = [0]
    return obj


def aliased_image_key_scenario():
    obj = squared_line_scenario()
    obj["map"]["images"]["00"] = [2]
    return obj


def infinite_s_scenario():
    return squared_line_scenario(s=float("inf"))


def plane_grid_scenario():
    # a grid sample is one-dimensional, and this space is the plane
    obj = non_finite_plane_scenario()
    obj["map"]["branches"] = [{"A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]}]
    obj["sample"] = {"kind": "grid", "lo": -1.0, "hi": 1.0, "step": 0.1}
    return obj


def wide_branch_scenario():
    # the identity map at dim 56, whose one branch has 56 * 57 = 3192 evaluator
    # terms, over MAX_BRANCH_TERMS (3168)
    dim = 56
    obj = non_finite_plane_scenario()
    obj["space"]["dim"] = dim
    obj["map"]["branches"] = [{"A": [[float(i == j) for j in range(dim)] for i in range(dim)], "b": [0.0] * dim}]
    obj["x0"] = [0.0] * dim
    obj["sample"] = {"kind": "points", "pts": [[0.0] * dim, [1.0] * dim]}
    return obj


def command_argv(command, path, tmp_path):
    argv = [command, "--scenario", path]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    return argv


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
@pytest.mark.parametrize(
    "scenario, message",
    [
        (non_finite_plane_scenario, r"pair \(\(0\.0, 0\.0\), \(10\.0, 10\.0\)\) has non-finite"),
        (nan_ratio_scenario, r"pair \(\(-1\.0,\), \(0\.8,\)\) has non-finite"),
        (duplicate_sample_scenario, r"pair \(\(0\.5,\), \(0\.5,\)\) is not distinct"),
        (
            underflowing_distance_scenario,
            r"pair \(\(-1\.0,\), \(-0\.9,\)\) has distance 0, though its points are distinct \(it underflows\)\n",
        ),
        (overflowing_distance_scenario, r"sample pair \(\(1e\+308,\), \(-1e\+308,\)\) has non-finite distance inf\n"),
        (
            overflowing_residual_scenario,
            r"pair \(\(1e\+308,\), \(9e\+307,\)\) has non-finite contraction ratios "
            r"\(h / N = \S+ / \S+ four-term, \S+ / inf five-term\)",
        ),
        (out_of_domain_image_scenario, r"image given for point 7 outside the domain"),
        (aliased_image_key_scenario, r"map\.images keys '0' and '00' both name point 0"),
        (infinite_s_scenario, r"relaxation coefficient s must be finite and >= 1, got inf\n"),
        (plane_grid_scenario, r"sample.kind 'grid' needs a 1-dimensional power space\n"),
        (wide_branch_scenario, r"branch map has 3192 evaluator terms, over the limit MAX_BRANCH_TERMS = 3168\n"),
    ],
    ids=[
        "non-finite-images",
        "nan-ratios",
        "duplicate-sample",
        "underflowing-distance",
        "overflowing-distance",
        "overflowing-residual",
        "out-of-domain-image",
        "aliased-image-key",
        "infinite-s",
        "grid-on-plane",
        "branch-dim-over-limit",
    ],
)
def test_uncertifiable_scenario_is_invalid_input(tmp_path, capsys, command, scenario, message):
    path = write_json(tmp_path / "sc.json", scenario())
    assert main(command_argv(command, path, tmp_path)) == 3
    captured = capsys.readouterr()
    assert re.match("error: " + message, captured.err)
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def set_field(obj, path, value):
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


# one field of a valid scenario given the wrong JSON shape; at the parent
# commit each of these ended in a TypeError or AttributeError traceback
MALFORMED_SHAPES = {
    "images-not-an-object": (squared_line_scenario, ("map", "images"), [[0], [0], [1]], "map.images"),
    "image-entry-not-a-list": (squared_line_scenario, ("map", "images", "1"), 0, "map.images.1"),
    "pts-not-a-list": (squared_line_scenario, ("sample", "pts"), 5, "sample.pts"),
    "branches-not-a-list": (paper_scenario, ("map", "branches"), 7, "map.branches"),
    "A-not-a-list": (paper_scenario, ("map", "branches", 0, "A"), 0.9, r"map.branches\[0\].A"),
    "A-row-not-a-list": (paper_scenario, ("map", "branches", 0, "A", 0), 0.9, r"map.branches\[0\].A\[0\]"),
    "b-not-a-list": (paper_scenario, ("map", "branches", 0, "b"), 0.0, r"map.branches\[0\].b"),
}


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
@pytest.mark.parametrize("shape", MALFORMED_SHAPES)
def test_malformed_shape_is_invalid_input(tmp_path, capsys, command, shape):
    scenario, path, value, field = MALFORMED_SHAPES[shape]
    sc_path = write_json(tmp_path / "sc.json", set_field(scenario(), path, value))
    assert main(command_argv(command, sc_path, tmp_path)) == 3
    err = capsys.readouterr().err
    assert re.match(f"error: expected an? (list|object) at {field}, got ", err)
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_beta_beyond_its_limit_is_invalid_input(tmp_path, capsys, command):
    # on the p = 2 line (s = 2) with q = 1 the admissible beta ends at 0.5
    obj = dict(paper_scenario(), params={"c": 0.5, "q": 1.0, "alpha": 0.3, "beta": 0.6})
    assert main(command_argv(command, write_json(tmp_path / "sc.json", obj), tmp_path)) == 3
    assert capsys.readouterr().err.startswith("error: params.beta 0.6 outside (alpha, min(1, 1/(q*s))) = (0.3, 0.5)")


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_infinite_tol_is_invalid_input(tmp_path, capsys, command):
    # JSON output has no inf, so every command rejects the scenario as it loads
    obj = dict(paper_scenario(), tol=math.inf)
    assert main(command_argv(command, write_json(tmp_path / "sc.json", obj), tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: tol must be positive and finite, got inf\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", [["--tol", "0"], ["--tol", "-1"], ["--max-iter", "0"], ["--tol", "inf"]])
def test_bad_override_is_invalid_input(tmp_path, capsys, override):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "paper-example", "--out", str(out)] + override) == 3
    assert capsys.readouterr().err.startswith(f"error: {override[0][2:].replace('-', '_')} must be")
    assert not out.exists()


def test_valid_override_keeps_the_loaded_digest(tmp_path):
    digests = []
    for name, override in (("a", []), ("b", ["--tol", "1e-6", "--max-iter", "500"])):
        out = tmp_path / name
        assert main(["run", "--scenario", "paper-example", "--out", str(out)] + override) == 0
        digests.append(json.loads((out / "report.json").read_text())["certificate"]["scenario_digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--scenario", "paper-example"], "the following arguments are required: --out"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["run", "--scenario", "paper-example", "--out", "o", "--max-iter", "x"], "argument --max-iter: invalid int value: 'x'"),
    ],
    ids=["missing-out", "unknown-command", "bad-max-iter"],
)
def test_usage_error_exits_3(capsys, argv, message):
    # exit 2 is reserved for an exhausted iteration budget
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: bfixpoint")
    assert f": error: {message}" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--max-iter" in capsys.readouterr().out


# one call of each kind; a run's --out is added by cli_outcome
REUSE_CALLS = {
    "run-overrides": ["run", "--scenario", "paper-example", "--tol", "1e-6", "--max-iter", "500", "--format", "json"],
    "run": ["run", "--scenario", "paper-example"],
    "verify": ["verify", "--scenario", "paper-example"],
    "compare": ["compare", "--scenario", "paper-example"],
    "usage-error": ["run", "--scenario", "paper-example", "--max-iter", "x"],
    "help": ["run", "--help"],
}


def cli_outcome(argv, out, capsys):
    """The exit code, stdout, stderr and output files (report.json without
    timing_ms) of one main call."""
    if argv[0] == "run":
        argv = argv + ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    files = {}
    for path in sorted(out.glob("*")) if out.exists() else ():
        files[path.name] = path.read_text()
        if path.name == "report.json":
            report = json.loads(files[path.name])
            del report["timing_ms"]
            files[path.name] = dumps_canonical(report)
    return code, captured.out, captured.err, files


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, capsys):
    # each call's result from a freshly built parser, then every call twice
    # more in a row on the one parser main keeps
    first = {}
    for name, argv in REUSE_CALLS.items():
        _parser.cache_clear()
        first[name] = cli_outcome(argv, tmp_path / name, capsys)
    assert [first[name][0] for name in REUSE_CALLS] == [0, 0, 0, 0, 3, 0]
    tol = [json.loads(first[name][3]["report.json"])["orbit"]["tol"] for name in ("run-overrides", "run")]
    assert tol == [1e-6, 1e-10]
    assert set(first["run-overrides"][3]) == {"report.json", "trace.json"}
    assert set(first["run"][3]) == {"report.json", "trace.csv"}
    for _ in range(2):
        for name, argv in REUSE_CALLS.items():
            assert cli_outcome(argv, tmp_path / name, capsys) == first[name], name


def test_failed_run_leaves_no_outputs(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "paper-example", "--out", str(out)]) == 0
    (out / "trace.json").write_text("{}\n")  # as if an earlier run had used --format json
    path = write_json(tmp_path / "sc.json", overflowing_scenario())
    assert main(["run", "--scenario", path, "--out", str(out)]) == 3
    for name in ("report.json", "trace.csv", "trace.json"):
        assert not (out / name).exists()


class TestExactConstant:
    """alpha = 0.81 is the paper example's exact constant; alpha_min rounds
    to 0.8100000000000009, and every command accepts it the same way."""

    def path(self, tmp_path):
        return write_json(tmp_path / "sc.json", paper_scenario(alpha=0.81))

    def test_run(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--scenario", self.path(tmp_path), "--out", str(out)]) == 0
        cert = json.loads((out / "report.json").read_text())["certificate"]
        assert cert["alpha_min"] > 0.81
        assert cert["supplied_alpha_is_valid_certificate"] is True
        assert cert["hypotheses"]["contraction_holds"] is True

    def test_verify(self, tmp_path, capsys):
        assert main(["verify", "--scenario", self.path(tmp_path)]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["hypotheses"]["contraction_holds"] == cert["supplied_alpha_is_valid_certificate"] is True

    def test_compare(self, tmp_path, capsys):
        assert main(["compare", "--scenario", self.path(tmp_path)]) == 0
        row33 = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("thm33"))
        assert row33.split()[1] == "YES"


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_huge_grid_is_invalid_input(tmp_path, capsys, command):
    # 2e9 + 1 points: rejected from the count, before any point is built
    obj = paper_scenario()
    obj["sample"]["step"] = 1e-9
    assert main(command_argv(command, write_json(tmp_path / "sc.json", obj), tmp_path)) == 3
    captured = capsys.readouterr()
    assert re.match(r"error: sample grid -1\.0\.\.1\.0 step 1e-09 has too many points", captured.err)
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_verify_names_a_non_finite_sample_distance(tmp_path, capsys):
    # finite coordinates whose distance overflows: math.dist((1e308,), (-1e308,)) is inf
    obj = dict(
        paper_scenario(),
        space={"kind": "power", "dim": 1, "p": 1.0},
        map={"kind": "branches", "branches": [{"A": [[0.5]], "b": [0.0]}]},
        sample={"kind": "points", "pts": [[1e308], [-1e308], [0.0]]},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--scenario", write_json(tmp_path / "sc.json", obj)]) == 3
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == "error: sample pair ((1e+308,), (-1e+308,)) has non-finite distance inf\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_arithmetic_failure_is_invalid_input(tmp_path, capsys, command):
    # an overflow while certifying is named by its pair, like any non-finite ratio
    argv = [command, "--scenario", write_json(tmp_path / "sc.json", overflowing_scenario())]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: pair ((-1.0,), (-0.9,)) has non-finite contraction ratios (h / N = inf / 0.009999999999999995"
        " four-term, inf / inf five-term): the map cannot be certified\n"
    )


def test_orbit_into_a_non_finite_image_is_invalid_input(tmp_path, capsys):
    # T(x) = {(1e300*x_0 - 1e300*x_1, 0)} certifies on the diagonal sample
    # (every image is (0, 0)), but T(x0) is {(nan, 0)} at x0 = (1e10, 1e10)
    scenario = {
        "space": {"kind": "power", "dim": 2, "p": 1.0},
        "map": {"kind": "branches", "branches": [{"A": [[1e300, -1e300], [0.0, 0.0]], "b": [0.0, 0.0]}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": 0.5},
        "x0": [1e10, 1e10],
        "tol": 1e-10,
        "max_iter": 100,
        "sample": {"kind": "points", "pts": [[0.0, 0.0], [0.5, 0.5], [0.25, 0.25]]},
    }
    out = tmp_path / "o"
    assert main(["run", "--scenario", write_json(tmp_path / "sc.json", scenario), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: arithmetic failure (OverflowError: no element of T(x0) is at a finite distance from"
        " x0 = (10000000000.0, 10000000000.0): T(x0) = ((nan, 0.0),))\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("max_iter", [1, 100])
def test_an_infinite_residual_after_the_first_step_is_invalid_input(tmp_path, capsys, max_iter):
    # T(x) = {(1e300*x_0, 0)} certifies on points with x_0 = 0 (alpha_min 0);
    # from x0 = (1, 0), x1 = (1e300, 0) and T(x1) = {(inf, 0)}. The error
    # comes before the budget: max_iter 1 would end the trace at x1, and 100
    # would end it as a ratio_violation with an infinite residual
    scenario = {
        "space": {"kind": "power", "dim": 2, "p": 1.0},
        "map": {"kind": "branches", "branches": [{"A": [[1e300, 0.0], [0.0, 0.0]], "b": [0.0, 0.0]}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": 0.5},
        "x0": [1.0, 0.0],
        "tol": 1e-10,
        "max_iter": max_iter,
        "sample": {"kind": "points", "pts": [[0.0, 0.0], [0.0, 1.0], [0.0, -1.0]]},
    }
    out = tmp_path / "o"
    assert main(["run", "--scenario", write_json(tmp_path / "sc.json", scenario), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: arithmetic failure (OverflowError: no element of T(x1) is at a finite distance from"
        " x1 = (1e+300, 0.0): T(x1) = ((inf, 0.0),))\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "p, x0, first_step, series_sum",
    [(2.0, 2e154, "1e+308", "2191.929903737759"), (1.0, 1.5e308, "7.5e+307", "4.003199017273756")],
)
def test_an_infinite_cauchy_bound_is_invalid_input(tmp_path, capsys, fmt, p, x0, first_step, series_sum):
    # x -> 0.5x certifies and converges from x0, but d(x0, x1)*S/(1 - gamma)
    # is beyond the float range, and so every Cauchy bound checks nothing
    scenario = dict(paper_scenario(), space={"kind": "power", "dim": 1, "p": p}, x0=[x0], tol=1e-9, max_iter=2000)
    scenario["map"] = {"kind": "branches", "branches": [{"A": [[0.5]], "b": [0.0]}]}
    out = tmp_path / "o"
    argv = ["run", "--scenario", write_json(tmp_path / "sc.json", scenario), "--out", str(out), "--format", fmt]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: arithmetic failure (OverflowError: the Cauchy bound at m = 0, d(x0, x1)*S/(1 - gamma) with"
        f" d(x0, x1) = {first_step}, S = {series_sum} and gamma = 0.95, is beyond the float range)\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_infinite_chaining_bound_is_invalid_input(tmp_path, capsys, fmt):
    # x -> 0.7x certifies and converges from x0 = 2.36e153 in 1016 steps, and
    # every Cauchy bound is finite (1.37e308 at m = 0), but from k = 129 on
    # the chaining bound 2**8*(d_0 + ... + d_{k-1}) is beyond the float range:
    # 888 chaining checks used to compare a distance with inf, and pass
    scenario = dict(paper_scenario(alpha=0.5), x0=[2.36e153], tol=1e-9, max_iter=2000)
    scenario["map"] = {"kind": "branches", "branches": [{"A": [[0.7]], "b": [0.0]}]}
    out = tmp_path / "o"
    out.mkdir()
    for name in ("report.json", "trace.csv", "trace.json"):  # as an earlier run would leave them
        (out / name).write_text("{}\n")
    argv = ["run", "--scenario", write_json(tmp_path / "sc.json", scenario), "--out", str(out), "--format", fmt]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: arithmetic failure (OverflowError: the chaining bound at k = 129, s**ceil(log2 k)*(d_0 + ... + d_128)"
        " with s = 2.0, is beyond the float range)\n"
    )
    assert captured.out == "" and list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_out_of_memory_is_invalid_input(tmp_path, capsys, monkeypatch, command):
    # numpy raises _ArrayMemoryError, a MemoryError, for a table it cannot allocate
    out = tmp_path / "o"
    assert main(["run", "--scenario", "paper-example", "--out", str(out)]) == 0
    message = "Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type float64"

    def no_memory(self, xs, ys):
        raise MemoryError(message)

    monkeypatch.setattr(BMetricSpace, "dists", no_memory)
    capsys.readouterr()
    assert main(command_argv(command, "paper-example", tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: out of memory (MemoryError: {message})\n"
    assert captured.out == ""
    # a failed run leaves no outputs, not even those of the earlier run
    assert sorted(p.name for p in out.iterdir()) == ([] if command == "run" else ["report.json", "trace.csv"])


class TestRun:
    def test_builtin_example_converges(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--scenario", "paper-example", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"certificate", "orbit", "audit", "timing_ms"}
        assert report["orbit"]["status"] == "converged"
        assert report["orbit"]["residual"] <= 1e-9
        assert report["orbit"]["iterations"] <= 100
        assert abs(report["orbit"]["fixed_point"][0]) <= 1e-4
        assert report["certificate"]["verdicts"]["thm33"] is True
        assert report["certificate"]["verdicts"]["thm41"] is False
        assert report["certificate"]["alpha_supplied"] == 0.9
        assert report["certificate"]["supplied_alpha_is_valid_certificate"] is True
        assert report["audit"]["ok"] is True
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "n,point,d_n,ratio,gamma,cauchy_bound_at_n"

    def test_seventeen_digit_floats_in_trace(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", "paper-example", "--out", str(out)])
        lines = (out / "trace.csv").read_text().splitlines()
        # gamma = 0.95 must round-trip, printed at 17 significant digits
        assert lines[1].split(",")[4] == "0.94999999999999996"

    def test_report_stable_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["run", "--scenario", "paper-example", "--out", str(out)])
            obj = json.loads((out / "report.json").read_text())
            del obj["timing_ms"]  # wall-clock time is the one nondeterministic field
            outs.append(dumps_canonical(obj))
        assert outs[0] == outs[1]
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_max_iter_override_exhausts(self, tmp_path):
        code = main(["run", "--scenario", "paper-example", "--out", str(tmp_path / "o"), "--max-iter", "1"])
        assert code == 2

    def test_beta_and_tol_overrides(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["run", "--scenario", "paper-example", "--out", str(out), "--beta", "0.92", "--tol", "1e-6"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["orbit"]["beta"] == 0.92
        assert report["orbit"]["gamma"] == 0.92  # q = 0, so gamma = beta
        assert report["orbit"]["tol"] == 1e-6
        assert report["orbit"]["iterations"] < 88  # looser tolerance stops earlier

    def test_beta_outside_admissible_interval_is_hypothesis_violation(self, tmp_path):
        code = main(["run", "--scenario", "paper-example", "--out", str(tmp_path / "o"), "--beta", "0.5"])
        assert code == 1

    def test_malformed_json_is_invalid_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 3

    def test_json_trace_format(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--scenario", "paper-example", "--out", str(out), "--format", "json"]) == 0
        rows = json.loads((out / "trace.json").read_text())["rows"]
        assert rows[0]["n"] == 0
        assert rows[0]["point"] == [1.0]

    def test_generated_builtin_with_seed(self, tmp_path):
        assert main(["run", "--scenario", "random-finite", "--seed", "5", "--out", str(tmp_path / "o")]) == 0

    def test_alpha_below_certificate_is_hypothesis_violation(self, tmp_path):
        path = write_json(tmp_path / "sc.json", squared_line_scenario(alpha=0.1))
        out = tmp_path / "o"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["orbit"]["status"] == "hypothesis_violation"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_violation_writes_an_empty_trace_in_the_asked_format(self, tmp_path, fmt):
        obj = scenario_to_obj(paper_example())
        obj["params"]["alpha"] = 0.5  # below the certified 0.81: no orbit is run
        path = write_json(tmp_path / "sc.json", obj)
        out = tmp_path / "o"
        assert main(["run", "--scenario", path, "--out", str(out), "--format", fmt]) == 1
        assert json.loads((out / "report.json").read_text())["orbit"]["status"] == "hypothesis_violation"
        assert sorted(p.name for p in out.iterdir()) == ["report.json", f"trace.{fmt}"]
        trace = (out / f"trace.{fmt}").read_text()
        if fmt == "json":
            assert json.loads(trace) == {"rows": []}
        else:
            assert trace == "n,point,d_n,ratio,gamma,cauchy_bound_at_n\n"


# -- trace writers ----------------------------------------------------------

ROTATION = [[0.96, -0.12], [0.12, 0.96]]


def plane_scenario():
    # a 2-D rotation-contraction with a far translated copy: a 289-step orbit
    return {
        "space": {"kind": "power", "dim": 2, "p": 2.0},
        "map": {
            "kind": "branches",
            "branches": [{"A": ROTATION, "b": [0.0, 0.0]}, {"A": ROTATION, "b": [6.0, -6.0]}],
        },
        "params": {"c": 0.5, "q": 0.3, "alpha": 0.97},
        "x0": [1.0, 0.5],
        "tol": 1e-10,
        "max_iter": 2000,
        "sample": {"kind": "points", "pts": [[0.0, 0.0], [1.0, 0.5], [-0.5, 0.8], [0.3, -0.9], [-1.0, -1.0]]},
    }


def reference_rows(space, trace):
    """The trace rows by their definitions; None is an empty cell."""
    if trace is None:
        return []
    steps = trace.steps
    bound = None
    if steps:
        cert = cauchy_series(trace.gamma, space.s, first_step=steps[0])
        bound = cert.first_step * cert.series_sum / (1.0 - cert.gamma)
    rows = []
    for n, pt in enumerate(trace.points):
        rows.append({
            "n": n,
            "point": pt,
            "d_n": steps[n] if n < len(steps) else None,
            "ratio": steps[n] / steps[n - 1] if 0 < n < len(steps) and steps[n - 1] != 0.0 else None,
            "gamma": trace.gamma,
            "cauchy_bound_at_n": bound,
        })
        if bound is not None:
            bound *= trace.gamma
    return rows


def reference_csv(rows):
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, tuple):
            return ";".join(map(format_float, x))
        return str(x) if isinstance(x, int) else format_float(x)

    lines = ["n,point,d_n,ratio,gamma,cauchy_bound_at_n"]
    lines += [",".join(cell(r[k]) for k in ("n", "point", "d_n", "ratio", "gamma", "cauchy_bound_at_n")) for r in rows]
    return "\n".join(lines) + "\n"


def writer_trace(space, points, gamma, steps=None):
    if steps is None:
        steps = tuple(space.dist(a, b) for a, b in zip(points, points[1:]))
    return OrbitTrace(tuple(points), tuple(steps), 0.5, gamma, "max_iter", None, 0.0)


SPIRAL = [(0.9**k * math.cos(k), 0.9**k * math.sin(k), 0.5 * 0.8**k) for k in range(40)]
WRITER_CASES = {
    "1-D": (make_power_space(1, 2.0), lambda sp: writer_trace(sp, [(0.9**k,) for k in range(30)], 0.95)),
    "2-D": (make_power_space(2, 1.0), lambda sp: writer_trace(sp, [p[:2] for p in SPIRAL], 0.9)),
    "3-D": (make_power_space(3, 0.5), lambda sp: writer_trace(sp, SPIRAL, 0.99)),
    "matrix-ids": (
        make_matrix_space(3, [[0, 1, 4], [1, 0, 1], [4, 1, 0]], 2.0),
        lambda sp: writer_trace(sp, [2, 1, 0, 0], 0.5),
    ),
    "zero-step": (
        make_power_space(1, 1.0),
        lambda sp: writer_trace(sp, [(2.0,), (1.0,), (1.0,), (0.5,)], 0.9, steps=(1.0, 0.0, 0.5)),
    ),
    "bound-underflows-to-0": (make_power_space(2, 2.0), lambda sp: writer_trace(sp, [p[:2] for p in SPIRAL], 1e-12)),
    "single-point": (make_power_space(2, 2.0), lambda sp: writer_trace(sp, [(0.25, -0.5)], 0.9)),
    "no-orbit": (make_power_space(1, 2.0), lambda sp: None),
}


class TestTraceWriters:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_trace_json_is_the_canonical_dump_of_the_rows(self, case):
        space, make = WRITER_CASES[case]
        trace = make(space)
        rows = reference_rows(space, trace)
        if case == "bound-underflows-to-0":
            assert rows[-1]["cauchy_bound_at_n"] == 0.0
        arrays = None if trace is None else _trace_arrays(space, trace)
        assert _trace_json(space, trace, arrays) == dumps_canonical({"rows": rows}) + "\n"
        assert _trace_csv(space, trace, arrays) == reference_csv(rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_is_invalid_input(self, fmt):
        # the Cauchy bounds refuse a number that is not finite where they are
        # made, in _trace_arrays, before either writer sees a cell: an
        # infinite first step (d(1, inf) is inf), and a first bound
        # 1e308*S/(1 - 0.9) beyond the float range
        space = make_power_space(1, 1.0)
        writer = _trace_json if fmt == "json" else _trace_csv

        def write(trace):
            return writer(space, trace, _trace_arrays(space, trace))

        with pytest.raises(ValueError, match="^first_step must be non-negative and finite, got inf$"):
            write(writer_trace(space, [(1.0,), (math.inf,)], 0.0))
        with pytest.raises(OverflowError, match=r"^the Cauchy bound at m = 0, .* d\(x0, x1\) = 1e\+308,"):
            write(writer_trace(space, [(0.0,), (1e308,)], 0.9))


def all_finite(rows):
    """Whether every number in the rows is finite (None is an empty cell)."""
    cells = [v for r in rows for v in r.values() if v is not None]
    return all(map(math.isfinite, chain.from_iterable(v if isinstance(v, tuple) else (v,) for v in cells)))


SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e300, 1.7976931348623157e308])


@st.composite
def writer_cases(draw):
    """A space and a geometric trace of 1-60 points of it, with up to three
    zero steps, and special values (-0.0, subnormals, huge) at up to three
    places."""
    kind = draw(st.sampled_from(["1-D", "2-D", "3-D", "matrix"]))
    n = draw(st.integers(1, 60))
    if kind == "matrix":
        size = draw(st.integers(1, 5))
        space = make_matrix_space(size, [[float(i != j) for j in range(size)] for i in range(size)], 2.0)
        a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        points = [(a * k + b) % size for k in range(n)]
    else:
        space = make_power_space(int(kind[0]), draw(st.sampled_from([0.5, 1.0, 2.0])))
        start = draw(st.tuples(*[st.floats(-1e3, 1e3)] * space.dim))
        rate = draw(st.floats(-1.2, 1.2))
        points = [[c * rate**k for c in start] for k in range(n)]
    d0, q = draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, 1.2))
    steps = [d0 * q**k for k in range(n - 1)]
    gamma = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([1e-12, 1e-300])))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        if i < n - 1:
            steps[i] = draw(st.sampled_from([0.0, -0.0]))
        if kind != "matrix":
            points[i][draw(st.integers(0, space.dim - 1))] = draw(st.one_of(SPECIAL, SPECIAL.map(operator.neg)))
        if i < n - 1 and draw(st.booleans()):
            steps[i] = draw(SPECIAL)
    points = [p if kind == "matrix" else tuple(p) for p in points]
    return space, OrbitTrace(tuple(points), tuple(steps), 0.5, gamma, "max_iter", None, 0.0)


@settings(max_examples=200)
@given(writer_cases())
@example((make_power_space(2, 2.0), OrbitTrace(((-0.0, 5e-324), (1e308, -0.0)), (5e-324,), 0.5, 1e-300, "max_iter", None, 0.0)))
@example((make_power_space(1, 1.0), OrbitTrace(((1.0,), (2.0,), (2.0,)), (0.0, 1.0), 0.5, 0.5, "max_iter", None, 0.0)))
def test_writers_match_the_references_on_arbitrary_traces(case):
    # a trace of run_orbit has only finite cells; a huge or subnormal step
    # here can make a ratio or the first bound overflow, and such a trace is
    # left out
    space, trace = case
    rows = reference_rows(space, trace)
    assume(all_finite(rows))
    arrays = _trace_arrays(space, trace)
    assert _trace_csv(space, trace, arrays) == reference_csv(rows)
    assert _trace_json(space, trace, arrays) == dumps_canonical({"rows": rows}) + "\n"


# sha256 of trace.csv, trace.json and report.json without timing_ms: the
# byte-stability contract of `run` on three scenarios
RUN_PINS = {
    "paper-example": (
        "63793473f727f37391ea1d3357d543923e77dfcfc60e6bfd93f9783a1fc2bd6b",
        "09b1750a592946bb6492583e730f81b644a64ecb4f43b18492225a821d5f312e",
        "cd6ccde7a8d1b54bd24ffe395700d1dd6b62b9c97c67ee08db2176aad4bd45cf",
    ),
    "plane": (
        "80347a008a4fd05009caa15a821f761d89bd140da214fe95781197d2016d7bd7",
        "466d95d5f65c8932c8257a4ee289bed3cfe69a65865705eef0eae56a362be7aa",
        "ad457aa294ccb7e88dcfcfdc11b03a7f9b19a91e3a6c1b6eea97dd9d5bba1c44",
    ),
    "random-finite-3": (
        "41bbb703c86534f47162791c12e71adec9ce2df00da8a7a872a55a8650ec3a7d",
        "08b9ff11917547ee2331b6ce05860982ac3872be33f642dc6c08264dd5165490",
        "44daa96a6f0e7b9adb1506f413ed8dd94377077eb6192e6d75ce6067aea16e67",
    ),
}


@pytest.mark.parametrize("name", sorted(RUN_PINS))
def test_run_outputs_are_pinned(tmp_path, name):
    args = {
        "paper-example": ["--scenario", "paper-example"],
        "plane": ["--scenario", write_json(tmp_path / "plane.json", plane_scenario())],
        "random-finite-3": ["--scenario", "random-finite", "--seed", "3"],
    }[name]
    got = []
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["run", *args, "--out", str(out), "--format", fmt]) == 0
        got.append(hashlib.sha256((out / f"trace.{fmt}").read_bytes()).hexdigest())
        report = json.loads((out / "report.json").read_text())
        del report["timing_ms"]
        got.append(hashlib.sha256(dumps_canonical(report).encode()).hexdigest())
    csv_trace, csv_report, json_trace, json_report = got
    assert csv_report == json_report
    assert (csv_trace, json_trace, csv_report) == RUN_PINS[name]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("space", ["plane", "matrix"])
def test_run_makes_the_cauchy_bounds_once(tmp_path, monkeypatch, space, fmt):
    # bound_audit and the trace writer read one set of Cauchy bounds, made
    # by orbit._trace_arrays: one cauchy_series and one cauchy_bounds per
    # run, counted wherever a bfixpoint module holds either name; the
    # random-finite builtin is a matrix space
    calls = Counter()
    modules = [m for k, m in sys.modules.items() if k == "bfixpoint" or k.startswith("bfixpoint.")]
    for name in ("cauchy_series", "cauchy_bounds"):
        real = getattr(sys.modules["bfixpoint.orbit"], name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if vars(module).get(name) is real:
                monkeypatch.setattr(module, name, counted)
    scenario = write_json(tmp_path / "sc.json", plane_scenario()) if space == "plane" else "random-finite"
    assert main(["run", "--scenario", scenario, "--seed", "3", "--out", str(tmp_path / "o"), "--format", fmt]) == 0
    assert calls == {"cauchy_series": 1, "cauchy_bounds": 1}


@pytest.mark.parametrize("stage", ["_trace_arrays", "bound_audit"])
def test_a_value_error_after_the_orbit_is_invalid_input(tmp_path, capsys, monkeypatch, stage):
    # only the alpha gate and run_orbit make a hypothesis violation (exit 1);
    # a ValueError from the trace's arrays or its audit, made after them, is
    # invalid input (exit 3)
    def refuse(*args, **kwargs):
        raise ValueError(f"{stage} refused")

    monkeypatch.setattr(sys.modules["bfixpoint.cli"], stage, refuse)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "paper-example", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {stage} refused\n" and captured.out == "" and not out.exists()


class TestVerify:
    def test_builtin_example_passes(self, tmp_path, capsys):
        assert main(["verify", "--scenario", "paper-example"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["axioms"]["passed"] is True
        assert out["certificate"]["alpha_min"] == pytest.approx(0.81, abs=1e-9)
        assert out["certificate"]["coverage"] == "empirical"

    def test_understated_s_fails_with_witnesses(self, tmp_path, capsys):
        path = write_json(tmp_path / "sc.json", squared_line_scenario(s=1.9))
        assert main(["verify", "--scenario", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["axioms"]["passed"] is False
        assert out["axioms"]["violations_total"] >= 1
        v = out["axioms"]["violations"][0]
        assert v["axiom"] == "relaxed-triangle"
        assert v["witness"] == [0, 2, 1]

    def test_missing_path_is_invalid_input(self, tmp_path):
        assert main(["verify", "--scenario", str(tmp_path / "nope.json")]) == 3


class TestCompare:
    def test_builtin_example_table(self, capsys):
        assert main(["compare", "--scenario", "paper-example"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        row33 = next(ln for ln in lines if ln.startswith("thm33"))
        row41 = next(ln for ln in lines if ln.startswith("thm41"))
        assert "YES" in row33 and "max(alpha*c*s, alpha*q*s) < 1" in row33
        assert "NO" in row41 and "0.16666666666666666" in row41

    def test_infeasible_side_condition_reports_no(self, tmp_path, capsys):
        # alpha*q*s = 0.6*1*2 >= 1 even though the contraction certifies
        path = write_json(tmp_path / "sc.json", squared_line_scenario(c=1.0, q=1.0, alpha=0.6))
        assert main(["compare", "--scenario", path]) == 0
        row33 = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("thm33"))
        assert "NO" in row33 and row33.endswith("  1.2 > 1")

    def test_side_condition_at_its_boundary_reports_no(self, tmp_path, capsys):
        # alpha*c*s = 0.5*1*2 = 1 fails thm33's strict < while x -> 0.5x certifies at alpha 0.5
        obj = dict(paper_scenario(alpha=0.5), params={"c": 1.0, "q": 0.0, "alpha": 0.5})
        obj["map"] = {"kind": "branches", "branches": [{"A": [[0.5]], "b": [0.0]}]}
        assert main(["compare", "--scenario", write_json(tmp_path / "sc.json", obj)]) == 0
        row33 = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("thm33"))
        assert "NO" in row33 and row33.endswith("  1 >= 1")

    def test_metric_constant_map_passes_both(self, tmp_path, capsys):
        obj = {
            "space": {"kind": "matrix", "n": 3, "s": 1.0, "d": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]},
            "map": {"kind": "table", "images": {"0": [0], "1": [0], "2": [0]}},
            "params": {"c": 1.0, "q": 1.0, "alpha": 0.1},
            "x0": 2,
            "tol": 1e-9,
            "max_iter": 100,
            "sample": {"kind": "points", "pts": [0, 1, 2]},
        }
        assert main(["compare", "--scenario", write_json(tmp_path / "sc.json", obj)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "YES" in next(ln for ln in lines if ln.startswith("thm33"))
        assert "YES" in next(ln for ln in lines if ln.startswith("thm41"))

    def test_invalid_input(self, tmp_path):
        assert main(["compare", "--scenario", str(tmp_path / "missing.json")]) == 3
