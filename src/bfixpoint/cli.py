"""Command-line front end: run orbits, verify hypotheses, compare theorems.

Exit codes: 0 converged / checks passed, 1 hypothesis or ratio violation,
2 iteration budget exhausted, 3 invalid input: a usage error, a scenario
(or --tol/--max-iter override) that does not parse or build, or one whose
numbers overflow, divide by zero, run out of memory or give a non-finite
certificate in floating point. main maps every such error to exit 3.
Built-in scenario names ("paper-example", "random-finite") resolve before
filesystem paths.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import replace
from functools import cache
from itertools import chain, product
from pathlib import Path

import numpy as np

from .bspace import VERIFY_TOL, AxiomReport, verify_axioms
from .jsonutil import dumps_canonical, format_float
from .orbit import OrbitTrace, bound_audit, cauchy_bounds, cauchy_series, run_orbit
from .quasicontraction import ContractionCertificate, certify, check_hypotheses, side_conditions, verdicts
from .scenarios import (
    BUILTIN_NAMES,
    Scenario,
    builtin,
    load,
    sample_points,
    scenario_digest,
)

_MAX_PRINTED_VIOLATIONS = 50


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, invalid input; argparse's own 2 means a spent budget here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _certified(
    scenario_arg: str, seed: int | None, table: bool = False
) -> tuple[Scenario, list, ContractionCertificate, dict, np.ndarray | None]:
    """The set-up every command shares: resolve the scenario, certify it on
    its sample points (returned too), and check the hypotheses at its
    declared alpha. With table, certify also fills in the sample's n x n
    distance table (certify's _table), returned last; else None."""
    sc = builtin(scenario_arg, seed) if scenario_arg in BUILTIN_NAMES else load(scenario_arg)
    pts = sample_points(sc)
    dmat = np.zeros((len(pts), len(pts))) if table else None
    cert = certify(sc.space, sc.map, pts, sc.params.c, sc.params.q, _table=dmat)
    return sc, pts, cert, check_hypotheses(cert, sc.params.alpha), dmat


def _cert_obj(sc: Scenario, cert: ContractionCertificate, hyp: dict, gamma: float | None = None) -> dict:
    return {
        "scenario_digest": scenario_digest(sc),
        "alpha_min": cert.alpha_min,
        "alpha41_min": cert.alpha41_min,
        "worst_pair": cert.worst_pair,
        "coverage": cert.coverage,
        "n_pairs": cert.n_pairs,
        "s": cert.s,
        "c": cert.c,
        "q": cert.q,
        "q_conventional_name": "d",
        "alpha_supplied": sc.params.alpha,
        "supplied_alpha_is_valid_certificate": hyp["contraction_holds"],
        # lemma41 compares s*gamma < 1 and needs a run's gamma
        "verdicts": verdicts(cert, cert.alpha_min, gamma),
        "assumptions": cert.assumptions,
        "hypotheses": hyp,
    }


def _axiom_obj(report: AxiomReport) -> dict:
    shown = report.violations[:_MAX_PRINTED_VIOLATIONS]
    return {
        "passed": report.passed,
        "violations_total": len(report.violations),
        "violations": [v._asdict() for v in shown],
    }


_TRACE_COLUMNS = ("n", "point", "d_n", "ratio", "gamma", "cauchy_bound_at_n")
# one row of each trace format; json's keys in the sorted order dumps_canonical writes
_CSV_ROW = "{n},{point},{d_n},{ratio},{gamma},{cauchy_bound_at_n}\n"
_JSON_ROW = (
    '    {{\n      "cauchy_bound_at_n": {cauchy_bound_at_n},\n      "d_n": {d_n},\n      "gamma": {gamma},\n'
    '      "n": {n},\n      "point": {point},\n      "ratio": {ratio}\n    }}'
)


def _trace_rows(space, trace: OrbitTrace, row: str, sep: str, empty: str, point: str) -> str:
    """The trace's rows joined by sep: one template, filled in by one % from
    one flat tuple of the rows' numbers in text order.

    A row is `row` with %d for n, `point` (%d for a matrix id, else one
    %.17g per coordinate), gamma's text, and %.17g for d_n, the ratio and
    the Cauchy bound (cauchy_bounds), or `empty` and %.0s, which drops its
    number, where the cell is empty: d_n in the last row, the ratio in the
    first, the last and a row after a zero step, the bound without steps;
    an empty cell holds 0. %.17g and format_float both call
    PyOS_double_to_string, and numpy's division rounds as Python's does.
    A run_orbit trace writes only finite numbers: a ratio is at most about
    gamma (the decay check), and cauchy_bounds raises beyond the float range.
    """
    pts, steps = trace.points, np.array(trace.steps, dtype=float)
    n, k = len(pts), len(steps)  # n = k + 1
    ratio, has_ratio = np.zeros(n), np.zeros(n, bool)
    has_ratio[1:k] = steps[:-1] != 0.0
    with np.errstate(all="ignore"):  # a ratio may overflow or underflow, as with /; an unwritten one stays 0
        np.divide(steps[1:], steps[:-1], out=ratio[1:k], where=has_ratio[1:k])
    bound = cauchy_bounds(cauchy_series(trace.gamma, space.s, trace.steps[0]), n) if k else [0.0] * n
    cells = {"n": np.arange(n, dtype=float), "d_n": np.append(steps, 0.0), "ratio": ratio, "cauchy_bound_at_n": bound}
    cells["point"] = np.fromiter(pts if space.kind == "matrix" else chain.from_iterable(pts), float).reshape(n, -1)
    values = np.column_stack([cells[c] for c in re.findall(r"{(\w+)}", row) if c != "gamma"])
    cell, gamma = {True: "%.17g", False: empty + "%.0s"}, format(trace.gamma, ".17g")
    variants = [row.format(n="%d", point=point, gamma=gamma, d_n=cell[d], ratio=cell[r], cauchy_bound_at_n=cell[b])
                for d, r, b in product((False, True), repeat=3)]
    code = 4 * (np.arange(n) < k) + 2 * has_ratio + (k > 0)  # each row's variant
    return sep.join(map(variants.__getitem__, code.tolist())) % tuple(values.ravel().tolist())


def _trace_csv(space, trace: OrbitTrace | None) -> str:
    point = "%d" if space.kind == "matrix" else ";".join(["%.17g"] * space.dim)
    rows = "" if trace is None else _trace_rows(space, trace, _CSV_ROW, "", "", point)
    return ",".join(_TRACE_COLUMNS) + "\n" + rows


def _trace_json(space, trace: OrbitTrace | None) -> str:
    if trace is None:
        return dumps_canonical({"rows": []}) + "\n"
    point = "%d" if space.kind == "matrix" else "[\n        " + ",\n        ".join(["%.17g"] * space.dim) + "\n      ]"
    return '{\n  "rows": [\n' + _trace_rows(space, trace, _JSON_ROW, ",\n", "null", point) + "\n  ]\n}\n"


def cmd_run(
    scenario_arg: str,
    out_dir: str,
    tol: float | None = None,
    beta: float | None = None,
    max_iter: int | None = None,
    fmt: str = "csv",
    seed: int | None = None,
) -> int:
    t0 = time.perf_counter()
    # a failed run must not leave an earlier run's outputs to be read as its own
    out = Path(out_dir)
    for name in ("report.json", "trace.csv", "trace.json"):
        (out / name).unlink(missing_ok=True)

    sc, _pts, cert, hyp, _ = _certified(scenario_arg, seed)
    # the overrides pass the scenario's own checks; the report keeps the
    # digest of the scenario as loaded
    run = replace(sc, tol=sc.tol if tol is None else tol, max_iter=sc.max_iter if max_iter is None else max_iter)
    space, p = sc.space, sc.params

    trace = None
    if not hyp["contraction_holds"]:
        orbit_obj = {
            "status": "hypothesis_violation",
            "reason": f"supplied alpha {p.alpha} below certified alpha_min {cert.alpha_min}",
        }
        exit_code = 1
    else:
        try:
            trace = run_orbit(
                space, sc.map, p.c, p.q, p.alpha, sc.x0,
                x1=sc.x1, beta=p.beta if beta is None else beta, tol=run.tol, max_iter=run.max_iter,
            )
            orbit_obj = {
                "status": trace.status,
                "iterations": len(trace.steps),
                "beta": trace.beta,
                "gamma": trace.gamma,
                "fixed_point": trace.fixed_point,
                "residual": trace.residual,
                "violation_step": trace.violation_step,
                "x0": sc.x0,
                "tol": run.tol,
            }
            exit_code = {"converged": 0, "max_iter": 2, "ratio_violation": 1}[trace.status]
        except ValueError as exc:
            orbit_obj = {"status": "hypothesis_violation", "reason": str(exc)}
            exit_code = 1

    report = {
        "certificate": _cert_obj(sc, cert, hyp, trace.gamma if trace is not None else None),
        "orbit": orbit_obj,
        "audit": bound_audit(space, trace) if trace is not None else {"ok": False, "violations": 0},
        "timing_ms": (time.perf_counter() - t0) * 1000.0,
    }
    # everything is formatted before the first file is written
    # without an orbit the trace has no rows, in the format asked for
    trace_name, write_trace = ("trace.json", _trace_json) if fmt == "json" else ("trace.csv", _trace_csv)
    files = {"report.json": dumps_canonical(report) + "\n", trace_name: write_trace(space, trace)}
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)

    print(f"{orbit_obj.get('status')}: report written to {out / 'report.json'}")
    return exit_code


def cmd_verify(scenario_arg: str, seed: int | None = None) -> int:
    sc, pts, cert, hyp, dmat = _certified(scenario_arg, seed, table=True)
    # zero is read up to VERIFY_TOL of the largest distance over the sample's
    # pairs, whose distances certify has evaluated
    axioms = verify_axioms(sc.space, pts, tol=VERIFY_TOL, _table=dmat)
    print(dumps_canonical({"axioms": _axiom_obj(axioms), "certificate": _cert_obj(sc, cert, hyp)}))
    return 0 if axioms.passed and hyp["thm33"]["applicable"] else 1


def cmd_compare(scenario_arg: str, seed: int | None = None) -> int:
    sc, _pts, cert, hyp, _ = _certified(scenario_arg, seed)
    conditions = side_conditions(cert, sc.params.alpha)
    rows = []
    for name in ("thm33", "thm41"):
        cond = conditions[name]
        values = f"{format_float(cond.value)} {cond.shown_relation} {format_float(cond.threshold)}"
        rows.append((name, "YES" if hyp[name]["applicable"] else "NO", cond.condition, values))
    headers = ("theorem", "applicable", "condition", "values")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows)) for i in range(3)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "  " + headers[3])
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "  " + r[3])
    return 0


@cache  # built on first use, not at import; parse_args reads nothing back from an earlier call
def _parser() -> _Parser:
    parser = _Parser(
        prog="bfixpoint", description="Fixed-point engine for set-valued contractions in b-metric spaces."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_run_flags: bool):
        names = ", ".join(BUILTIN_NAMES)
        sp.add_argument("--scenario", required=True, help=f"scenario JSON path or builtin name ({names})")
        sp.add_argument("--seed", type=int, default=None, help="seed for generated builtins")
        if with_run_flags:
            sp.add_argument("--out", required=True, help="output directory for trace and report")
            sp.add_argument("--tol", type=float, default=None, help="override scenario tolerance")
            sp.add_argument("--beta", type=float, default=None, help="override selection margin beta")
            sp.add_argument("--max-iter", type=int, default=None, help="override iteration budget")
            sp.add_argument("--format", choices=("csv", "json"), default="csv", help="trace format")

    add_common(sub.add_parser("run", help="run an orbit, write trace and report"), True)
    add_common(sub.add_parser("verify", help="check axioms and contraction certificate"), False)
    add_common(sub.add_parser("compare", help="compare the two applicability conditions"), False)
    return parser


def main(argv=None) -> int:
    """Run the command in argv (default sys.argv[1:]) and return its exit code. The parser
    is built once per process (_parser); a usage error exits 3, --help 0."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.out, tol=args.tol, beta=args.beta, max_iter=args.max_iter,
                           fmt=args.format, seed=args.seed)
        if args.command == "verify":
            return cmd_verify(args.scenario, seed=args.seed)
        return cmd_compare(args.scenario, seed=args.seed)
    except ArithmeticError as exc:
        # overflow or division by zero on a parsed scenario: its numbers
        # cannot be processed in floating point, which is invalid input
        reason = f"arithmetic failure ({type(exc).__name__}: {exc})"
    except MemoryError as exc:  # numpy's _ArrayMemoryError on a sample too large
        reason = f"out of memory ({type(exc).__name__}: {exc})"
    except (ValueError, OSError, RuntimeError) as exc:
        reason = exc
    print(f"error: {reason}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
