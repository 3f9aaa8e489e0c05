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
from dataclasses import asdict, replace
from itertools import chain, repeat
from pathlib import Path

from .bspace import AxiomReport, verify_axioms
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


def _certified(scenario_arg: str, seed: int | None) -> tuple[Scenario, list, ContractionCertificate, dict]:
    """The set-up every command shares: resolve the scenario, certify it on
    its sample points (returned too), and check the hypotheses at its
    declared alpha."""
    sc = builtin(scenario_arg, seed) if scenario_arg in BUILTIN_NAMES else load(scenario_arg)
    pts = sample_points(sc)
    cert = certify(sc.space, sc.map, pts, sc.params.c, sc.params.q)
    return sc, pts, cert, check_hypotheses(cert, sc.params.alpha)


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
        "violations": [asdict(v) for v in shown],
    }


_TRACE_COLUMNS = ("n", "point", "d_n", "ratio", "gamma", "cauchy_bound_at_n")
# one row of each trace format; field {i} is the cell of _TRACE_COLUMNS[i],
# and json's keys come in the sorted order dumps_canonical writes
_CSV_ROW = "{0},{1},{2},{3},{4},{5}\n"
_JSON_ROW = (
    '    {{\n      "cauchy_bound_at_n": {5},\n      "d_n": {2},\n      "gamma": {4},\n'
    '      "n": {0},\n      "point": {1},\n      "ratio": {3}\n    }}'
)


def _formatted(xs) -> list:
    """format(x, ".17g") of each number of xs, which is format_float's
    text; a non-finite number comes out as "inf", "-inf" or "nan"."""
    return list(map(format, xs, repeat(".17g")))


def _trace_cells(space, trace: OrbitTrace | None, empty: str) -> list:
    """The trace's cells, column by column in _TRACE_COLUMNS order: n; each
    point as the tuple of its coordinates' texts (an id's text for a matrix
    space); the numbers as _formatted texts, `empty` for a missing cell,
    the Cauchy bounds those of cauchy_bounds. gamma is formatted once. No
    trace gives no rows."""
    if trace is None:
        return [()] * len(_TRACE_COLUMNS)
    pts, steps, gamma = trace.points, trace.steps, trace.gamma
    n = len(pts)
    if space.kind == "matrix":
        points = list(map(str, pts))
    else:
        points = list(zip(*[iter(_formatted(chain.from_iterable(pts)))] * space.dim))
    ratio = [format(b / a, ".17g") if a else empty for a, b in zip(steps, steps[1:])]
    bound = [empty] * n
    if steps:
        bound = _formatted(cauchy_bounds(cauchy_series(gamma, space.s, first_step=steps[0]), n))
    d_n = _formatted(steps) + [empty]
    return [range(n), points, d_n, [empty, *ratio, empty][:n], repeat(format(gamma, ".17g"), n), bound]


def _finite(text: str) -> str:
    """The trace text, or format_float's ValueError for its first non-finite
    number (no column name or JSON keyword spells inf or nan)."""
    if "inf" in text or "nan" in text:
        format_float(float(re.search("-?inf|nan", text).group()))
    return text


def _trace_csv(space, trace: OrbitTrace | None) -> str:
    n, points, *rest = _trace_cells(space, trace, "")
    if space.kind != "matrix":
        points = map(";".join, points)
    return _finite(",".join(_TRACE_COLUMNS) + "\n" + "".join(map(_CSV_ROW.format, n, points, *rest)))


def _trace_json(space, trace: OrbitTrace | None) -> str:
    n, points, *rest = _trace_cells(space, trace, "null")
    if not n:
        return dumps_canonical({"rows": []}) + "\n"
    if space.kind != "matrix":
        points = map("[\n        {}\n      ]".format, map(",\n        ".join, points))
    return _finite('{\n  "rows": [\n' + ",\n".join(map(_JSON_ROW.format, n, points, *rest)) + "\n  ]\n}\n")


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

    sc, _pts, cert, hyp = _certified(scenario_arg, seed)
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
    sc, pts, cert, hyp = _certified(scenario_arg, seed)
    # zero is read up to 1e-12 of the largest distance over the sample's pairs
    axioms = verify_axioms(sc.space, pts, tol=1e-12)
    print(dumps_canonical({"axioms": _axiom_obj(axioms), "certificate": _cert_obj(sc, cert, hyp)}))
    return 0 if axioms.passed and hyp["thm33"]["applicable"] else 1


def cmd_compare(scenario_arg: str, seed: int | None = None) -> int:
    sc, _pts, cert, hyp = _certified(scenario_arg, seed)
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


def main(argv=None) -> int:
    parser = _Parser(
        prog="bfixpoint",
        description="Fixed-point engine for set-valued contractions in b-metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_run_flags: bool):
        sp.add_argument(
            "--scenario",
            required=True,
            help=f"scenario JSON path or builtin name ({', '.join(BUILTIN_NAMES)})",
        )
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

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(
                args.scenario, args.out,
                tol=args.tol, beta=args.beta, max_iter=args.max_iter,
                fmt=args.format, seed=args.seed,
            )
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
