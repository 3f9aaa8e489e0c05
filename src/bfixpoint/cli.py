"""Command-line front end: run orbits, verify hypotheses, compare theorems.

Exit codes: 0 converged / checks passed, 1 hypothesis or ratio violation,
2 iteration budget exhausted, 3 invalid input: a usage error, a scenario
(or --tol/--max-iter override) that does not parse or build, or one whose
numbers overflow, divide by zero or give a non-finite certificate in
floating point. main maps every such error to exit 3 in one place.
Built-in scenario names ("paper-example", "random-finite") resolve before
filesystem paths.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, replace
from itertools import chain, repeat
from pathlib import Path

from .bspace import AxiomReport, verify_axioms
from .jsonutil import dumps_canonical, format_float
from .orbit import OrbitTrace, bound_audit, cauchy_bound, cauchy_series, run_orbit
from .quasicontraction import ContractionCertificate, certify, check_hypotheses, verdicts
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


def _certified(scenario_arg: str, seed: int | None) -> tuple[Scenario, ContractionCertificate, dict]:
    """The set-up every command shares: resolve the scenario, certify it on
    its sample, and check the hypotheses at its declared alpha."""
    sc = builtin(scenario_arg, seed) if scenario_arg in BUILTIN_NAMES else load(scenario_arg)
    cert = certify(sc.space, sc.map, sample_points(sc), sc.params.c, sc.params.q)
    return sc, cert, check_hypotheses(cert, sc.params.alpha)


def _point_cell(pt) -> str:
    if isinstance(pt, tuple):
        return ";".join(format_float(c) for c in pt)
    return str(pt)


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


def _trace_rows(space, trace: OrbitTrace):
    """Yield one row per orbit point, in _TRACE_COLUMNS order; None marks an
    empty cell. The Cauchy bound is carried from row to row (bound(n+1) =
    gamma*bound(n), which is how cauchy_bound accumulates it)."""
    steps = trace.steps
    bound = None
    if steps:
        bound = cauchy_bound(0, cauchy_series(trace.gamma, space.s, first_step=steps[0]))
    for n, pt in enumerate(trace.points):
        d_n = steps[n] if n < len(steps) else None
        ratio = None
        if 0 < n < len(steps) and steps[n - 1] != 0.0:
            ratio = steps[n] / steps[n - 1]
        yield n, pt, d_n, ratio, trace.gamma, bound
        if bound is not None:
            bound *= trace.gamma


def _csv_cell(x) -> str:
    return "" if x is None else format_float(x)


def _trace_csv(rows) -> str:
    lines = [",".join(_TRACE_COLUMNS)]
    for n, pt, *values in rows:
        lines.append(",".join([str(n), _point_cell(pt)] + [_csv_cell(x) for x in values]))
    return "\n".join(lines) + "\n"


def _trace_json(rows) -> str:
    return dumps_canonical({"rows": [dict(zip(_TRACE_COLUMNS, row)) for row in rows]}) + "\n"


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

    sc, cert, hyp = _certified(scenario_arg, seed)
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
    files = {"report.json": dumps_canonical(report) + "\n"}
    if trace is None:  # no orbit: a CSV trace with the header alone
        files["trace.csv"] = _trace_csv(())
    elif fmt == "json":
        files["trace.json"] = _trace_json(_trace_rows(space, trace))
    else:
        files["trace.csv"] = _trace_csv(_trace_rows(space, trace))
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)

    print(f"{orbit_obj.get('status')}: report written to {out / 'report.json'}")
    return exit_code


def cmd_verify(scenario_arg: str, seed: int | None = None) -> int:
    sc, cert, hyp = _certified(scenario_arg, seed)
    pts = sample_points(sc)
    # zero is read up to 1e-12 of the largest distance over the sample's pairs
    xs = chain.from_iterable(map(repeat, pts, range(len(pts) - 1, 0, -1)))
    tol = 1e-12 * float(sc.space.dists(xs, chain.from_iterable(pts[i:] for i in range(1, len(pts)))).max())
    axioms = verify_axioms(sc.space, pts, tol=tol)
    print(dumps_canonical({"axioms": _axiom_obj(axioms), "certificate": _cert_obj(sc, cert, hyp)}))
    return 0 if axioms.passed and hyp["thm33"]["applicable"] else 1


def cmd_compare(scenario_arg: str, seed: int | None = None) -> int:
    _sc, _cert, hyp = _certified(scenario_arg, seed)
    rows = []
    for name in ("thm33", "thm41"):
        v = hyp[name]
        rel = "<" if name == "thm33" else "<="
        ok = v["applicable"]
        rel_shown = rel if v["value"] <= v["threshold"] else ">"
        rows.append(
            (
                name,
                "YES" if ok else "NO",
                v["condition"],
                f"{format_float(v['value'])} {rel_shown} {format_float(v['threshold'])}",
            )
        )
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
    except (ValueError, OSError, RuntimeError) as exc:
        reason = exc
    print(f"error: {reason}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
