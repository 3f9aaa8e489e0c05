#!/usr/bin/env python3
"""Run every workload once per seed and summarise each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

This is the one command that runs every workload. For each workload and
metric it prints the median, the quartiles, and the spread (third minus
first quartile, as a share of the median) next to the metric's bound, and
the share of failed pool items; then one traced run per workload gives the
per-layer numbers.
With --out it also writes the summary as JSON. Runs are sequential: one
benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec.BENCH["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list, bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "bound": bound, "runs": len(values)}


def machine() -> str:
    model = "unknown CPU"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return (f"{model}, {len(os.sched_getaffinity(0))} CPUs, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    summary = {
        "model": "closed loop, one client: one process issues one operation at a time, no think time",
        "machine": machine(),
        "run_seconds": spec.BENCH["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for w in spec.BENCH["workloads"]:
        workload = w["name"]
        results = [run(workload, seed, 0) for seed in seed_range(args.seeds)]
        rows = {}
        for m in spec.BENCH["end_to_end"]:
            stats = rows[m["name"]] = summarise([r["metrics"][m["name"]]["value"] for r in results], m["bound"])
            print(f"{workload:13} {m['name']:12} median {stats['median']:10.4g} {m['unit']:4} "
                  f"IQR [{stats['q1']:.4g}, {stats['q3']:.4g}] spread {stats['spread']:.3f} bound {m['bound']}")
        traced = run(workload, seed_range(args.seeds)[0], 1)
        summary["workloads"][workload] = row = {
            **spec.LAYERS[workload],
            "end_to_end": rows,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        shares = [f / a for f, a in zip(row["failed"], row["attempted"])]
        print(f"{workload:13} failed_share median {statistics.median(shares):10.4g} share "
              f"range [{min(shares):.4g}, {max(shares):.4g}] (failed {row['failed']} of {row['attempted']})")
        print(f"{workload:13} per layer {json.dumps(row['per_layer'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
