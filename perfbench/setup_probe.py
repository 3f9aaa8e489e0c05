"""Set-up probe: a fresh interpreter imports bfixpoint.cli and builds the
inputs of one run of a workload, then prints "ready". run.py times it from
spawn to that line.

    python3 perfbench/setup_probe.py <workload> <seed> <seconds> <workdir>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bfixpoint.cli  # noqa: E402,F401

import workloads  # noqa: E402

workload, seed, seconds, workdir = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4])
warmup, ops = workloads.timed_ops(workload, seed, seconds)
workloads.Inputs(workload, workdir, warmup + ops)
print("ready", flush=True)
