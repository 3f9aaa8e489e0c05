#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
src/. With --trace 0 the run measures the end-to-end metrics of
BENCHMARK.json with no wrappers installed: it sweeps a fixed list of whole
blocks of operations until the time is up, and takes the median of each
operation's executions, failed ones included. With --trace 1 it measures the
per-layer metrics instead: one count pass over the first block, then
untraced and span passes over the same block, alternating until the time
is up. Every execution's output is checked against the golden digest
recorded for it.

End-to-end times are scaled to a reference machine speed: a fixed
pure-Python loop (reference_work) is timed right before and right after
every operation and around every set-up probe, and each time is multiplied
by REFERENCE_MS over that loop's median time. The lines before the result
also give the unscaled wall-clock figures.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; "attempted" counts the
distinct pool items a run executed and "failed" those of them that failed,
so both depend only on the seed and the run length.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# An operation's time is the median of its executions, one per sweep, and
# set-up is probed before every sweep and after the last. On a shared
# machine the speed of the same code switches between states up to a
# factor 1.7 apart, in spells of a second to minutes. Medians drop a rare
# fast or slow spell, but not a state that lasts most of a run, so every
# time is also divided by the time reference_work takes next to it: both
# run in the same state, and reference_work never calls the program, so a
# change to the program moves only the numerator.
REFERENCE_MS = 1.0
CALIBRATION_SAMPLES = 2


def reference_work() -> float:
    """A fixed interpreter-bound loop, about 1 ms on a 2-CPU Xeon when the
    machine is in its fast state."""
    acc, table = 0.0, {}
    for i in range(8000):
        acc += (i * 1.5) ** 0.5
        table[i & 127] = acc
    return acc


def calibrate() -> list:
    """Milliseconds of each of a few back-to-back runs of reference_work."""
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        t0 = time.perf_counter()
        reference_work()
        samples.append((time.perf_counter() - t0) * 1e3)
    return samples


def speed_scale(before: list, after: list) -> float:
    """Factor that takes a time measured between two calibrations to the
    reference speed."""
    return REFERENCE_MS / statistics.median(before + after)


def _import_program():
    if not (SRC / "bfixpoint" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark at {SRC / 'bfixpoint'}")
    sys.path.insert(0, str(SRC))
    import bfixpoint

    if Path(bfixpoint.__file__).resolve().parent != SRC / "bfixpoint":
        sys.exit(f"error: bfixpoint imported from {bfixpoint.__file__}, not from {SRC}")


class Loop:
    """Closed loop with one client: one operation at a time, each timed
    alone and then checked against its golden digest outside the timer.
    With ``calibrated`` set, reference_work is timed before and after each
    operation; the samples after one operation serve as the samples before
    the next."""

    def __init__(self, inputs, golden, recorder=None, calibrated=False):
        self.inputs = inputs
        self.golden = golden
        self.recorder = recorder
        self.calibrated = calibrated
        self.last_calibration = None
        self.items = set()
        self.failed_items = set()
        self.correct = True

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return len(self.failed_items)

    def op(self, k: int) -> tuple[float, bool, float]:
        """Run pool item k; returns (wall milliseconds, succeeded, factor
        to the reference speed, or 1.0 when not calibrated)."""
        self.inputs.prepare(k)
        if self.calibrated and self.last_calibration is None:
            self.last_calibration = calibrate()
        t0 = time.perf_counter()
        try:
            result = self.inputs.run(k)
            raised = None
        except Exception as exc:  # an operation that raises counts as failed
            raised = exc
        ms = (time.perf_counter() - t0) * 1e3
        scale = 1.0
        if self.calibrated:
            after = calibrate()
            scale = speed_scale(self.last_calibration, after)
            self.last_calibration = after
        if self.recorder is not None:
            self.recorder.active = False
        try:
            expected = self.golden[k]
            if raised is not None:
                # only the failure this commit already had, not a new exception
                ok, right = False, expected == "fail" and isinstance(raised, RuntimeError)
            else:
                ok = right = self.inputs.check(k, result, expected)
        finally:
            if self.recorder is not None:
                self.recorder.active = True
        if raised is not None and not right:
            print(f"op {k} raised {type(raised).__name__}: {raised}", file=sys.stderr)
        elif not right:
            print(f"op {k}: output differs from the golden digest", file=sys.stderr)
        self.items.add(k)
        if not ok:
            self.failed_items.add(k)
        self.correct &= right
        return ms, ok, scale


def tail(values: list) -> tuple[float, float]:
    """The highest sample with at least ten samples beyond it, and its
    percentile; the maximum when there are fewer than eleven samples."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def setup_seconds(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[float, float]:
    """Fresh-interpreter set-up: spawn to the probe's ready line, which it
    prints after importing bfixpoint.cli and building the run's inputs.
    Returns (wall seconds, factor to the reference speed)."""
    probe_dir = workdir / "probe"
    before = calibrate()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(seconds), str(probe_dir)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    after = calibrate()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"error: set-up probe failed with exit code {proc.returncode}")
    shutil.rmtree(probe_dir)
    return dt, speed_scale(before, after)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    import workloads

    warmup, ops = workloads.timed_ops(workload, seed, seconds)
    setups = [setup_seconds(workload, seed, seconds, workdir)]
    inputs = workloads.Inputs(workload, workdir / "inputs", warmup + ops)
    loop = Loop(inputs, workloads.load_golden(workload), calibrated=True)
    for k in warmup:
        loop.op(k)
    runs = [[] for _ in ops]  # runs[i]: (wall ms, succeeded, scale) of each execution of ops[i]
    t0 = time.perf_counter()
    deadline = t0 + seconds
    sweeps = 0
    # Whole sweeps only, while at least half of one more fits in the time.
    while sweeps == 0 or time.perf_counter() + (time.perf_counter() - t0) / sweeps / 2 < deadline:
        if sweeps:
            setups.append(setup_seconds(workload, seed, seconds, workdir))
            loop.last_calibration = None
        for k, r in zip(ops, runs):
            r.append(loop.op(k))
        sweeps += 1
    setups.append(setup_seconds(workload, seed, seconds, workdir))
    if not any(ok for r in runs for _, ok, _ in r):
        sys.exit("error: no operation succeeded")

    def summary(scaled: bool) -> dict:
        op_ms = [statistics.median(ms * (scale if scaled else 1.0) for ms, _, scale in r) for r in runs]
        total_s = math.fsum(ms * (scale if scaled else 1.0) for r in runs for ms, _, scale in r) / 1e3
        return {
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail(op_ms)[0],
            # the output checks and calibrations between operations are the
            # benchmark's work, not the program's
            "ops_per_s": len(ops) * sweeps / total_s,
            "setup_s": statistics.median(dt * (scale if scaled else 1.0) for dt, scale in setups),
        }

    values, wall = summary(True), summary(False)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = statistics.median(scale for r in runs for _, _, scale in r)
    n = len(ops)
    tail_pct = tail(list(range(n)))[1]
    notes = {
        "op_p50_ms": f"median over {n} operations, each the median of its {sweeps} executions",
        "op_tail_ms": f"p{tail_pct:.1f} of {n} samples",
        "ops_per_s": f"{n * sweeps} executions, failed included, over their summed time; closed loop, 1 client",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": "this process",
    }
    for name, value in wall.items():
        notes[name] += f"; {value:.6g} unscaled"
    print(f"{workload} seed {seed}: {n * sweeps + len(warmup)} executions of {loop.attempted} pool items, "
          f"{len(warmup)} of them warm-up; the machine ran at {speed:.3g}x the reference speed")
    print(f"  failed_share = {loop.failed / loop.attempted:.6g} ({loop.failed}/{loop.attempted} pool items)")
    return loop, values, notes


def per_layer(workload: str, seed: int, seconds: float, workdir: Path):
    import workloads
    from layers import CountRecorder, Patches, SpanRecorder

    ops = next(workloads.blocks(workload, seed))
    inputs = workloads.Inputs(workload, workdir / "inputs", ops)
    golden = workloads.load_golden(workload)
    deadline = time.perf_counter() + seconds

    counter = CountRecorder()
    patches = Patches()
    counter.install(patches, spec.COUNTS)
    loop = Loop(inputs, golden, counter)
    try:
        for k in ops:
            loop.op(k)
    finally:
        patches.undo()

    spans = SpanRecorder()
    untraced, traced, unaccounted = [], [], 0.0
    while True:
        loop.recorder = None
        untraced += [loop.op(k)[0] for k in ops]
        missing_spans = spans.install(patches, spec.SPANS)
        loop.recorder = spans
        try:
            for k in ops:
                before = spans.top_ms
                ms = loop.op(k)[0]
                traced.append(ms)
                unaccounted += ms - (spans.top_ms - before)
        finally:
            patches.undo()
        if time.perf_counter() >= deadline:
            break

    n_traced = len(traced)
    values = {name: spans.self_ms[name] / n_traced for name in spec.SPANS}
    values.update({name: counter.counts[name] / len(ops) for name in spec.COUNTS})
    values["unaccounted_ms"] = unaccounted / n_traced
    values["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    for name in missing_spans | counter.missing:
        values[name] = "missing"
    notes = {name: f"per operation, {len(ops)} operations x {n_traced // len(ops)} passes" for name in spec.SPANS}
    notes.update({name: f"per operation, one count pass over {len(ops)} operations" for name in spec.COUNTS})
    print(f"{workload} seed {seed}: traced {len(ops)} operations; {n_traced // len(ops)} span passes")
    return loop, values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec.BENCH["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()

    metrics = spec.BENCH["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        measure = per_layer if args.trace else end_to_end
        loop, values, notes = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            (ROOT / ".perfbench_work").rmdir()

    for m in metrics:
        value = values[m["name"]]
        shown = value if isinstance(value, str) else f"{value:.6g}"
        note = notes.get(m["name"])
        print(f"  {m['name']} = {shown} {m['unit']}" + (f" ({note})" if note else ""))
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
