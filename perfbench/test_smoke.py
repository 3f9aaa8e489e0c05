"""Smoke test for the benchmark: every workload at minimal length.

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the tier-1 suite, which collects tests/ only, and takes
about two minutes on two cores.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

BENCH = spec.BENCH
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> tuple[list, dict]:
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    return lines, json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metric_names(workload):
    lines, result = result_of(bench(workload, 1, 0))
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["attempted"] > 0
    printed = "\n".join(lines)
    for name in names + ["failed_share"]:
        assert f"  {name} = " in printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    _, first = result_of(bench(workload, 2, 1))
    _, second = result_of(bench(workload, 2, 1))
    assert list(first["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert first["correct"] and second["correct"]
    for name in spec.COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    if workload == "certify-grid":
        m = {name: v["value"] for name, v in first["metrics"].items()}
        assert m["quasicontraction.image_of.calls"] >= 6 * m["quasicontraction.certify.pairs"] > 0


def test_gen_sweep_failures_are_the_known_ones():
    _, result = result_of(bench("gen-sweep", 3, 0))
    warmup, ops = workloads.timed_ops("gen-sweep", 3, 1)
    items = set(warmup + ops)
    assert result["attempted"] == len(items) == workloads.POOL["gen-sweep"]
    golden = workloads.load_golden("gen-sweep")
    assert result["failed"] == sum(golden[k] == "fail" for k in items) > 0


@pytest.mark.parametrize("exc, right", [(RuntimeError, True), (TypeError, False)])
def test_known_failure_must_raise_as_recorded(exc, right):
    class Raising:
        def prepare(self, k):
            pass

        def run(self, k):
            raise exc("could not place separated chains")

    loop = run.Loop(Raising(), ["fail"])
    loop.op(0)
    assert (loop.attempted, loop.failed, loop.correct) == (1, 1, right)


def test_fails_without_the_program():
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("certify-grid", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_patches_reach_every_importer_and_undo():
    from layers import CountRecorder, Patches

    import bfixpoint.quasicontraction as qc
    import bfixpoint.setops as so

    orig = so.hausdorff
    patches = Patches()
    CountRecorder().install(patches, {"setops.hausdorff.calls": ("setops", "hausdorff", "calls")})
    try:
        assert qc.hausdorff is so.hausdorff is not orig
    finally:
        patches.undo()
    assert qc.hausdorff is so.hausdorff is orig


def test_missing_wrap_target_is_reported():
    from layers import CountRecorder, Patches, SpanRecorder

    patches = Patches()
    missing = SpanRecorder().install(patches, {"gone.ms": [("quasicontraction", "no_such_function")]})
    counter = CountRecorder()
    counter.install(patches, {"gone.calls": ("no_such_module", "f", "calls")})
    patches.undo()
    assert missing == {"gone.ms"} and counter.missing == {"gone.calls"}
