"""Every benchmark pool item still reproduces its golden digest.

perfbench/golden/ holds the digest of every pool item's output, recorded
when the benchmark was defined (perfbench/golden.py). Each item is run here
through the benchmark's own Inputs, in a temporary directory, and checked
as a benchmark run checks it (Inputs.check). A RuntimeError (random_finite
finding no instance) passes only where the golden says "fail". The
perfbench modules are loaded from their files and not changed.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.POOL))
def test_pool_items_match_their_golden_digests(tmp_path, workload):
    golden = workloads.load_golden(workload)
    items = range(workloads.POOL[workload])
    assert len(golden) == len(items)
    inputs = workloads.Inputs(workload, tmp_path, items)
    moved = []
    for k in items:
        inputs.prepare(k)
        try:
            result = inputs.run(k)
        except RuntimeError:
            same = golden[k] == "fail"
        else:
            same = inputs.check(k, result, golden[k])
        if not same:
            moved.append(k)
    assert not moved, f"{workload}: items {moved} no longer match their golden digests"
