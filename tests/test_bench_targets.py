"""Every function the benchmark wraps or calls still exists.

perfbench/ traces per-layer metrics by wrapping the functions named in its
spec.py (SPANS, COUNTS); a renamed function there silently reads "missing".
This test resolves each name with the benchmark's own resolver, so such a
rename fails here instead.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bfixpoint
from bfixpoint import setops

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers, bench_spec = _module("layers"), _module("spec")
TARGETS = sorted(
    {target for targets in bench_spec.SPANS.values() for target in targets}
    | {(module, qualname) for module, qualname, _ in bench_spec.COUNTS.values()}
    | {("cli", "main")}  # the workloads call it directly
)


@pytest.mark.parametrize("module, qualname", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_wrap_target_resolves(module, qualname):
    assert layers._resolve(module, qualname) is not None


def test_hausdorff_is_the_setops_function():
    # one wrapper on setops.hausdorff must see every call: each module of the
    # package that binds the name binds that function
    modules = [importlib.import_module(f"bfixpoint.{m.name}") for m in pkgutil.iter_modules(bfixpoint.__path__)]
    bound = [m for m in (bfixpoint, *modules) if hasattr(m, "hausdorff")]
    assert setops in bound and all(m.hausdorff is setops.hausdorff for m in bound)
