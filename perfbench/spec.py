"""What the traced run wraps, and what each workload loads and bypasses.

BENCHMARK.json at the repository root is the benchmark's definition:
workloads, metrics, units, directions, bounds and run length. This module
names the program functions behind each per-layer metric.

Every workload is a closed loop with one client: one caller in one process
issues one operation at a time and sends the next only when the previous
one has returned, with no think time and no extra threads.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Each workload loads some layers and bypasses others, so that a change to
# one layer has a workload where its mechanism does most of the work and one
# where the prediction is no movement.
LAYERS = {
    "certify-grid": {
        "loads": ["quasicontraction.certify (hausdorff, dist_point_set, image_of 6x per pair)",
                  "bspace.verify_axioms", "quasicontraction.check_hypotheses",
                  "jsonutil.dumps_canonical (verify stdout)", "scenarios.load/instantiate"],
        "bypasses": ["orbit.run_orbit", "cli.bound_audit", "trace writers", "scenarios.random_finite"],
    },
    "long-orbit": {
        "loads": ["orbit.run_orbit", "cli.bound_audit (quadratic in orbit length)",
                  "trace writers (O(n) cauchy_bound per row)", "jsonutil.dumps_canonical (json traces)"],
        "bypasses": ["quasicontraction.certify (at most 21 sample points)", "bspace.verify_axioms",
                     "scenarios.random_finite"],
    },
    "gen-sweep": {
        "loads": ["scenarios.random_finite (placement, rejection rounds)",
                  "quasicontraction.certify (matrix path, many small calls)",
                  "quasicontraction.enumerate_fixed_points", "orbit.run_orbit (short orbits)"],
        "bypasses": ["cli", "cli.bound_audit", "bspace.verify_axioms", "jsonutil.dumps_canonical"],
    },
}

# Span metrics: self time in ms per operation, mean over the traced passes.
# Each maps to the functions whose calls open the span; a function is
# patched in every bfixpoint module that holds it.
SPANS = {
    "cli.cmd.self_ms": [("cli", "cmd_run"), ("cli", "cmd_verify"), ("cli", "cmd_compare")],
    "quasicontraction.certify.ms": [("quasicontraction", "certify")],
    "bspace.verify_axioms.ms": [("bspace", "verify_axioms")],
    "quasicontraction.check_hypotheses.ms": [("quasicontraction", "check_hypotheses")],
    "orbit.run_orbit.ms": [("orbit", "run_orbit")],
    "cli.bound_audit.ms": [("cli", "bound_audit")],
    "jsonutil.dumps_canonical.ms": [("jsonutil", "dumps_canonical")],
    "scenarios.load.ms": [("scenarios", "load")],
    "scenarios.instantiate.ms": [("scenarios", "instantiate")],
    "scenarios.random_finite.ms": [("scenarios", "random_finite")],
    "quasicontraction.enumerate_fixed_points.ms": [("quasicontraction", "enumerate_fixed_points")],
}

# Count metrics: work per operation, mean over the count pass. "calls"
# counts every call; the others read the named quantity off the result.
COUNTS = {
    "quasicontraction.certify.pairs": ("quasicontraction", "certify", "n_pairs"),
    "setops.hausdorff.calls": ("setops", "hausdorff", "calls"),
    "setops.dist_point_set.calls": ("setops", "dist_point_set", "calls"),
    "quasicontraction.image_of.calls": ("quasicontraction", "image_of", "calls"),
    "bspace.dist.calls": ("bspace", "BMetricSpace.dist", "calls"),
    "orbit.steps": ("orbit", "run_orbit", "steps"),
    "cli.bound_audit.checks": ("cli", "bound_audit", "checks"),
    "scenarios.certify_attempts": ("scenarios", "certify_scenario", "calls"),
}
