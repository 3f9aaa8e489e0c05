"""Fixed-point engine for set-valued contractions in b-metric spaces.

Builds Picard-style orbits for set-valued maps, certifies their geometric
decay and Cauchy tail bounds, checks quasi-contraction hypotheses, and
verifies computed fixed points, with brute-force oracles on finite spaces.
"""

from .bspace import (
    AxiomReport,
    AxiomViolation,
    BMetricSpace,
    Point,
    estimate_min_s,
    make_matrix_space,
    make_power_space,
    verify_axioms,
)
from .orbit import (
    CauchyCertificate,
    FixedPointCheck,
    OrbitTrace,
    cauchy_bounds,
    cauchy_series,
    chaining_bounds,
    gamma_of,
    run_orbit,
    verify_fixed_point,
)
from .quasicontraction import (
    ContractionCertificate,
    QuasiParams,
    SetValuedMap,
    certifies,
    certify,
    check_hypotheses,
    enumerate_fixed_points,
    five_term_max,
    image_of,
    make_branch_map,
    make_table_map,
    n_functional,
    verdicts,
)
from .scenarios import (
    Scenario,
    ScenarioFormatError,
    builtin,
    certify_scenario,
    instantiate,
    load,
    paper_example,
    random_finite,
    sample_points,
    save,
    scenario_digest,
)
from .setops import PointSet, SetDistance, dist_point_set, hausdorff, make_point_set

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "AxiomViolation",
    "BMetricSpace",
    "CauchyCertificate",
    "ContractionCertificate",
    "FixedPointCheck",
    "OrbitTrace",
    "Point",
    "PointSet",
    "QuasiParams",
    "Scenario",
    "ScenarioFormatError",
    "SetDistance",
    "SetValuedMap",
    "builtin",
    "cauchy_bounds",
    "cauchy_series",
    "certifies",
    "certify",
    "certify_scenario",
    "chaining_bounds",
    "check_hypotheses",
    "dist_point_set",
    "enumerate_fixed_points",
    "estimate_min_s",
    "five_term_max",
    "gamma_of",
    "hausdorff",
    "image_of",
    "instantiate",
    "load",
    "make_branch_map",
    "make_matrix_space",
    "make_point_set",
    "make_power_space",
    "make_table_map",
    "n_functional",
    "paper_example",
    "random_finite",
    "run_orbit",
    "sample_points",
    "save",
    "scenario_digest",
    "verdicts",
    "verify_axioms",
    "verify_fixed_point",
]
