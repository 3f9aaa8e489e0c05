"""The record contract: a class that checks or builds something when it is
constructed is a dataclass (BMetricSpace, SetValuedMap, Scenario); every
other record is a typing.NamedTuple with fixed field names, order and
defaults, built by position or by keyword."""

import dataclasses

import pytest

import bfixpoint as bf
from bfixpoint.scenarios import GridSample, PointsSample

RECORDS = {
    bf.AxiomViolation: (("axiom", "witness", "lhs", "rhs"), {}),
    bf.AxiomReport: (("passed", "violations"), {"violations": ()}),
    bf.PointSet: (("elements",), {}),
    bf.ContractionCertificate: (
        ("alpha_min", "alpha41_min", "worst_pair", "worst_pair41", "s", "c", "q", "coverage", "n_pairs", "assumptions"),
        {},
    ),
    bf.OrbitTrace: (
        ("points", "steps", "beta", "gamma", "status", "fixed_point", "residual", "violation_step"),
        {"violation_step": None},
    ),
    bf.CauchyCertificate: (("gamma", "s", "series_sum", "first_step", "terms_used"), {}),
    GridSample: (("lo", "hi", "step"), {}),
    PointsSample: (("pts",), {}),
    bf.QuasiParams: (("c", "q", "alpha", "beta"), {"beta": None}),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_is_a_named_tuple(record):
    fields, defaults = RECORDS[record]
    assert issubclass(record, tuple) and not dataclasses.is_dataclass(record)
    assert record._fields == fields
    assert record._field_defaults == defaults
    value = record(**{f: i for i, f in enumerate(fields) if f not in defaults})
    assert value == record(*range(len(fields) - len(defaults)), *defaults.values())
    assert value._asdict() == {f: defaults.get(f, i) for i, f in enumerate(fields)}


def test_only_classes_that_check_or_build_are_dataclasses():
    classes = [v for v in vars(bf).values() if isinstance(v, type) and v.__module__.startswith("bfixpoint")]
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == {"BMetricSpace", "SetValuedMap", "Scenario"}


def test_certificate_keeps_its_verdicts():
    cert = bf.certify_scenario(bf.paper_example())
    assert cert.verdicts == bf.verdicts(cert, cert.alpha_min)
    assert cert._replace(alpha_min=0.5).verdicts == bf.verdicts(cert, 0.5)
