"""Differential test for the distance table bfixpoint verify shares.

verify certifies its sample, and certify writes each pair's distance into
the table verify_axioms reads, by the pair's point indices, instead of
verify_axioms evaluating it again. Here the table certify fills must equal
the one verify_axioms builds on its own, bit for bit, and the command's
exit code and output must equal those of the public certify and
verify_axioms(..., tol=VERIFY_TOL) composed. The cases cover power spaces
with screened blocks (images of three or more elements), grids,
near-duplicate points (identity violations) and a matrix space with an
understated s and a ragged table map (triangle violations). Every drawn
scenario is checked with certify's pair blocks of one pair, of a few
pairs and of the default size, so that the writes cross block edges.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfixpoint import cli, quasicontraction
from bfixpoint.bspace import VERIFY_TOL, _distance_table, make_matrix_space, make_power_space, verify_axioms
from bfixpoint.jsonutil import dumps_canonical
from bfixpoint.quasicontraction import QuasiParams, certify, check_hypotheses, make_branch_map, make_table_map
from bfixpoint.scenarios import GridSample, PointsSample, Scenario, sample_points

# one pair per block; two to sixteen pairs (w**2 of 4 to 25 entries each); the default
BLOCK_DISTANCES = (1, 1 << 6, quasicontraction._BLOCK_DISTANCES)

SETTINGS = settings(max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

COEFFS = st.floats(-0.6, 0.6, allow_nan=False)
PARAMS = st.builds(
    QuasiParams, c=st.sampled_from([0.0, 0.5, 1.0]), q=st.sampled_from([0.0, 0.3]),
    alpha=st.sampled_from([0.5, 0.95]), beta=st.none(),
)


@st.composite
def power_scenarios(draw):
    dim = draw(st.integers(1, 3))
    space = make_power_space(dim, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])))
    branches = [
        ([[draw(COEFFS) for _ in range(dim)] for _ in range(dim)], [draw(COEFFS) for _ in range(dim)])
        for _ in range(draw(st.integers(1, 4)))
    ]
    if dim == 1 and draw(st.booleans()):
        lo = draw(st.floats(-3.0, 0.0))
        sample = GridSample(lo, lo + draw(st.floats(0.5, 4.0)), draw(st.sampled_from([0.1, 0.25, 0.3])))
    else:
        point = st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * dim)
        pts = draw(st.lists(point, min_size=2, max_size=16, unique=True))
        # a point beside the first, within VERIFY_TOL of the largest distance
        # once powered (an identity violation), or within COORD_TOL of it
        delta = draw(st.sampled_from([None, 1e-6, 1e-9, 1e-11, 1e-13]))
        if delta is not None:
            pts.insert(draw(st.integers(1, len(pts))), (pts[0][0] + delta, *pts[0][1:]))
        sample = PointsSample(tuple(pts))
    return Scenario(
        space=space, map=make_branch_map(space, branches), params=draw(PARAMS),
        x0=(0.0,) * dim, x1=None, tol=1e-9, max_iter=100, seed=None, sample=sample,
    )


@st.composite
def matrix_scenarios(draw):
    n = draw(st.integers(3, 8))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = draw(st.integers(1, 30))
    # s = 1 or 1.5 understates most of these tables, so the triangle is scanned and fails
    space = make_matrix_space(n, d, draw(st.sampled_from([1.0, 1.5])))
    images = {u: draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)) for u in range(n)}
    pts = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    return Scenario(
        space=space, map=make_table_map(space, images), params=draw(PARAMS),
        x0=0, x1=None, tol=1e-9, max_iter=100, seed=None, sample=PointsSample(tuple(pts)),
    )


def composed(sc):
    """verify's exit code and output from the public certify and
    verify_axioms, each evaluating its own distances."""
    pts = sample_points(sc)
    try:
        cert = certify(sc.space, sc.map, pts, sc.params.c, sc.params.q)
        hyp = check_hypotheses(cert, sc.params.alpha)
        axioms = verify_axioms(sc.space, pts, tol=VERIFY_TOL)
    except ValueError as exc:
        return 3, "", f"error: {exc}\n"
    out = dumps_canonical({"axioms": cli._axiom_obj(axioms), "certificate": cli._cert_obj(sc, cert, hyp)}) + "\n"
    return 0 if axioms.passed and hyp["thm33"]["applicable"] else 1, out, ""


def assert_verify_shares_the_table(sc, capsys):
    want = composed(sc)
    for block in BLOCK_DISTANCES:
        shared = []

        def recorded(space, sample, tol=0.0, **private):
            shared.append(private["_table"].copy())
            return verify_axioms(space, sample, tol, **private)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "load", lambda path: sc)
            m.setattr(cli, "verify_axioms", recorded)
            m.setattr(quasicontraction, "_BLOCK_DISTANCES", block)
            code = cli.main(["verify", "--scenario", "scenario.json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want
        if code != 3:
            assert shared[0].tobytes() == _distance_table(sc.space, sample_points(sc)).tobytes()


@SETTINGS
@given(sc=power_scenarios())
def test_power_spaces(sc, capsys):
    assert_verify_shares_the_table(sc, capsys)


@SETTINGS
@given(sc=matrix_scenarios())
def test_matrix_spaces(sc, capsys):
    assert_verify_shares_the_table(sc, capsys)
