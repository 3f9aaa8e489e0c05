import json
import re
from dataclasses import replace

import pytest

from bfixpoint.bspace import verify_axioms
from bfixpoint.orbit import beta_limit, gamma_of
from bfixpoint.quasicontraction import QuasiParams, enumerate_fixed_points
from bfixpoint.scenarios import (
    MAX_GRID_POINTS,
    GridSample,
    PointsSample,
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
    scenario_to_obj,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def valid_matrix_scenario():
    return {
        "space": {"kind": "matrix", "n": 3, "s": 2.0, "d": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]},
        "map": {"kind": "table", "images": {"0": [0], "1": [0], "2": [1]}},
        "params": {"c": 0.0, "q": 0.0, "alpha": 0.9},
        "x0": 2,
        "tol": 1e-9,
        "max_iter": 100,
        "sample": {"kind": "points", "pts": [0, 1, 2]},
    }


def paper_scenario_obj():
    return scenario_to_obj(paper_example())


class TestInvariants:
    """Scenario construction is the one check of tol, max_iter and beta."""

    def test_tol_and_max_iter(self):
        sc = paper_example()
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ScenarioFormatError, match="tol must be positive"):
                replace(sc, tol=bad)
        with pytest.raises(ScenarioFormatError, match="max_iter must be >= 1"):
            replace(sc, max_iter=0)

    def test_beta_interval_uses_the_space(self):
        # s = 2 and q = 1 put the upper end at 1/(q*s) = 0.5, not 1
        sc = replace(paper_example(), params=QuasiParams(c=0.5, q=1.0, alpha=0.3))
        assert beta_limit(1.0, sc.space.s) == 0.5
        assert replace(sc, params=replace(sc.params, beta=0.45)).params.beta == 0.45
        for beta in (0.3, 0.5, 0.6):
            with pytest.raises(ScenarioFormatError, match="params.beta"):
                replace(sc, params=replace(sc.params, beta=beta))

    def test_beta_limit_is_the_orbit_limit(self):
        for q, s in ((0.0, 2.0), (0.3, 1.0), (1.0, 2.0), (0.8, 4.0)):
            hi = beta_limit(q, s)
            assert hi == (1.0 if q == 0.0 else min(1.0, 1.0 / (q * s)))
            gamma_of(0.999999 * hi, q, s)
            with pytest.raises(ValueError, match="beta"):
                gamma_of(hi, q, s)


class TestPaperExample:
    def test_fields(self):
        sc = paper_example()
        assert sc.space.p == 2.0
        assert sc.params.alpha == 0.9
        assert sc.x0 == (1.0,)
        assert isinstance(sc.sample, GridSample)

    def test_grid_has_21_points(self):
        sc = paper_example()
        pts = sample_points(sc)
        assert len(pts) == 21
        assert pts[0] == (-1.0,)
        assert pts[-1] == (1.0,)

    def test_certificate(self):
        cert = certify_scenario(paper_example())
        assert cert.alpha_min == pytest.approx(0.81, abs=1e-9)
        assert cert.verdicts["thm33"] and not cert.verdicts["thm41"]

    def test_round_trip(self, tmp_path):
        sc = paper_example()
        path = tmp_path / "sc.json"
        save(sc, path)
        assert load(path) == sc

    def test_digest_stable(self):
        assert scenario_digest(paper_example()) == scenario_digest(paper_example())

    def test_construction_checks_points(self):
        sc = paper_example()
        with pytest.raises(ValueError, match="non-finite"):
            replace(sc, x0=(float("nan"),))
        with pytest.raises(ValueError, match="length 1"):
            replace(sc, x1=(0.5, 0.5))
        with pytest.raises(ValueError, match="length 1"):
            replace(sc, sample=PointsSample(pts=((0.5,), (0.25, 0.0))))

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioFormatError, match="unknown builtin"):
            builtin("no-such-scenario")


class TestRandomFinite:
    def test_same_seed_identical(self):
        a = random_finite(42, 5, 2.0, 0.5)
        b = random_finite(42, 5, 2.0, 0.5)
        assert a[0] == b[0]
        assert a[1].alpha_min == b[1].alpha_min

    def test_different_seed_differs(self):
        a, _ = random_finite(1, 8, 2.0, 0.6)
        b, _ = random_finite(2, 8, 2.0, 0.6)
        assert a != b

    def test_accepted_certificate_holds_by_construction(self):
        sc, cert = random_finite(42, 5, 2.0, 0.5)
        assert cert.alpha_min <= 0.5
        assert cert.verdicts["thm33"]
        assert cert.coverage == "exhaustive"
        assert sc.params.alpha == cert.alpha_min

    def test_space_passes_axioms_exhaustively(self):
        for seed in (3, 14, 15):
            sc, _ = random_finite(seed, 7, 2.0, 0.6)
            space, _ = instantiate(sc)
            assert verify_axioms(space, space.points(), tol=1e-12).passed

    def test_fixed_point_exists_by_enumeration(self):
        sc, _ = random_finite(42, 5, 2.0, 0.5)
        space, tmap = instantiate(sc)
        assert enumerate_fixed_points(space, tmap)

    def test_round_trip(self, tmp_path):
        sc, _ = random_finite(9, 6, 3.0, 0.6)
        path = tmp_path / "gen.json"
        save(sc, path)
        assert load(path) == sc

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_finite(1, 2, 2.0, 0.5)
        with pytest.raises(ValueError):
            random_finite(1, 5, 0.5, 0.5)
        with pytest.raises(ValueError):
            random_finite(1, 5, 2.0, 1.5)


class TestLoadValidation:
    def test_missing_space(self, tmp_path):
        obj = valid_matrix_scenario()
        del obj["space"]
        with pytest.raises(ScenarioFormatError, match="missing field: space"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_asymmetric_matrix_propagates(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["space"]["d"][0][1] = 2.0
        with pytest.raises(ValueError, match="asymmetry"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_param_range_checked(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["params"]["c"] = 1.5
        with pytest.raises(ScenarioFormatError, match="params"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_bad_tol(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["tol"] = 0.0
        with pytest.raises(ScenarioFormatError, match="tol"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_unknown_kind(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["space"] = {"kind": "hyperbolic"}
        with pytest.raises(ScenarioFormatError, match="space.kind"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_x0_out_of_range(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["x0"] = 17
        with pytest.raises(ValueError, match="out of range"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_digest_pinned(self, tmp_path):
        # read off the built space and map, the digest matches the one
        # recorded when scenarios kept their JSON form
        sc = load(write_json(tmp_path / "ok.json", valid_matrix_scenario()))
        assert scenario_digest(sc) == "3a84db6fda7fe32e999d0874f0d5ff57dddde91a3b9141c6923962275bd702fb"
        assert scenario_digest(paper_example()) == "3789f4afa80a0bd93b3b4fbbb59bd20a6b5f60993b0f718bcbd7b0e760a917c8"

    def test_huge_exponent_is_value_error(self, tmp_path):
        # s = 2**(p-1) overflows; this used to escape load as OverflowError
        obj = dict(paper_scenario_obj(), space={"kind": "power", "dim": 1, "p": 1e308})
        with pytest.raises(ValueError, match="exponent p"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_grid_with_infinitely_many_points_is_value_error(self, tmp_path):
        # (hi - lo)/step is inf; round() used to raise OverflowError
        obj = dict(paper_scenario_obj(), sample={"kind": "grid", "lo": -1.0, "hi": 1e308, "step": 0.1})
        with pytest.raises(ValueError, match="too many points"):
            load(write_json(tmp_path / "bad.json", obj))

    @pytest.mark.parametrize(
        "lo, hi, step, count",
        [(-1.0, 1.0, 0.3, 7), (0.0, 1.0, 0.6, 2), (-1.0, 1.0, 0.1, 21), (0.1, 0.7, 0.2, 4), (-1.0, 1.0, 0.01, 201)],
    )
    def test_grid_stops_at_hi(self, tmp_path, lo, hi, step, count):
        # whole steps up to hi, and hi itself where the division rounds
        # just below a whole number (2 / 0.1 = 19.999999999999996)
        grid = {"kind": "grid", "lo": lo, "hi": hi, "step": step}
        pts = sample_points(load(write_json(tmp_path / "g.json", dict(paper_scenario_obj(), sample=grid))))
        assert len(pts) == count
        assert pts[-1][0] <= hi + 1e-12 and pts[-1][0] + step > hi

    def test_grid_is_counted_before_it_is_built(self, tmp_path):
        # hi - lo = (MAX_GRID_POINTS - 1) * step gives exactly MAX_GRID_POINTS points
        grid = {"kind": "grid", "lo": 0.0, "hi": MAX_GRID_POINTS - 1.0, "step": 1.0}
        sc = load(write_json(tmp_path / "cap.json", dict(paper_scenario_obj(), sample=grid)))
        assert len(sample_points(sc)) == MAX_GRID_POINTS
        obj = dict(paper_scenario_obj(), sample=dict(grid, hi=float(MAX_GRID_POINTS)))
        with pytest.raises(ScenarioFormatError, match="too many points"):
            load(write_json(tmp_path / "bad.json", obj))
        # the cap counts as the grid does: a partial last step adds no point
        part = dict(paper_scenario_obj(), sample=dict(grid, hi=MAX_GRID_POINTS - 0.5))
        sc = load(write_json(tmp_path / "part.json", part))
        assert len(sample_points(sc)) == MAX_GRID_POINTS

    def test_huge_integer_literal_is_format_error(self, tmp_path):
        obj = dict(paper_scenario_obj(), tol=10**400)
        with pytest.raises(ScenarioFormatError, match="expected a number at tol"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_wrong_shape_names_the_field(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["space"]["d"][1] = 1
        with pytest.raises(ScenarioFormatError, match=r"expected a list at space.d\[1\], got 1"):
            load(write_json(tmp_path / "bad.json", obj))

    @pytest.mark.parametrize("alias", ["00", "+0", " 0"])
    def test_two_keys_naming_one_point(self, tmp_path, alias):
        # int() reads each alias as point 0; the later image used to win silently
        obj = valid_matrix_scenario()
        obj["map"]["images"][alias] = [2]
        with pytest.raises(ScenarioFormatError, match=f"map.images keys '0' and '{re.escape(alias)}' both name point 0"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_one_non_canonical_key_is_accepted(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["map"]["images"]["02"] = obj["map"]["images"].pop("2")
        sc = load(write_json(tmp_path / "ok.json", obj))
        assert sc.map.table[2].elements == (1,)

    def test_infinite_s_is_value_error(self, tmp_path):
        obj = valid_matrix_scenario()
        obj["space"]["s"] = float("inf")  # written as Infinity
        with pytest.raises(ValueError, match="relaxation coefficient s must be finite and >= 1, got inf"):
            load(write_json(tmp_path / "bad.json", obj))

    def test_valid_scenario_loads(self, tmp_path):
        sc = load(write_json(tmp_path / "ok.json", valid_matrix_scenario()))
        assert isinstance(sc, Scenario)
        assert sc.x0 == 2
        assert scenario_to_obj(sc)["x0"] == 2
