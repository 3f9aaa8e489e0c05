import json
from dataclasses import replace

import pytest

from bfixpoint.bspace import verify_axioms
from bfixpoint.quasicontraction import enumerate_fixed_points
from bfixpoint.scenarios import (
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
            maxd = max(space.dist(a, b) for a in space.points() for b in space.points())
            assert verify_axioms(space, space.points(), tol=1e-12 * maxd).passed

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

    def test_valid_scenario_loads(self, tmp_path):
        sc = load(write_json(tmp_path / "ok.json", valid_matrix_scenario()))
        assert isinstance(sc, Scenario)
        assert sc.x0 == 2
        assert scenario_to_obj(sc)["x0"] == 2
