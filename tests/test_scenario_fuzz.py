"""Fuzzing the scenario JSON: every field path, every JSON type.

Each case takes a valid scenario and replaces one field (a key's value, a
list element, or the whole object) with a value of another JSON type, or
deletes it. The reader either returns a Scenario or raises ValueError
naming what is wrong, and the CLI answers with a documented exit code.
Grids stay bounded: no value below makes a 1-D grid larger than 17 points.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfixpoint.cli import main
from bfixpoint.scenarios import Scenario, scenario_from_obj

BASES = {
    "power": {
        "space": {"kind": "power", "dim": 1, "p": 2.0},
        "map": {"kind": "branches", "branches": [{"A": [[0.5]], "b": [0.0]}]},
        "params": {"c": 0.1, "q": 0.1, "alpha": 0.6, "beta": 0.7},
        "x0": [1.0],
        "x1": [0.5],
        "tol": 1e-9,
        "max_iter": 100,
        "seed": 3,
        "sample": {"kind": "grid", "lo": -1.0, "hi": 1.0, "step": 0.5},
    },
    "plane": {
        "space": {"kind": "power", "dim": 2, "p": 1.0},
        "map": {"kind": "branches", "branches": [{"A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.0]}]},
        "params": {"c": 0.0, "q": 0.0, "alpha": 0.9},
        "x0": [1.0, 1.0],
        "tol": 1e-9,
        "max_iter": 100,
        "sample": {"kind": "points", "pts": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]},
    },
    "matrix": {
        "space": {"kind": "matrix", "n": 3, "s": 2.0, "d": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]},
        "map": {"kind": "table", "images": {"0": [0], "1": [0], "2": [1]}},
        "params": {"c": 0.0, "q": 0.0, "alpha": 0.9},
        "x0": 2,
        "x1": 1,
        "tol": 1e-9,
        "max_iter": 100,
        "seed": 5,
        "sample": {"kind": "points", "pts": [0, 1, 2]},
    },
}

DELETE = object()  # marks a case that removes the field instead
VALUES = [
    7, 0, -3, 10**400,  # ints; the last is beyond the float range
    1e308, float("nan"), float("inf"),
    "x", [1.0], [[1.0]], {"k": 1}, None, True,
    DELETE,
]


def field_paths(obj, prefix=()):
    """Every path into obj: the root, each key of an object, each list index."""
    yield prefix
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, child in children:
        yield from field_paths(child, prefix + (key,))


def edited(base, path, value):
    obj = copy.deepcopy(BASES[base])
    if not path:
        return {} if value is DELETE else value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


CASES = [(base, path, value) for base in BASES for path in field_paths(BASES[base]) for value in VALUES]


@pytest.mark.parametrize("base", BASES)
def test_bases_are_valid(base):
    assert isinstance(scenario_from_obj(copy.deepcopy(BASES[base])), Scenario)


@pytest.mark.parametrize("base", BASES)
def test_reader_returns_scenario_or_value_error(base):
    failures = []
    for _, path, value in (case for case in CASES if case[0] == base):
        try:
            sc = scenario_from_obj(edited(base, path, value))
        except ValueError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            failures.append(f"{path} = {value!r:.30}: {type(exc).__name__}: {exc}")
            continue
        assert isinstance(sc, Scenario)
    assert not failures, "\n".join(failures)


@settings(max_examples=300)
@given(case=st.sampled_from(CASES), command=st.sampled_from(["verify", "compare"]))
def test_cli_exit_code_is_documented(case, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sc.json"
        path.write_text(json.dumps(edited(*case)))
        assert main([command, "--scenario", str(path)]) in (0, 1, 3)
