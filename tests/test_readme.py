"""The README's library quick start runs against the current API, and its
module map names only what the modules define and every name the package
exports."""

import importlib
import inspect
import re
from pathlib import Path

import bfixpoint

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0.81") and out[1:3] == ["True", "False"]
    assert out[3].startswith("converged ")


def module_map() -> dict:
    """Module name -> the backticked names of its row in the module map."""
    section = README.read_text().split("## Module map", 1)[1]
    rows = re.findall(r"^\| `(bfixpoint\.\w+)` \| (.*) \|$", section, re.M)
    return {module: re.findall(r"`([^`]*)`", contents) for module, contents in rows}


def test_module_map_names_exist():
    rows = module_map()
    assert len(rows) >= 7
    for module_name, names in rows.items():
        module = importlib.import_module(module_name)
        classes = [v for v in vars(module).values() if inspect.isclass(v) and v.__module__ == module_name]
        for name in names:
            if not name.isidentifier():
                continue  # a code phrase such as `bfixpoint run / verify / compare`, not a name
            assert any(hasattr(owner, name) for owner in (module, *classes)), f"{module_name} has no {name}"


def test_module_map_names_every_export():
    mapped = {name for names in module_map().values() for name in names}
    missing = [name for name in bfixpoint.__all__ if name not in mapped]
    assert not missing, f"README module map lacks {missing}"
