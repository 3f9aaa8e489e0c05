"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("0.81") and out[1:3] == ["True", "False"]
    assert out[3].startswith("converged ")
