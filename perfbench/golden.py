"""Record the golden digest of every pool item's output.

    python3 perfbench/golden.py

Run this only at the commit that defines the benchmark: the digests are
what later commits must reproduce. A gen-sweep item whose generation fails
at that commit is recorded as "fail".
"""

import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(workload: str, workdir: Path) -> list:
    inputs = workloads.Inputs(workload, workdir, range(workloads.POOL[workload]))
    digests, outcomes = [], Counter()
    for k in range(workloads.POOL[workload]):
        inputs.prepare(k)
        try:
            result = inputs.run(k)
        except RuntimeError as exc:
            if workload != "gen-sweep":
                raise
            digests.append("fail")
            outcomes[f"raised {exc}"] += 1
            continue
        if workload == "gen-sweep":
            if not workloads.promised(result):
                raise AssertionError(f"gen-sweep item {k} breaks what random_finite promises")
            outcomes["ok"] += 1
        else:
            outcomes[f"exit {result[0]}"] += 1
        digests.append(inputs.digest(k, result))
    print(workload, dict(outcomes))
    return digests


if __name__ == "__main__":
    scratch = HERE.parent / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for workload in workloads.POOL:
        workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=scratch))
        try:
            digests = record(workload, workdir)
        finally:
            shutil.rmtree(workdir)
        out = HERE / "golden" / f"{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"workload": workload, "digests": digests}, indent=0) + "\n")
