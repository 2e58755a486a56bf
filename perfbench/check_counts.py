"""The benchmark's own test: traced counts repeat exactly between runs.

    python3 perfbench/check_counts.py            # or
    python -m pytest perfbench/check_counts.py -q

Runs ``fit_suite`` and ``stream_drift`` traced twice with the same seed
and asserts that the work counts below are identical, so later changes
can cite them as counts.  ``prefix_refits`` is compared, not required to
be zero: under drift the acceleration heap reorders and cells inside the
old prefix get their first fit.  Each workload takes under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
EXACT = (
    "exec.tasks.calls",
    "core.tdaub.cells",
    "core.tdaub.fits",
    "ml.tree.fit_calls",
    "ml.tree.nodes",
    "ml.tree.predict_rows",
    "core.tdaub.warm_hits",
    "core.tdaub.prefix_refits",
    "stream.reranks",
)


def traced_counts(workload: str) -> dict[str, float]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, completed.stdout[-2000:]
    return {name: result["metrics"][name]["value"] for name in EXACT}


def check(workload: str) -> dict[str, float]:
    first, second = traced_counts(workload), traced_counts(workload)
    assert first == second, f"{workload} counts moved between runs: {first} != {second}"
    return first


def test_fit_suite_counts_repeat():
    counts = check("fit_suite")
    assert counts["exec.tasks.calls"] > 0 and counts["ml.tree.fit_calls"] > 0
    assert counts["core.tdaub.fits"] == counts["exec.tasks.calls"]


def test_stream_drift_counts_repeat():
    counts = check("stream_drift")
    assert counts["stream.reranks"] > 0 and counts["core.tdaub.warm_hits"] > 0
    assert counts["ml.tree.fit_calls"] == 0  # no tree runs in the streaming path


if __name__ == "__main__":
    for name in ("fit_suite", "stream_drift"):
        print(name, json.dumps(check(name)))
