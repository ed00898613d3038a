"""A short run of the benchmark's in-process workload against the current
sources. Its jobs call the library's top-level entry points
(`mechanism_from_json`, `check_decomposition`,
`check_relaxed_decomposition`, `scan_deterministic_decomposition`)
directly, so an API change that breaks them shows up here and not only
in a timed run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_population_workload_runs_correctly():
    argv = ["--workload", "population-m4", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
