"""Short runs of three of the four benchmark workloads against the current
sources. population-m4's jobs call the library's top-level entry points
(`mechanism_from_json`, `check_decomposition`,
`check_relaxed_decomposition`, `scan_deterministic_decomposition`)
directly, so an API change that breaks them shows up here and not only
in a timed run. local-m6 runs the m=6 CLI jobs (`zoo emit`, `check
--mode axioms` and `--mode multisep`), and checks that every emitted file
parses back to the exact zoo table. verify-m5 runs the m=5 `check` jobs
in the default theorem1 mode and holds each reported SP violation to the
first one in canonical (truth, misreport) order that the benchmark's
exact reference finds. design-m3 is not run here: the benchmark's own
`bench/test_bench.py::test_smoke_run_prints_every_metric` runs the same
command line and asserts all that this test would, and more."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["population-m4", "local-m6", "verify-m5"])
def test_workload_runs_correctly(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"]
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
