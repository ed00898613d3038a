"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import exact  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sepax = pytest.importorskip("sepax")


def _mech(m, table, name="t"):
    return sepax.mechanism_from_json(exact.table_json(m, table), name=name)


@pytest.mark.parametrize("m", [3, 4])
def test_canonical_order_matches_the_library(m):
    assert [exact.order_text(o) for o in exact.orders(m)] == [o.text for o in sepax.enumerate_weak_orders(m)]
    assert [
        (exact.order_text(exact.orders(m)[ci]), exact.order_text(exact.orders(m)[fi]), kappa, upper, lower)
        for ci, fi, kappa, upper, lower in exact.separations(m)
    ] == [(s.coarse.text, s.fine.text, s.kappa, s.upper_part, s.lower_part) for s in sepax.all_separations(m)]
    assert exact.lp_size(m) == (len(sepax.generate_sp_constraints(m).constraints), len(sepax.variable_names(m)))


def test_generated_tables_at_m3():
    """SP mixtures and priority dictators pass; perturbed tables fail at the
    first violation the reference predicts; random tables agree too."""
    m, rng = 3, random.Random(3)
    for i in range(6):
        for table in (inputs.sp_mixture(m, rng), inputs.priority_dictator(m, rng)):
            report = sepax.check_decomposition(_mech(m, table))
            assert report.sp_verdict and report.agreement
            assert exact.sp_first_violation(m, table) is None
            assert not exact.unsatisfied_rows(m, table)
        table, violation = inputs.perturbed(m, rng, inputs.sp_mixture(m, rng), (i + 0.5) / 6)
        for table, violation in ((table, violation), (inputs.random_table(m, rng), None)):
            violation = violation or exact.sp_first_violation(m, table)
            lib = sepax.check_sp_bruteforce(_mech(m, table))
            if violation is None:
                assert lib is None
                continue
            assert lib is not None and lib.to_json() == {k: v for k, v in violation.items() if k != "pairs_scanned"}
            report = sepax.check_decomposition(_mech(m, table)).to_json()
            exact.check_axiom_verdicts(table, m, report["axiom_verdicts"], report["certificates"], False)
            assert exact.unsatisfied_rows(m, table)


def test_certificate_check_rejects_a_wrong_number():
    m = 3
    table = inputs.zoo_table("k_sensitive_boost", m)
    report = sepax.check_all_axioms(_mech(m, table), all_violations=True).to_json()
    cert = report["certificates"]["responsive"][0]
    exact.check_certificate(table, m, cert)
    with pytest.raises(exact.CheckFailed):
        exact.check_certificate(table, m, dict(cert, lhs="0"))


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "j"],
        ["axioms.find_violations", 1.0, 4.0, 0, "j"],
        ["verify.check_sp_bruteforce", 5.0, 9.0, 0, "j"],
        ["core.enumerate_weak_orders", 6.0, 7.0, 2, "j"],
        ["core.enumerate_weak_orders", 7.5, 8.0, 2, "j"],
    ]
    assert tracer.self_times(spans) == {
        "cli.main": 3.0,
        "axioms.find_violations": 3.0,
        "verify.check_sp_bruteforce": 2.5,
        "core.enumerate_weak_orders": 1.5,
    }
    assert sum(tracer.self_times(spans).values()) == 10.0
    assert tracer.outermost_time(spans, {"cli.main", "core.enumerate_weak_orders"}) == 10.0
    assert tracer.outermost_time(spans, {"core.enumerate_weak_orders"}) == 1.5


def test_import_report_parsing():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1200 |       1500 |   sepax.core\n"
        "import time:       300 |       2500 | sepax\n"
        "import time:        40 |         40 |     fractions\n"
    )
    assert tracer.import_self_times(text) == {"core": 0.0012}


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=cwd)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = _run("--workload", "design-m3", "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: result["metrics"][name]["unit"] for name in result["metrics"]} == {
        metric["name"]: metric["unit"] for metric in spec[key]
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "design-m3", "--seed", "1", "--seconds", "1", cwd=str(tmp_path), timeout=60)
    assert out.returncode != 0 and not out.stdout.strip()
