"""Every report of the fixed CLI sweep in `tests.report_sweep` matches its
committed digest: exit code, stdout and stderr, byte for byte. A change
that moves report bytes on purpose regenerates the digests with
``python -m tests.report_sweep --write``. The same sweep run feeds
`tests.report_audit`, which re-checks every claim in the reports with the
benchmark's exact arithmetic, and each kind of wrong claim is caught."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from bench.exact import CheckFailed
from tests.report_audit import audit_report, audit_sweep
from tests.report_sweep import load_digests, moved_entries, run_sweep


@pytest.fixture(scope="module")
def sweep():
    return run_sweep()


def test_reports_match_committed_digests(sweep):
    assert moved_entries(load_digests(), sweep.entries) == []


def test_every_report_claim_holds_in_exact_arithmetic(sweep):
    # every exit-0/1 report of the audited kinds, and the claims in them
    assert audit_sweep(sweep) == Counter({
        "check": 441, "amd": 10, "enumerate": 12, "zoo emit": 5,
        "certificates": 5251, "sp_violations": 164, "verdict_sets": 277,
    })


def _move_lhs(result):
    cert = result["check"]["certificates"]["responsive"][0]
    cert["lhs"] = str(Fraction(cert["lhs"]) + Fraction(1, 7))


def _swap_misreport(result):
    violation = result["check"]["violation"]
    violation["truth"], violation["misreport"] = violation["misreport"], violation["truth"]


def _flip_verdict(result):
    verdicts = result["check"]["axiom_verdicts"]
    verdicts["upper_invariant"] = not verdicts["upper_invariant"]


def _swap_first_two(lottery):
    lottery[0], lottery[1] = lottery[1], lottery[0]


def _change_design_entry(result):
    _swap_first_two(result["amd"]["mechanism_table"]["entries"][0]["lottery"])


def _swap_separation_parts(result):
    separation = result["enumerate"]["separations"][0]
    separation["M1"], separation["M2"] = separation["M2"], separation["M1"]


def _change_zoo_entry(result):
    _swap_first_two(result["zoo"]["mechanism_table"]["entries"][0]["lottery"])


MUTANTS = {
    "moved lhs": ("check --mechanism k_sensitive_boost-m3.json --mode axioms", _move_lhs),
    "swapped misreport": ("check --mechanism k_sensitive_boost-m3.json --mode sp", _swap_misreport),
    "flipped verdict": ("check --mechanism k_sensitive_boost-m4.json --mode theorem1", _flip_verdict),
    "changed design entry": ("amd --m 3 --objective objective-welfare-m3.json", _change_design_entry),
    "swapped separation parts": ("enumerate --m 3 --what separations", _swap_separation_parts),
    "changed zoo entry": ("zoo emit --name rank_score --m 3", _change_zoo_entry),
}


@pytest.mark.parametrize("key, mutate", MUTANTS.values(), ids=list(MUTANTS))
def test_audit_catches_a_wrong_claim(sweep, key, mutate):
    argv, code = key.split(" "), sweep.entries[key]["exit"]
    audit_report(argv, code, sweep.stdouts[key], sweep.files, Counter())
    report = json.loads(sweep.stdouts[key])
    mutate(report["result"])
    with pytest.raises(CheckFailed):
        audit_report(argv, code, json.dumps(report), sweep.files, Counter())
