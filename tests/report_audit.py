"""Every claim in the sweep's reports re-checked by the benchmark's exact
arithmetic, `bench/exact.py`, which is written apart from sepax.

`audit_sweep` takes one `tests.report_sweep.Sweep` and re-checks each
report that exits 0 or 1 of these kinds, against the input files it read:

- ``check``, in every mode: the verdict against `exact.first_failing_truth`,
  each certificate with `exact.check_certificate`, each SP violation with
  `exact.check_sp_violation`, and each verdict set with
  `exact.check_axiom_verdicts`;
- ``amd``: the design breaks no row of `exact.unsatisfied_rows`, is SP, has
  the LP size of `exact.lp_size`, and has the objective value it reports;
- ``enumerate``: the orders and separations equal `exact.orders` and
  `exact.separations`, and the counts equal `weak_order_count` and
  `separation_count`;
- ``zoo emit``: the table parses with `exact.parse_table` and equals its
  rule in `tests.oracles.ZOO_RULE_ORACLES`.

A wrong claim raises `exact.CheckFailed`. Nothing here calls sepax.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb
from types import SimpleNamespace

from bench import exact
from bench.exact import require
from tests.oracles import ZOO_RULE_ORACLES, weak_order_count

# the zoo rules that are strategyproof at every size
SP_ZOO = {"uniform_lottery", "top_class_uniform", "min_top_dictator", "rank_score"}

# the statement each equivalence mode of `check` reports
STATEMENTS = {
    "theorem1": "axioms_vs_sp",
    "remark2": "relaxed_axioms_vs_sp",
    "corollary1": "monotonic_vs_sp_deterministic",
}


def separation_count(m: int) -> int:
    """Separations on m alternatives, by the top class T of the coarse
    order: T splits in 2^|T| - 2 ways above any order of the rest, or stays
    whole above a separation of the rest, so s(n) = sum over k of
    C(n, k) ((2^k - 2) a(n - k) + s(n - k)), with a the weak-order count."""
    s = [0]
    for n in range(1, m + 1):
        s.append(sum(
            comb(n, k) * ((2**k - 2) * weak_order_count(n - k) + s[n - k])
            for k in range(1, n + 1)
        ))
    return s[m]


def _option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _violation(table, m: int, violation: dict, tally: Counter, *, first: bool) -> None:
    """The violation holds; with ``first``, it is also the first profitable
    misreport in canonical (truth, misreport) order."""
    exact.check_sp_violation(table, m, violation)
    if first:
        expected = exact.sp_first_violation(m, table)
        del expected["pairs_scanned"]
        require(violation == expected, "not the first violation in canonical order")
    tally["sp_violations"] += 1


def _verdicts(table, m: int, verdicts: dict, certificates: dict, sp: bool, tally: Counter) -> None:
    exact.check_axiom_verdicts(table, m, verdicts, certificates, sp)
    tally["verdict_sets"] += 1
    tally["certificates"] += sum(
        len(certs) if isinstance(certs, list) else 1 for certs in certificates.values()
    )


def _check(argv: list[str], code: int, result: dict, files: dict, tally: Counter) -> None:
    body = result["check"]
    mode = _option(argv, "--mode", "theorem1")
    m, table = exact.parse_table(json.loads(files[_option(argv, "--mechanism")]))
    sp = exact.first_failing_truth(m, table) is None
    require(body["m"] == m, "wrong size")
    if mode in STATEMENTS:
        require((code, body["statement"], body["agreement"]) == (0, STATEMENTS[mode], True),
                "wrong exit code, statement or agreement")
        require(body["sp_verdict"] == body["decomposition_verdict"] == sp, "wrong verdict")
        if mode == "corollary1":
            require(all(p in (0, 1) for row in table for p in row), "table is not deterministic")
            require(body["axiom_verdicts"]["monotonic"] == sp, "monotonicity disagrees with SP")
        if sp:
            require(body["sp_violation"] is None, "violation on an SP table")
        else:
            _violation(table, m, body["sp_violation"], tally, first=True)
        _verdicts(table, m, body["axiom_verdicts"], body["certificates"], sp, tally)
    elif mode == "axioms":
        require(code == (0 if sp else 1), "wrong exit code")
        _verdicts(table, m, body["verdicts"], body["certificates"], sp, tally)
    else:  # sp and multisep: one violation or none
        require((code, body["pass"]) == ((0, True) if sp else (1, False)), "wrong exit code or pass")
        violation = body["violation"]
        if sp:
            require(violation is None, "violation on an SP table")
            return
        _violation(table, m, violation, tally, first=mode == "sp")
        if mode == "multisep":
            truth, misreport = (exact.parse_order(violation[k]) for k in ("truth", "misreport"))
            require(exact.refines(truth, misreport) or exact.refines(misreport, truth),
                    "multisep violation is not a refinement pair")


def _amd(argv: list[str], code: int, result: dict, files: dict, tally: Counter) -> None:
    body = result["amd"]
    m = int(_option(argv, "--m"))
    objective = json.loads(files[_option(argv, "--objective")])
    solution, summary = body["solution"], body["summary"]
    require((code, solution["status"]) == (0, "optimal"), "wrong exit code or status")
    rows, cols = exact.lp_size(m)
    require((summary["variables"], summary["normalizations"] + summary["invariance_equalities"]
             + summary["responsiveness_inequalities"]) == (cols, rows), "wrong LP size")
    table_m, table = exact.parse_table(body["mechanism_table"])
    require(table_m == m, "wrong size")
    require(not exact.unsatisfied_rows(m, table), "design breaks an SP row")
    require(exact.first_failing_truth(m, table) is None, "design is not SP")
    require(body["sp_check"] == {"pass": True, "violation": None}, "wrong SP check")
    require(exact.objective_value(m, table, objective) == Fraction(solution["objective_value"]),
            "wrong objective value")


def _enumerate(argv: list[str], code: int, result: dict, files: dict, tally: Counter) -> None:
    body = result["enumerate"]
    m, what = int(_option(argv, "--m")), _option(argv, "--what")
    require((code, body["m"]) == (0, m), "wrong exit code or size")
    if what == "orders":
        require(body["orders"] == [exact.order_text(o) for o in exact.orders(m)], "wrong orders")
    elif what == "separations":
        ords = exact.orders(m)
        expected = [
            {"coarse": exact.order_text(ords[ci]), "fine": exact.order_text(ords[fi]),
             "kappa": kappa, "M1": list(upper), "M2": list(lower)}
            for ci, fi, kappa, upper, lower in exact.separations(m)
        ]
        require(body["separations"] == expected, "wrong separations")
    else:
        orders, separations = weak_order_count(m), separation_count(m)
        if m <= 5:
            require((orders, separations) == (len(exact.orders(m)), len(exact.separations(m))),
                    "closed forms disagree with the enumeration")
        require(body == {"m": m, "orders": orders, "ordered_pairs": orders * (orders - 1),
                         "separations_total": separations,
                         "separations_max_per_order": 2**m - 2}, "wrong counts")


def _zoo_emit(argv: list[str], code: int, result: dict, files: dict, tally: Counter) -> None:
    body = result["zoo"]
    name, m = _option(argv, "--name"), int(_option(argv, "--m"))
    ords = exact.orders(m)
    table_m, table = exact.parse_table(body["mechanism_table"])
    require((code, body["name"], body["m"], body["entries"], table_m) == (0, name, m, len(ords), m),
            "wrong exit code, name or size")
    rule = ZOO_RULE_ORACLES[name]
    require(table == [rule(m, SimpleNamespace(classes=o, num_classes=len(o))) for o in ords],
            "table differs from its rule")
    if name in SP_ZOO:
        require(exact.first_failing_truth(m, table) is None, "SP rule's table is not SP")


AUDITS = {"check": _check, "amd": _amd, "enumerate": _enumerate, "zoo emit": _zoo_emit}


def _kind(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] == "zoo" else argv[0]


def audit_report(argv: list[str], code: int, stdout: str, files: dict[str, bytes],
                 tally: Counter) -> None:
    """Re-check the report ``stdout`` of the command line ``argv``, which
    exited with ``code`` and read its input files from ``files``, and count
    it and its claims in ``tally``."""
    kind = _kind(argv)
    AUDITS[kind](argv, code, json.loads(stdout)["result"], files, tally)
    tally[kind] += 1


def audit_sweep(sweep) -> Counter:
    """Re-check every report of one sweep run that exits 0 or 1 and is of
    an audited kind. Returns how many reports of each kind, certificates,
    SP violations and verdict sets were checked; raises `exact.CheckFailed`
    naming the first command line whose report is wrong."""
    tally: Counter = Counter()
    for key, stdout in sweep.stdouts.items():
        argv, code = key.split(" "), sweep.entries[key]["exit"]
        if code in (0, 1) and _kind(argv) in AUDITS:
            try:
                audit_report(argv, code, stdout, sweep.files, tally)
            except exact.CheckFailed as exc:
                raise exact.CheckFailed(f"{key}: {exc}") from None
    return tally
