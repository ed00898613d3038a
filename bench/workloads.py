"""The benchmark's workloads: seeded inputs, the jobs of one pass, and the
exact check of every job's output.

A pass is the workload's fixed list of jobs. Its composition (kinds and
counts of tables, commands and objectives) is the same for every seed; the
seed only changes the tables' contents. A run repeats the same pass, so
its job mix, and every count derived from it, is identical from pass to
pass.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact
import inputs
from exact import require


@dataclass
class Job:
    key: str
    argv: list[str] | None = None  # CLI arguments after ``sepax``
    call: dict | None = None  # in-process battery call
    check: object = None  # check(report, exit_code) -> counts


@dataclass
class Pass:
    m: int
    jobs: list[Job]
    battery: bool = False
    sp_tables: int = 0
    tables: int = 0
    depths: list[float] = field(default_factory=list)
    # counts paid once per process, for a pass that runs in one process
    process_counts: dict = field(default_factory=dict)


def _pairs(m: int) -> int:
    n = len(exact.orders(m))
    return n * (n - 1)


def _write_table(workdir: str, name: str, m: int, table) -> int:
    payload = json.dumps(exact.table_json(m, table))
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(payload)
    return len(payload)


class _Tables:
    """The workload's tables, written to the work directory, with what the
    exact reference expects of each."""

    def __init__(self, m: int, workdir: str) -> None:
        self.m, self.workdir = m, workdir
        self.table: dict[str, list] = {}
        self.first_violation: dict[str, dict | None] = {}
        self.size: dict[str, int] = {}
        self.depths: list[float] = []

    def add(self, name: str, table, violation=None, *, sp=False, write=True) -> str:
        """Register a table; ``sp`` marks one that is SP by construction."""
        if violation is None:
            violation = exact.sp_first_violation(self.m, table)
        if sp and violation is not None:
            raise RuntimeError(f"{name} is SP by construction but the reference finds a violation")
        self.table[name] = table
        self.first_violation[name] = violation
        if write:
            self.size[name] = _write_table(self.workdir, name, self.m, table)
        if violation is not None:
            self.depths.append(violation["pairs_scanned"] / _pairs(self.m))
        return name

    def sp(self, name: str) -> bool:
        return self.first_violation[name] is None

    def properties(self) -> dict:
        """The input properties a pass records."""
        return {"tables": len(self.table), "sp_tables": sum(map(self.sp, self.table)), "depths": self.depths}


def _check_violation(tables: _Tables, name: str, reported) -> int:
    """The reported first profitable misreport equals the reference one.
    Returns the ordered pairs a pairwise scan visits."""
    expected = tables.first_violation[name]
    if expected is None:
        require(reported is None, f"{name}: SP by construction but a violation was reported")
        return _pairs(tables.m)
    require(reported is not None, f"{name}: violation missed")
    exact.check_sp_violation(tables.table[name], tables.m, reported)
    require(reported == {k: v for k, v in expected.items() if k != "pairs_scanned"},
            f"{name}: not the first violation in canonical order")
    return expected["pairs_scanned"]


def _check_equivalence(tables: _Tables, name: str, report: dict, statement: str) -> dict:
    m = tables.m
    sp = tables.sp(name)
    require(report["statement"] == statement and report["m"] == m, f"{name}: wrong statement or size")
    require(report["agreement"] is True, f"{name}: the two routes disagree")
    require(report["sp_verdict"] == sp and report["decomposition_verdict"] == sp, f"{name}: wrong verdict")
    pairs = _check_violation(tables, name, report["sp_violation"])
    seps = exact.check_axiom_verdicts(tables.table[name], m, report["axiom_verdicts"], report["certificates"], sp)
    return {"pairs_scanned": pairs, "seps_scanned": seps}


def _cli_check(tables: _Tables, name: str, mode: str):
    m = tables.m

    def check(report, code):
        require(report is not None, f"{name}: no report")
        body = report["result"]["check"]
        sp = tables.sp(name)
        counts = {"orders": len(exact.orders(m)), "load_bytes": tables.size[name],
                  "workers": report["workers"]}
        if mode == "theorem1":
            require(code == 0, f"{name}: exit {code}")
            counts.update(_check_equivalence(tables, name, body, "axioms_vs_sp"))
            counts["separations"] = len(exact.separations(m))
        elif mode == "axioms":
            require(code == (0 if sp else 1), f"{name}: exit {code}")
            require(body["m"] == m, f"{name}: wrong size")
            counts["seps_scanned"] = exact.check_axiom_verdicts(
                tables.table[name], m, body["verdicts"], body["certificates"], sp)
            counts["separations"] = len(exact.separations(m))
        else:  # multisep: local dominance on refinement pairs, either way
            require(code == (0 if sp else 1) and body["pass"] == sp, f"{name}: exit {code}, pass {body['pass']}")
            violation = body["violation"]
            if not sp:
                exact.check_sp_violation(tables.table[name], m, violation)
                truth, misreport = exact.parse_order(violation["truth"]), exact.parse_order(violation["misreport"])
                require(exact.refines(truth, misreport) or exact.refines(misreport, truth),
                        f"{name}: multisep violation is not a refinement pair")
        return counts

    return check


def _zoo_emit(tables: _Tables, name: str, path: str):
    m = tables.m

    def check(report, code):
        require(code == 0 and report is not None, f"zoo emit {name}: exit {code}")
        body = report["result"]["zoo"]
        require((body["name"], body["m"], body["entries"], body["mechanism_file"]) ==
                (name, m, len(exact.orders(m)), path), f"zoo emit {name}: wrong report")
        with open(os.path.join(tables.workdir, path), encoding="utf-8") as fh:
            text = fh.read()
        # the emitted file round-trips: it parses back to the exact zoo table
        require(exact.parse_table(json.loads(text)) == (m, tables.table[path]), f"{path} does not round-trip")
        tables.size[path] = len(text)
        return {"orders": len(exact.orders(m)), "workers": report["workers"], "files": {path: text}}

    return check


def _amd(m: int, name: str, objective: dict, floor: Fraction):
    rows, cols = exact.lp_size(m)

    def check(report, code):
        require(code == 0 and report is not None, f"amd {name}: exit {code}")
        body = report["result"]["amd"]
        solution = body["solution"]
        require(solution["status"] == "optimal" and body["sp_check"]["pass"] is True, f"amd {name}: not optimal")
        summary = body["summary"]
        require(summary["variables"] == cols and summary["normalizations"] + summary["invariance_equalities"]
                + summary["responsiveness_inequalities"] == rows, f"amd {name}: LP size")
        _, table = exact.parse_table(body["mechanism_table"])
        require(not exact.unsatisfied_rows(m, table), f"amd {name}: table breaks an SP constraint")
        require(exact.sp_first_violation(m, table) is None, f"amd {name}: table is not SP")
        value = exact.objective_value(m, table, objective)
        require(value == Fraction(solution["objective_value"]), f"amd {name}: objective value")
        require(value >= floor, f"amd {name}: optimum below a feasible zoo table")
        return {"orders": len(exact.orders(m)), "separations": len(exact.separations(m)),
                "pairs_scanned": _pairs(m), "amd_rows": rows, "amd_cols": cols,
                "workers": report["workers"]}

    return check


def _battery_equivalence(tables: _Tables, name: str, statement: str):
    def check(report, code):
        require(code == 0 and report is not None, f"{statement} {name}: crashed")
        counts = _check_equivalence(tables, name, report, statement)
        counts["load_bytes"] = tables.size[name]
        return counts

    return check


def _battery_det_scan(m: int, count: int, cross_check: int):
    def check(report, code):
        require(code == 0 and report is not None, "deterministic scan crashed")
        require((report["statement"], report["m"], report["checked"], report["agreements"],
                 report["first_disagreement"], report["cross_checked"]) ==
                ("monotonic_vs_sp_deterministic", m, count, count, None, min(cross_check, count)),
                "deterministic scan report")
        require(0 <= report["sp_count"] <= count, "deterministic scan sp_count")
        return {"det_tables": count}

    return check


def verify_m5(seed: int, workdir: str) -> Pass:
    """`check` in its default theorem1 mode at m=5 on three SP mixtures, two
    perturbed mixtures and one random table."""
    m, rng = 5, random.Random(seed)
    t = _Tables(m, workdir)
    sp = [t.add(f"sp-{i}.json", inputs.sp_mixture(m, rng), sp=True) for i in range(3)]
    # antithetic depths d and 1 - d: the pass's total scan work is the same
    # for every seed, whether the scan runs serially or split in two halves
    depth = rng.uniform(0.06, 0.45)
    pert = [t.add(f"pert-{i}.json", *inputs.perturbed(m, rng, inputs.sp_mixture(m, rng), d))
            for i, d in enumerate((depth, 1 - depth))]
    rand = t.add("rand-0.json", inputs.random_table(m, rng))
    names = [sp[0], pert[0], sp[1], rand, sp[2], pert[1]]
    jobs = [Job(f"theorem1:{n}", ["check", "--mechanism", n], check=_cli_check(t, n, "theorem1")) for n in names]
    return Pass(m, jobs, **t.properties())


def local_m6(seed: int, workdir: str) -> Pass:
    """Writes (`zoo emit`) and reads (`check --mode axioms`, `--mode
    multisep`) of m=6 tables: one SP mixture, one copy perturbed at a third
    of the scan, and two emitted zoo tables, one of them manipulable."""
    m, rng = 6, random.Random(seed)
    t = _Tables(m, workdir)
    base = inputs.sp_mixture(m, rng)
    sp = t.add("sp-0.json", base, sp=True)
    pert = t.add("pert-0.json", *inputs.perturbed(m, rng, base, 0.35))
    zoo = {}
    for name in ("rank_score", "k_sensitive_boost"):
        zoo[name] = t.add(f"zoo-{name}.json", inputs.zoo_table(name, m),
                          sp=name in inputs.SP_RULES, write=False)
    jobs = [
        Job(f"emit:{n}", ["zoo", "emit", "--name", n, "--m", str(m), "--out-mechanism", p], check=_zoo_emit(t, n, p))
        for n, p in zoo.items()
    ]
    for mode, names in (("axioms", [sp, pert, zoo["k_sensitive_boost"], zoo["rank_score"]]), ("multisep", [sp, pert])):
        jobs += [Job(f"{mode}:{n}", ["check", "--mechanism", n, "--mode", mode], check=_cli_check(t, n, mode))
                 for n in names]
    return Pass(m, jobs, **t.properties())


def design_m3(seed: int, workdir: str) -> Pass:
    """`amd --m 3` on the top-class welfare objective and fifteen random
    objectives."""
    m, rng = 3, random.Random(seed)
    objectives = {"welfare.json": inputs.welfare_objective(m)}
    objectives.update((f"obj-{i}.json", inputs.random_objective(m, rng)) for i in range(15))
    zoo = [inputs.zoo_table(name, m) for name in inputs.SP_RULES]
    jobs = []
    for name, objective in objectives.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(objective, fh)
        floor = max(exact.objective_value(m, table, objective) for table in zoo)
        jobs.append(Job(f"amd:{name}", ["amd", "--m", str(m), "--objective", name], check=_amd(m, name, objective, floor)))
    return Pass(m, jobs)


DET_SCAN_COUNT, DET_SCAN_CROSS_CHECK = 250, 8


def population_m4(seed: int, workdir: str) -> Pass:
    """In-process battery at m=4: both decompositions on SP mixtures,
    deterministic SP tables, perturbed mixtures at six fixed depths, random
    and random deterministic tables, plus seeded deterministic population
    scans. Full scans of SP tables are over half the jobs, so the median
    job is one of them and does not slide along the perturbed depths."""
    m, rng = 4, random.Random(seed)
    t = _Tables(m, workdir)
    groups = [
        [t.add(f"sp-{i}.json", inputs.sp_mixture(m, rng), sp=True) for i in range(16)],
        [t.add(f"det-sp-{i}.json", inputs.priority_dictator(m, rng), sp=True) for i in range(2)],
        # one perturbed table in the middle of each sixth of the scan
        [t.add(f"pert-{i}.json", *inputs.perturbed(m, rng, inputs.sp_mixture(m, rng), (2 * i + 1) / 12))
         for i in range(6)],
        [t.add(f"rand-{i}.json", inputs.random_table(m, rng)) for i in range(4)],
        [t.add(f"det-rand-{i}.json", inputs.random_deterministic(m, rng)) for i in range(2)],
    ]
    jobs = []
    for i in range(16):
        for group in groups:
            if i < len(group):
                for call, statement in (("check_decomposition", "axioms_vs_sp"),
                                        ("check_relaxed_decomposition", "relaxed_axioms_vs_sp")):
                    jobs.append(Job(f"{call}:{group[i]}", call={"call": call, "table": group[i]},
                                    check=_battery_equivalence(t, group[i], statement)))
        if i % 4 == 3:
            jobs.append(Job(f"det_scan:{i // 4}", call={
                "call": "scan_deterministic_decomposition", "m": m, "count": DET_SCAN_COUNT,
                "seed": rng.randrange(1 << 31), "cross_check": DET_SCAN_CROSS_CHECK},
                check=_battery_det_scan(m, DET_SCAN_COUNT, DET_SCAN_CROSS_CHECK)))
    return Pass(m, jobs, battery=True, **t.properties(), process_counts={"orders": len(exact.orders(m)), "separations": len(exact.separations(m))})


WORKLOADS = {
    "verify-m5": verify_m5,
    "local-m6": local_m6,
    "design-m3": design_m3,
    "population-m4": population_m4,
}
