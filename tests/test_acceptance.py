"""One test per acceptance criterion. Every test prints a single
ACCEPTANCE line (PASS or FAIL) through the conftest collector before
asserting, so a red criterion still reports itself in the summary."""

import itertools
import random
import time

from sepax.core import (
    Lottery,
    enumerate_weak_orders,
    fosd,
)
from sepax.axioms import check_all_axioms
from sepax.mechanisms import ZOO
from sepax.paths import (
    SPLIT_CHAIN_STYLES,
    as_separation,
    check_refinement_sp,
    enumerate_multiway_separations,
    random_strict_utility,
    refinement_path,
    split_chain,
)
from sepax.verify import (
    check_decomposition,
    check_deterministic_decomposition,
    check_relaxed_decomposition,
    check_sp_bruteforce,
    count_constraints,
    scan_deterministic_decomposition,
)
from sepax.amd import (
    generate_sp_constraints,
    random_objective,
    solve_design,
    top_class_welfare_objective,
)
from tests.conftest import POPULATION_SEED, record_acceptance
from tests.oracles import (
    fosd_oracle_utilities,
    lottery_table,
    lp_violations,
    mechanism_assignment,
    separation_axiom_oracle,
    weak_order_count,
)


def _report(number: int, title: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    record_acceptance(f"ACCEPTANCE {number} ({title}): {verdict} [{detail}]")


def test_acceptance_1_decomposition_equivalence(population):
    started = time.perf_counter()
    disagreements = [
        mech.name
        for mech in population
        if not check_decomposition(mech).agreement
    ]
    elapsed = time.perf_counter() - started
    ok = not disagreements and elapsed < 120
    _report(
        1,
        "decomposition equivalence",
        ok,
        f"{len(population) - len(disagreements)}/{len(population)} agree, "
        f"{elapsed:.1f}s",
    )
    assert disagreements == []
    assert elapsed < 120


def test_acceptance_2_relaxed_decomposition(population):
    started = time.perf_counter()
    disagreements = [
        mech.name
        for mech in population
        if not check_relaxed_decomposition(mech).agreement
    ]
    elapsed = time.perf_counter() - started
    ok = not disagreements and elapsed < 120
    _report(
        2,
        "relaxed decomposition",
        ok,
        f"{len(population) - len(disagreements)}/{len(population)} agree, "
        f"{elapsed:.1f}s",
    )
    assert disagreements == []
    assert elapsed < 120


def test_acceptance_3_deterministic_decomposition():
    started = time.perf_counter()
    orders2 = enumerate_weak_orders(2)
    exhaustive_bad = []
    for choices in itertools.product(range(2), repeat=3):
        table = lottery_table(
            2,
            {order: Lottery.unit(2, c) for order, c in zip(orders2, choices)},
            name=f"det2-{choices}",
        )
        if not check_deterministic_decomposition(table).agreement:
            exhaustive_bad.append(table.name)
    scan = scan_deterministic_decomposition(3, 100000, POPULATION_SEED, cross_check=200)
    elapsed = time.perf_counter() - started
    ok = not exhaustive_bad and scan.all_agree and elapsed < 60
    _report(
        3,
        "deterministic monotonicity",
        ok,
        f"8/8 exhaustive at m=2, {scan.agreements}/{scan.checked} sampled at "
        f"m=3, {elapsed:.1f}s",
    )
    assert exhaustive_bad == []
    assert scan.all_agree
    assert scan.checked == 100000
    assert elapsed < 60


def test_acceptance_4_constraint_counting():
    expected_counts = [1, 3, 13, 75, 541, 4683]
    enumerated_ok = all(
        count_constraints(m).orders == expected_counts[m - 1] == weak_order_count(m)
        for m in range(1, 7)
    )
    max_ok = all(
        count_constraints(m).separations_max_per_order == 2**m - 2
        for m in range(2, 11)
    )
    three = count_constraints(3)
    reduction_ok = (
        three.orders,
        three.ordered_pairs,
        three.separations_total,
    ) == (13, 156, 18)
    ok = enumerated_ok and max_ok and reduction_ok
    _report(
        4,
        "constraint counting",
        ok,
        "counts 1,3,13,75,541,4683; m=3 reduction 18 vs 156",
    )
    assert enumerated_ok
    assert max_ok
    assert reduction_ok


def test_acceptance_5_segment_paths():
    started = time.perf_counter()
    rng = random.Random(POPULATION_SEED)
    orders5 = enumerate_weak_orders(5)
    failures = 0
    for _ in range(1000):
        start, end = rng.choice(orders5), rng.choice(orders5)
        u = random_strict_utility(start, rng)
        v = random_strict_utility(end, rng)
        path = refinement_path(start, end, u=u, v=v)
        try:
            steps = path.steps()
        except RuntimeError:
            failures += 1
            continue
        if path.orders[0] != start or path.orders[-1] != end:
            failures += 1
        elif any(a == b for a, b in zip(path.orders, path.orders[1:])):
            failures += 1
        elif len(steps) != len(path.orders) - 1:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30
    _report(
        5,
        "segment paths",
        ok,
        f"{1000 - failures}/1000 tuples at m=5, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < 30


def test_acceptance_6_split_chains():
    checked = 0
    failures = 0
    for m in range(2, 6):
        for coarse in enumerate_weak_orders(m):
            for multi in enumerate_multiway_separations(coarse):
                for style in SPLIT_CHAIN_STYLES:
                    steps = split_chain(multi, style)
                    checked += 1
                    if len(steps) != multi.arity - 1:
                        failures += 1
                        continue
                    chain = [multi.coarse] + [s.fine for s in steps]
                    if chain[-1] != multi.fine or any(
                        as_separation(a, b) is None
                        for a, b in zip(chain, chain[1:])
                    ):
                        failures += 1
    ok = failures == 0
    _report(
        6,
        "split chains",
        ok,
        f"{checked - failures}/{checked} chains at m<=5, both styles",
    )
    assert failures == 0


def test_acceptance_7_axiom_chain_soundness(population):
    checked = 0
    failures = 0
    for mech in population:
        if mech.m > 4:
            continue
        checked += 1
        verdicts = check_all_axioms(mech).verdicts
        axioms_pass = (
            verdicts["monotonic"]
            and verdicts["upper_invariant"]
            and verdicts["lower_invariant"]
        )
        full_sp = check_sp_bruteforce(mech) is None
        if axioms_pass:
            if check_refinement_sp(mech) is not None or not full_sp:
                failures += 1
        elif full_sp:
            # failing an axiom while passing full SP breaks the chain too
            failures += 1
    ok = failures == 0
    _report(
        7,
        "axiom chain soundness",
        ok,
        f"{checked - failures}/{checked} mechanisms consistent",
    )
    assert failures == 0


def test_acceptance_8_dominance_oracle():
    rng = random.Random(POPULATION_SEED)
    disagreements = 0
    for _ in range(10000):
        m = rng.randint(1, 5)
        order = rng.choice(enumerate_weak_orders(m))

        def draw() -> Lottery:
            weights = [rng.randint(0, 6) for _ in range(m)]
            if not any(weights):
                weights[rng.randrange(m)] = 1
            total = sum(weights)
            from fractions import Fraction

            return Lottery(m, tuple(Fraction(w, total) for w in weights))

        x, y = draw(), draw()
        if fosd(x, y, order) != fosd_oracle_utilities(x, y, order):
            disagreements += 1
    ok = disagreements == 0
    _report(
        8,
        "dominance oracle",
        ok,
        f"{10000 - disagreements}/10000 triples agree at m<=5",
    )
    assert disagreements == 0


def test_acceptance_9_design_soundness():
    rng = random.Random(POPULATION_SEED)
    unsound = 0
    designs = 0
    for m in (2, 3):
        for _ in range(12):
            solution, mech = solve_design(m, random_objective(m, rng))
            designs += 1
            if solution.status != "optimal" or check_sp_bruteforce(mech) is not None:
                unsound += 1
    welfare, _ = solve_design(2, top_class_welfare_objective(2))
    welfare_ok = welfare.objective_value == 3
    infeasible_zoo = []
    for m in (2, 3):
        lp = generate_sp_constraints(m)
        for name, factory in sorted(ZOO.items()):
            mech = factory(m)
            if check_sp_bruteforce(mech) is None:
                if lp_violations(lp, mechanism_assignment(mech)):
                    infeasible_zoo.append(f"{name}@{m}")
    ok = unsound == 0 and welfare_ok and not infeasible_zoo
    _report(
        9,
        "design soundness",
        ok,
        f"{designs - unsound}/{designs} optima strategyproof, m=2 welfare "
        f"optimum {welfare.objective_value}",
    )
    assert unsound == 0
    assert designs >= 20
    assert welfare_ok
    assert infeasible_zoo == []


def test_acceptance_10_scale_smoke():
    mech = ZOO["top_class_uniform"](5)
    started = time.perf_counter()
    report = check_all_axioms(mech)
    elapsed = time.perf_counter() - started
    oracle = separation_axiom_oracle(mech)
    matches = all(
        [cert.to_json() for cert in report.certificates[axiom]] == oracle[axiom][:1]
        for axiom in oracle
    )
    all_pass = all(report.verdicts.values())
    ok = elapsed < 60 and matches and all_pass
    _report(
        10,
        "scale smoke",
        ok,
        f"m=5 axiom check {elapsed:.1f}s, certificates equal to the axiom oracle",
    )
    assert elapsed < 60
    assert matches
    assert all_pass
