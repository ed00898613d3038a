import json
import random
from fractions import Fraction

import pytest

from sepax.axioms import all_separations
from sepax.core import FormatError, classes_index, enumerate_weak_orders
from sepax.amd import (
    g_program,
    generate_sp_constraints,
    load_objective,
    lp_summary,
    objective_from_json,
    random_objective,
    solve_design,
    top_class_welfare_objective,
    variable_names,
)
from sepax.lp import LPSolution, solve_lp
from sepax.mechanisms import ZOO, k_sensitive_boost
from sepax.verify import check_decomposition, check_sp_bruteforce
from tests.oracles import (
    fraction_simplex_oracle,
    lp_violations,
    mechanism_assignment,
    objective_to_json,
    solution_to_mechanism,
    sp_constraints_oracle,
)


def _families(lp) -> dict[str, int]:
    by_family = {"norm": 0, "upper": 0, "lower": 0, "resp": 0, "drop": 0}
    for con in lp.constraints:
        by_family[con.name.split("[", 1)[0]] += 1
    return by_family


def test_variable_names():
    names = variable_names(2)
    assert names == [
        "x[0>1][0]",
        "x[0>1][1]",
        "x[1>0][0]",
        "x[1>0][1]",
        "x[0,1][0]",
        "x[0,1][1]",
    ]


def test_constraints_match_oracle():
    # the canonical-index build is the WeakOrder build, row for row
    for m in range(1, 6):
        lp, oracle = generate_sp_constraints(m), sp_constraints_oracle(m)
        assert lp.variables == oracle.variables
        assert lp.to_text() == oracle.to_text()


def test_summary_counts():
    assert lp_summary(2) == {
        "m": 2,
        "variables": 6,
        "normalizations": 3,
        "invariance_equalities": 0,
        "responsiveness_inequalities": 2,
        "reduced_rows": 2,
        "naive_rows": 12,
        "g_variables": 2,
        "g_rows": 3,
    }
    summary = lp_summary(3)
    assert summary["variables"] == 39
    assert summary["normalizations"] == 13
    assert summary["invariance_equalities"] == 12
    assert summary["responsiveness_inequalities"] == 18
    assert summary["reduced_rows"] == 30
    assert summary["naive_rows"] == 468
    assert summary["g_variables"] == 6
    assert summary["g_rows"] == 9
    lowered = _families(sp_constraints_oracle(3, lowered=True))
    assert lowered["drop"] == 18
    assert sum(lowered.values()) - lowered["norm"] == 48


def test_summary_matches_row_walk():
    # the closed form against a per-family count of the built system's rows
    for m in range(1, 6):
        lp = generate_sp_constraints(m)
        g_lp = g_program(m)
        by_family = _families(lp)
        reduced = by_family["upper"] + by_family["lower"] + by_family["resp"]
        orders = len(enumerate_weak_orders(m))
        # one responsiveness row per separation
        assert by_family["resp"] == len(all_separations(m)), m
        assert lp_summary(m) == {
            "m": m,
            "variables": len(lp.variables),
            "normalizations": by_family["norm"],
            "invariance_equalities": by_family["upper"] + by_family["lower"],
            "responsiveness_inequalities": by_family["resp"],
            "reduced_rows": reduced,
            "naive_rows": orders * (orders - 1) * m,
            "g_variables": len(g_lp.variables),
            "g_rows": len(g_lp.constraints),
        }, m


def _table_value(objective: dict[int, Fraction], mech) -> Fraction:
    """The objective at the table's own entries."""
    names = variable_names(mech.m)
    assignment = mechanism_assignment(mech)
    return sum((c * assignment[names[j]] for j, c in objective.items()), Fraction(0))


def test_solve_design_matches_fresh_solve():
    # the design reaches the full program's optimum at a point of the full
    # program, not necessarily at the vertex a fresh solve of it picks
    rng = random.Random(11)
    for m in (2, 3):
        objectives = [top_class_welfare_objective(m)]
        objectives += [random_objective(m, rng) for _ in range(4)]
        for objective in objectives:
            before = dict(objective)
            solution, mech = solve_design(m, objective)
            assert objective == before
            lp = generate_sp_constraints(m)
            lp.objective = objective
            fresh = solve_lp(lp)
            assert solution.status == fresh.status == "optimal"
            assert solution.objective_value == fresh.objective_value
            assert lp_violations(lp, mechanism_assignment(mech)) == []
            assert _table_value(objective, mech) == solution.objective_value


def _fractional_objective(m: int, rng: random.Random) -> dict[int, Fraction]:
    total = len(enumerate_weak_orders(m)) * m
    return {
        j: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for j in range(total)
        if rng.randrange(2)
    }


def _design_objectives(m: int, rng: random.Random, randoms: int, fractionals: int):
    return (
        [top_class_welfare_objective(m)]
        + [random_objective(m, rng) for _ in range(randoms)]
        + [_fractional_objective(m, rng) for _ in range(fractionals)]
    )


def test_design_optimum_is_the_full_programs():
    # the upper-set program's optimum is the full system's, under the
    # integer tableau at every m and the Fraction tableau where it is quick;
    # each full solve at m=4 takes seconds, so m=4 gets three objectives
    rng = random.Random(14)
    for m, randoms, fractionals in ((1, 3, 2), (2, 3, 2), (3, 3, 2), (4, 1, 1)):
        for objective in _design_objectives(m, rng, randoms, fractionals):
            solution, _ = solve_design(m, objective)
            full = generate_sp_constraints(m)
            full.objective = objective
            assert solution.status == "optimal"
            assert solution.objective_value == solve_lp(full).objective_value, m
            if m <= 3:
                status, _, value = fraction_simplex_oracle(full)
                assert (status, value) == ("optimal", solution.objective_value), m


def test_lifted_tables_satisfy_the_full_system():
    rng = random.Random(15)
    for m in range(1, 6):
        full = generate_sp_constraints(m)
        for objective in _design_objectives(m, rng, 2, 1 if m == 5 else 2):
            solution, mech = solve_design(m, objective)
            assert lp_violations(full, mechanism_assignment(mech)) == [], m
            assert check_sp_bruteforce(mech) is None, m
            assert _table_value(objective, mech) == solution.objective_value, m


def _g_name(mask: int, m: int) -> str:
    return "G[" + ",".join(str(a) for a in range(m) if mask >> a & 1) + "]"


def test_reported_g_is_the_tables_own():
    # the solution's assignment is G: a point of the upper-set program, and
    # the mass every order's row puts on each of its upper sets
    rng = random.Random(16)
    for m in range(1, 6):
        g_lp = g_program(m)
        full = (1 << m) - 1
        for objective in _design_objectives(m, rng, 2, 1):
            solution, mech = solve_design(m, objective)
            assert sorted(solution.assignment) == sorted(g_lp.variables), m
            assert lp_violations(g_lp, solution.assignment) == [], m
            g = {u: solution.assignment[_g_name(u, m)] for u in range(1, full)}
            g[full] = 1
            for order, row in zip(enumerate_weak_orders(m), mech.rows):
                upper = mass = 0
                for cls in order.classes:
                    for alt in cls:
                        upper |= 1 << alt
                        mass += row[alt]
                    assert mass == g[upper] * mech.denominator, (m, order)


def _g_weights_as_entries(m: int, weights: list[int]) -> dict[int, Fraction]:
    """An entry objective worth sum_U weights[U - 1] * G(U) at every design:
    the gain w_U sits at the |U|-prefix of the strict order "U ascending,
    then the rest ascending", gains on one order accumulate, and each
    entry's coefficient is the sum of its order's gains at longer prefixes."""
    index = classes_index(m)
    gains: dict[tuple[int, ...], list[int]] = {}
    for u, w in enumerate(weights, start=1):
        inside = [a for a in range(m) if u >> a & 1]
        chain = tuple(inside + [a for a in range(m) if not u >> a & 1])
        gains.setdefault(chain, [0] * (m + 1))[len(inside)] += w
    objective = {}
    for chain, gain in gains.items():
        i = index[tuple((a,) for a in chain)]
        for k, alt in enumerate(chain):
            coef = sum(gain[k + 1 :])
            if coef:
                objective[i * m + alt] = Fraction(coef)
    return objective


def test_design_with_a_half_denominator():
    # every seeded random design is deterministic; this one is not: the G
    # program under seeded integer weights has its optimum 25/2 at a G with
    # values in {0, 1/2, 1}, and the entry objective that spells out those
    # weights designs a table over denominator 2
    m = 4
    direct = g_program(m)
    rng = random.Random(179)
    weights = [rng.randint(-9, 9) for _ in direct.variables]
    direct.objective = dict(enumerate(weights))
    reference = solve_lp(direct)
    assert reference.objective_value == Fraction(25, 2)
    assert set(reference.assignment.values()) == {0, Fraction(1, 2), 1}

    objective = _g_weights_as_entries(m, weights)
    solution, mech = solve_design(m, objective)
    assert solution.objective_value == Fraction(25, 2)
    assert solution.assignment == reference.assignment
    assert mech.denominator == 2
    assert lp_violations(generate_sp_constraints(m), mechanism_assignment(mech)) == []
    assert check_sp_bruteforce(mech) is None
    assert _table_value(objective, mech) == Fraction(25, 2)


def test_g_program_size_and_orientation():
    for m in range(1, 7):
        lp = g_program(m)
        summary = lp_summary(m)
        assert len(lp.variables) == summary["g_variables"] == (1 << m) - 2
        assert len(lp.constraints) == summary["g_rows"]
        # every row is written <=; only the C(m, 2) rows whose top set is
        # the whole set have a negative right-hand side
        assert {con.relation for con in lp.constraints} == {"<="}
        negative = [con.name for con in lp.constraints if con.rhs < 0]
        assert len(negative) == m * (m - 1) // 2, m


def test_solve_design_rejects_unknown_variables():
    with pytest.raises(ValueError, match="unknown variable 6"):
        solve_design(2, {6: Fraction(1)})


def test_constraint_families_match_summary():
    for m in (1, 2, 3):
        by_family = _families(sp_constraints_oracle(m, lowered=True))
        summary = lp_summary(m)
        assert by_family["norm"] == summary["normalizations"]
        assert by_family["upper"] + by_family["lower"] == summary[
            "invariance_equalities"
        ]
        assert by_family["resp"] == summary["responsiveness_inequalities"]
        # one lowered row per responsiveness row
        assert by_family["drop"] == summary["responsiveness_inequalities"]


def test_zoo_sp_mechanisms_are_feasible_points():
    lp = sp_constraints_oracle(3, lowered=True)
    for name, factory in ZOO.items():
        mech = factory(3)
        violated = lp_violations(lp, mechanism_assignment(mech))
        if check_sp_bruteforce(mech) is None:
            assert violated == [], name
        else:
            assert violated != [], name


def test_boost_mechanism_violation_rows():
    lp = generate_sp_constraints(3)
    violated = lp_violations(lp, mechanism_assignment(k_sensitive_boost(3)))
    assert len(violated) == 18
    families = {name.split("[", 1)[0] for name in violated}
    assert families == {"upper", "lower", "resp"}
    # the worked example row: mass on {0} must not move across this split
    assert "upper[0>1,2|0>1>2][k1]" in violated


def test_welfare_design_m2():
    solution, mech = solve_design(2, top_class_welfare_objective(2))
    assert solution.status == "optimal"
    assert solution.objective_value == 3
    assert mech is not None
    assert check_sp_bruteforce(mech) is None
    # at the optimum both strict orders get their top for sure
    from sepax.core import WeakOrder

    assert mech.lottery(WeakOrder.parse("0>1")).probs == (1, 0)
    assert mech.lottery(WeakOrder.parse("1>0")).probs == (0, 1)


def test_welfare_design_m3():
    solution, mech = solve_design(3, top_class_welfare_objective(3))
    assert solution.status == "optimal"
    assert solution.objective_value == 13
    report = check_decomposition(mech)
    assert report.sp_verdict and report.decomposition_verdict


def test_lowered_inequality_is_redundant():
    objective = top_class_welfare_objective(3)
    plain, _ = solve_design(3, objective)
    lp = sp_constraints_oracle(3, lowered=True)
    lp.objective = objective
    lowered = solve_lp(lp)
    assert plain.objective_value == lowered.objective_value == 13
    assert check_sp_bruteforce(solution_to_mechanism(lowered, 3)) is None


def test_zero_objective_design_is_sp():
    solution, mech = solve_design(3, {})
    assert solution.status == "optimal"
    assert solution.objective_value == 0
    assert check_sp_bruteforce(mech) is None


def test_random_objectives_yield_sp_optima():
    rng = random.Random(8)
    for m in (2, 3):
        for _ in range(6):
            objective = random_objective(m, rng)
            solution, mech = solve_design(m, objective)
            assert solution.status == "optimal"
            assert mech is not None
            assert check_sp_bruteforce(mech) is None
            assert lp_violations(generate_sp_constraints(m), mechanism_assignment(mech)) == []


def test_solution_to_mechanism_requires_optimal():
    with pytest.raises(ValueError):
        solution_to_mechanism(LPSolution(status="infeasible"), 2)


def test_objective_json_round_trip():
    rng = random.Random(3)
    objective = random_objective(3, rng)
    blob = objective_to_json(3, objective)
    assert blob["sense"] == "max"
    text = json.dumps(blob)
    again = objective_from_json(json.loads(text), 3)
    assert again == objective


def test_objective_from_json_accumulates_and_validates():
    base = {"sense": "max", "terms": [{"order": "0>1", "alt": 0, "coef": "1/2"}]}
    doubled = {
        "sense": "max",
        "terms": [
            {"order": "0>1", "alt": 0, "coef": "1/2"},
            {"order": "0>1", "alt": 0, "coef": "1/2"},
        ],
    }
    assert objective_from_json(doubled, 2) == {
        j: 2 * c for j, c in objective_from_json(base, 2).items()
    }
    cancelled = {
        "sense": "max",
        "terms": [
            {"order": "0>1", "alt": 0, "coef": "1"},
            {"order": "0>1", "alt": 0, "coef": "-1"},
        ],
    }
    assert objective_from_json(cancelled, 2) == {}
    for bad in (
        {"sense": "min", "terms": []},
        {"terms": [{"order": "0>2", "alt": 0, "coef": "1"}]},
        {"terms": [{"order": "0>1", "alt": 5, "coef": "1"}]},
        {"terms": [{"order": "0>1", "alt": 0, "coef": 1}]},
        {"terms": [{"alt": 0, "coef": "1"}]},
        {"terms": "nope"},
        [],
    ):
        with pytest.raises(FormatError):
            objective_from_json(bad, 2)


def test_load_objective(tmp_path):
    path = tmp_path / "objective.json"
    path.write_text(json.dumps(objective_to_json(2, top_class_welfare_objective(2))))
    assert load_objective(str(path), 2) == top_class_welfare_objective(2)
    path.write_text("{broken")
    with pytest.raises(FormatError):
        load_objective(str(path), 2)


def test_feasible_set_nonempty_even_with_all_rows():
    lp = sp_constraints_oracle(3, lowered=True)
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    mech = solution_to_mechanism(solution, 3)
    assert check_sp_bruteforce(mech) is None


def test_welfare_design_m4():
    # the integer tableau solves the 300-variable m=4 system in seconds
    solution, mech = solve_design(4, top_class_welfare_objective(4))
    assert solution.status == "optimal"
    assert solution.objective_value == 75
    assert check_sp_bruteforce(mech) is None
    assert lp_violations(generate_sp_constraints(4), mechanism_assignment(mech)) == []


def test_objective_order_must_be_text():
    for order in (5, None, ["0>1"]):
        with pytest.raises(FormatError):
            objective_from_json({"terms": [{"order": order, "alt": 0, "coef": "1"}]}, 2)
