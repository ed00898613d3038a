import random
from fractions import Fraction as F

import pytest

from sepax.amd import generate_sp_constraints, random_objective, top_class_welfare_objective
from sepax.lp import Constraint, InexactDivisionError, LinearProgram, _Tableau, solve_lp
from tests.oracles import (
    fraction_simplex_oracle,
    lp_violations,
    lp_vertex_oracle,
    random_bounded_lp,
    sp_constraints_oracle,
)


def simple_lp() -> LinearProgram:
    lp = LinearProgram(["x", "y"])
    lp.objective = {0: F(3), 1: F(2)}
    lp.add_constraint("cap_x", {0: F(1)}, "<=", F(4))
    lp.add_constraint("cap_sum", {0: F(1), 1: F(2)}, "<=", F(10))
    return lp


def test_constraint_validation_and_evaluate():
    con = Constraint("c", {0: F(2), 1: F(0), 2: F(-1)}, "<=", F(3))
    assert set(con.coeffs) == {0, 2}  # zero coefficients dropped
    exact = Constraint("exact", con.coeffs, "=", F(0))
    lp = LinearProgram(["a", "b", "c"], [con, exact])
    assert lp_violations(lp, {"a": F(1), "b": F(99), "c": F(2)}) == []
    assert lp_violations(lp, {"a": F(1), "b": F(0), "c": F(0)}) == ["exact"]
    assert lp_violations(lp, {"a": F(2), "b": F(0), "c": F(0)}) == ["c", "exact"]
    with pytest.raises(ValueError):
        Constraint("c", {0: F(1)}, "<", F(0))


def test_solve_simple_maximum():
    solution = solve_lp(simple_lp())
    assert solution.status == "optimal"
    assert solution.objective_value == F(18)
    assert solution.assignment == {"x": F(4), "y": F(3)}


def test_solve_with_equality_and_geq():
    lp = LinearProgram(["a", "b", "c"])
    lp.objective = {0: F(1), 1: F(1), 2: F(1)}
    lp.add_constraint("total", {0: F(1), 1: F(1), 2: F(1)}, "=", F(1))
    lp.add_constraint("floor_a", {0: F(1)}, ">=", F(1, 4))
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert solution.objective_value == 1
    assert sum(solution.assignment.values()) == 1
    assert solution.assignment["a"] >= F(1, 4)


def test_infeasible():
    lp = LinearProgram(["x"])
    lp.add_constraint("lo", {0: F(1)}, ">=", F(2))
    lp.add_constraint("hi", {0: F(1)}, "<=", F(1))
    solution = solve_lp(lp)
    assert solution.status == "infeasible"
    assert solution.objective_value is None
    assert solution.assignment == {}


def test_unbounded():
    lp = LinearProgram(["x", "y"])
    lp.objective = {0: F(1)}
    lp.add_constraint("floor", {1: F(1)}, ">=", F(1))
    assert solve_lp(lp).status == "unbounded"


def test_negative_rhs_normalization():
    # -x <= -2 is x >= 2; solver must flip the row rather than mis-seed it
    lp = LinearProgram(["x"])
    lp.objective = {0: F(-1)}
    lp.add_constraint("neg", {0: F(-1)}, "<=", F(-2))
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert solution.assignment["x"] == 2
    assert solution.objective_value == -2


def test_zero_objective_finds_feasible_point():
    lp = LinearProgram(["x", "y"])
    lp.add_constraint("sum", {0: F(1), 1: F(1)}, "=", F(1))
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert solution.objective_value == 0
    assert lp_violations(lp, solution.assignment) == []


def test_degenerate_cycling_instance():
    # a classic degenerate instance on which naive pivoting cycles forever;
    # the least-index rule must terminate at exactly 1/20
    lp = LinearProgram(["x1", "x2", "x3", "x4"])
    lp.objective = {0: F(3, 4), 1: F(-150), 2: F(1, 50), 3: F(-6)}
    lp.add_constraint(
        "r1", {0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, "<=", F(0)
    )
    lp.add_constraint(
        "r2", {0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, "<=", F(0)
    )
    lp.add_constraint("r3", {2: F(1)}, "<=", F(1))
    solution = solve_lp(lp)
    assert solution.status == "optimal"
    assert solution.objective_value == F(1, 20)


def test_lp_violations_reports_names():
    lp = simple_lp()
    bad = lp_violations(lp, {"x": F(5)})
    assert "missing:y" in bad
    assert "cap_x" in bad
    bad = lp_violations(lp, {"x": F(1), "y": F(-1)})
    assert bad == ["negative:y"]
    assert lp_violations(lp, {"x": F(0), "y": F(0)}) == []


def test_text_rendering():
    text = simple_lp().to_text()
    lines = text.strip().splitlines()
    assert lines[1] == "max: 3 x + 2 y"
    assert lines[2] == "cap_x: 1 x <= 4"
    assert lines[3] == "cap_sum: 1 x + 2 y <= 10"


def test_random_lps_against_vertex_oracle():
    # the oracle maximizes over every basic solution of the row subsets, so
    # agreement here checks optimality, not just feasibility
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        lp = random_bounded_lp(rng, LinearProgram)
        solution = solve_lp(lp)
        statuses[solution.status] += 1
        oracle_status, oracle_value = lp_vertex_oracle(lp)
        # the box row keeps every instance bounded
        assert solution.status != "unbounded"
        assert solution.status == oracle_status
        if solution.status == "optimal":
            assert solution.objective_value == oracle_value
            assert lp_violations(lp, solution.assignment) == []
            values = [solution.assignment[name] for name in lp.variables]
            assert sum(c * values[j] for j, c in lp.objective.items()) == oracle_value
    assert statuses["optimal"] >= 30
    assert statuses["infeasible"] >= 5


def cycling_lp() -> LinearProgram:
    lp = LinearProgram(["x1", "x2", "x3", "x4"])
    lp.objective = {0: F(3, 4), 1: F(-150), 2: F(1, 50), 3: F(-6)}
    lp.add_constraint(
        "r1", {0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, "<=", F(0)
    )
    lp.add_constraint(
        "r2", {0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, "<=", F(0)
    )
    lp.add_constraint("r3", {2: F(1)}, "<=", F(1))
    return lp


def identity_lps():
    """Every program the integer tableau must solve exactly as the Fraction
    tableau does: seeded random polytopes, the cycling instance, and the
    design LPs at m=2 and m=3 under several objectives, each also with the
    oracle's redundant lowered rows."""
    for seed in range(40):
        rng = random.Random(seed)
        for _ in range(120):
            yield random_bounded_lp(rng, LinearProgram)
    yield cycling_lp()
    for m in (2, 3):
        objectives = [top_class_welfare_objective(m), {}]
        objectives += [random_objective(m, random.Random(seed)) for seed in range(3)]
        for lowered in (False, True):
            for objective in objectives:
                lp = (
                    sp_constraints_oracle(m, lowered=True)
                    if lowered
                    else generate_sp_constraints(m)
                )
                lp.objective = dict(objective)
                yield lp


def test_integer_tableau_matches_fraction_oracle():
    # Bland's rule is blind to positive row and column scaling, so the
    # integer tableau must take the oracle's pivots and stop at its vertex
    count = 0
    for lp in identity_lps():
        solution = solve_lp(lp)
        status, assignment, value = fraction_simplex_oracle(lp)
        assert solution.status == status
        assert solution.assignment == assignment
        assert solution.objective_value == value
        count += 1
    assert count == 4800 + 1 + 20


def test_inexact_division_raises(monkeypatch):
    # a denominator that is not the basis determinant must fail loudly
    # instead of flooring its way to a wrong vertex
    real_init = _Tableau.__init__

    def wrong_det(self, rows, basis):
        real_init(self, rows, basis)
        self.det = 7

    monkeypatch.setattr(_Tableau, "__init__", wrong_det)
    with pytest.raises(InexactDivisionError):
        solve_lp(cycling_lp())
