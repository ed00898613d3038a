"""Automated mechanism design: compile the separation axioms into an exact
LP over lottery entries and read optimal mechanisms back out of solutions.

Variables are x[order][alt], one probability per (weak order, alternative).
The constraint families, all named by prefix:

- norm[R]: the lottery at each order sums to one (with implicit
  nonnegativity this makes every column of the solution a lottery).
- upper[R|R'][kN] and lower[R|R'][kN]: for each separation and each class
  other than the split one, the class keeps its probability exactly. These
  equalities carry both invariance axioms and, jointly, directness in the
  only form a linear feasibility program can: sides of the split move
  together because everything else is pinned.
- resp[R|R']: the upper part of the split must not lose probability. The
  matching lower-part inequality is implied by the equalities plus
  normalization, so it is redundant and only emitted on request.

Feasible points are exactly the strategyproof mechanisms, so any optimum of
any objective over these constraints is strategyproof by construction; the
test batteries re-verify that with the brute-force scan.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .axioms import all_separations
from .core import (
    FormatError,
    WeakOrder,
    enumerate_weak_orders,
    order_texts,
    parse_rational,
    read_json,
)
from .lp import LinearProgram, LPSolution, solve_lp
from .mechanisms import MechanismTable, integer_row
from .verify import count_constraints


def variable_names(m: int) -> list[str]:
    """One variable per (order, alternative): x[order][alt], orders in
    canonical enumeration order. Index of (order i, alt a) is i * m + a."""
    return [f"x[{text}][{alt}]" for text in order_texts(m) for alt in range(m)]


def generate_sp_constraints(
    m: int, *, include_lowered_inequality: bool = False
) -> LinearProgram:
    """The reduced strategyproofness constraint system at size m, with an
    empty objective. Callers set `lp.objective` before solving."""
    orders = enumerate_weak_orders(m)
    index = {order: i for i, order in enumerate(orders)}
    lp = LinearProgram(variable_names(m))

    def var(order_i: int, alt: int) -> int:
        return order_i * m + alt

    for i, order in enumerate(orders):
        lp.add_constraint(
            f"norm[{order.text}]",
            {var(i, alt): Fraction(1) for alt in range(m)},
            "=",
            1,
        )

    for sep in all_separations(m):
        ci = index[sep.coarse]
        fi = index[sep.fine]
        tag = f"{sep.coarse.text}|{sep.fine.text}"
        for k, cls in enumerate(sep.coarse.classes, start=1):
            if k == sep.kappa:
                continue
            coeffs: dict[int, Fraction] = {}
            for alt in cls:
                coeffs[var(fi, alt)] = Fraction(1)
                coeffs[var(ci, alt)] = Fraction(-1)
            family = "upper" if k < sep.kappa else "lower"
            lp.add_constraint(f"{family}[{tag}][k{k}]", coeffs, "=", 0)
        coeffs = {}
        for alt in sep.upper_part:
            coeffs[var(fi, alt)] = Fraction(1)
            coeffs[var(ci, alt)] = Fraction(-1)
        lp.add_constraint(f"resp[{tag}]", coeffs, ">=", 0)
        if include_lowered_inequality:
            coeffs = {}
            for alt in sep.lower_part:
                coeffs[var(fi, alt)] = Fraction(1)
                coeffs[var(ci, alt)] = Fraction(-1)
            lp.add_constraint(f"drop[{tag}]", coeffs, "<=", 0)
    return lp


def sp_lp_summary(m: int, *, include_lowered_inequality: bool = False) -> dict:
    """Size accounting for the generated system versus the naive pairwise
    encoding (one dominance row per ordered pair per contour set)."""
    return lp_summary(
        m, generate_sp_constraints(m, include_lowered_inequality=include_lowered_inequality)
    )


def lp_summary(m: int, lp: LinearProgram) -> dict:
    """`sp_lp_summary` of a system `generate_sp_constraints` already built
    at size m."""
    by_family: dict[str, int] = {}
    for con in lp.constraints:
        family = con.name.split("[", 1)[0]
        by_family[family] = by_family.get(family, 0) + 1
    counts = count_constraints(m)
    reduced = sum(n for family, n in by_family.items() if family != "norm")
    return {
        "m": m,
        "variables": len(lp.variables),
        "normalizations": by_family.get("norm", 0),
        "invariance_equalities": by_family.get("upper", 0) + by_family.get("lower", 0),
        "responsiveness_inequalities": by_family.get("resp", 0),
        "lowered_inequalities": by_family.get("drop", 0),
        "nonnegativity_bounds": len(lp.variables),
        "reduced_rows": reduced,
        "separations": counts.separations_total,
        "naive_rows": counts.ordered_pairs * m,
    }


def top_class_welfare_objective(m: int) -> dict[int, Fraction]:
    """Maximize the total probability each order assigns to its own top
    class, summed over all orders."""
    coeffs: dict[int, Fraction] = {}
    for i, order in enumerate(enumerate_weak_orders(m)):
        for alt in order.classes[0]:
            coeffs[i * m + alt] = Fraction(1)
    return coeffs


def random_objective(
    m: int, rng: random.Random, coef_cap: int = 12
) -> dict[int, Fraction]:
    """Integer coefficients in [-coef_cap, coef_cap], most entries zero."""
    coeffs: dict[int, Fraction] = {}
    total = len(enumerate_weak_orders(m)) * m
    for j in range(total):
        if rng.randrange(3) == 0:
            coeffs[j] = Fraction(rng.randint(-coef_cap, coef_cap))
    return coeffs


def objective_to_json(m: int, coeffs: dict[int, Fraction]) -> dict:
    orders = enumerate_weak_orders(m)
    return {
        "sense": "max",
        "terms": [
            {
                "order": orders[j // m].text,
                "alt": j % m,
                "coef": str(Fraction(c)),
            }
            for j, c in sorted(coeffs.items())
            if c != 0
        ],
    }


def objective_from_json(data: object, m: int) -> dict[int, Fraction]:
    """Parse an objective file: {"sense": "max", "terms": [{"order": ...,
    "alt": ..., "coef": ...}]}. Repeated (order, alt) terms accumulate."""
    if not isinstance(data, dict):
        raise FormatError("objective file must be a JSON object")
    if data.get("sense", "max") != "max":
        raise FormatError("only maximization objectives are supported")
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise FormatError("objective file needs a terms list")
    index = {order: i for i, order in enumerate(enumerate_weak_orders(m))}
    coeffs: dict[int, Fraction] = {}
    for t, raw in enumerate(terms):
        if not isinstance(raw, dict):
            raise FormatError(f"term {t} must be an object")
        order_text = raw.get("order")
        if not isinstance(order_text, str):
            raise FormatError(f"term {t}: missing order text")
        order = WeakOrder.parse(order_text)
        if order.m != m or order not in index:
            raise FormatError(f"term {t}: order {order_text!r} not over 0..{m - 1}")
        alt = raw.get("alt")
        if not isinstance(alt, int) or isinstance(alt, bool) or not 0 <= alt < m:
            raise FormatError(f"term {t}: bad alternative {alt!r}")
        coef_text = raw.get("coef")
        if not isinstance(coef_text, str):
            raise FormatError(f"term {t}: coefficient must be a string rational")
        coef = parse_rational(coef_text)
        j = index[order] * m + alt
        coeffs[j] = coeffs.get(j, Fraction(0)) + coef
    return {j: c for j, c in coeffs.items() if c != 0}


def load_objective(path: str, m: int) -> dict[int, Fraction]:
    return objective_from_json(read_json(path, "objective file not valid JSON"), m)


def mechanism_assignment(mech: MechanismTable) -> dict[str, Fraction]:
    """The LP point corresponding to a mechanism table, for feasibility
    checks against `generate_sp_constraints`."""
    mech.validate()
    return {
        f"x[{text}][{alt}]": Fraction(x, mech.denominator)
        for text, row in zip(order_texts(mech.m), mech.rows)
        for alt, x in enumerate(row)
    }


def solution_to_mechanism(
    solution: LPSolution, m: int, name: str = "lp-design"
) -> MechanismTable:
    """Read the lottery table out of an optimal solution. The normalization
    and nonnegativity rows guarantee the entries really are lotteries."""
    if solution.status != "optimal":
        raise ValueError(f"no mechanism in a {solution.status} solution")
    rows = (
        integer_row([solution.assignment[f"x[{text}][{alt}]"] for alt in range(m)])
        for text in order_texts(m)
    )
    return MechanismTable.from_rows(m, rows, name=name)


def design_mechanism(
    m: int,
    objective: dict[int, Fraction],
    *,
    include_lowered_inequality: bool = False,
    name: str = "lp-design",
) -> tuple[LPSolution, MechanismTable | None]:
    """Solve for an optimal strategyproof mechanism under the objective."""
    lp = generate_sp_constraints(
        m, include_lowered_inequality=include_lowered_inequality
    )
    return solve_design(lp, m, objective, name)


def solve_design(
    lp: LinearProgram,
    m: int,
    objective: dict[int, Fraction],
    name: str = "lp-design",
) -> tuple[LPSolution, MechanismTable | None]:
    """`design_mechanism` on a system `generate_sp_constraints` already
    built at size m; sets the system's objective."""
    lp.objective = dict(objective)
    solution = solve_lp(lp)
    mech = (
        solution_to_mechanism(solution, m, name=name)
        if solution.status == "optimal"
        else None
    )
    return solution, mech
