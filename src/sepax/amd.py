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
  normalization, so it is redundant and never emitted; the builder that
  still emits it lives on as a test oracle in ``tests/oracles.py``.

Feasible points are exactly the strategyproof mechanisms, so any optimum of
any objective over these constraints is strategyproof by construction; the
test batteries re-verify that with the brute-force scan.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .axioms import _separation_layout
from .core import (
    FormatError,
    WeakOrder,
    classes_index,
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


def generate_sp_constraints(m: int) -> LinearProgram:
    """The reduced strategyproofness constraint system at size m, with an
    empty objective. Callers set `lp.objective` before solving."""
    orders = enumerate_weak_orders(m)
    texts = order_texts(m)
    lp = LinearProgram(variable_names(m))

    def moved(ci: int, fi: int, alts) -> dict[int, Fraction]:
        """The fine order's mass on ``alts`` minus the coarse order's."""
        coeffs: dict[int, Fraction] = {}
        for alt in alts:
            coeffs[fi * m + alt] = Fraction(1)
            coeffs[ci * m + alt] = Fraction(-1)
        return coeffs

    for i, text in enumerate(texts):
        lp.add_constraint(
            f"norm[{text}]",
            {i * m + alt: Fraction(1) for alt in range(m)},
            "=",
            1,
        )

    for ci, fi, split, upper, _ in _separation_layout(m):
        tag = f"{texts[ci]}|{texts[fi]}"
        for k, cls in enumerate(orders[ci].classes):
            if k != split:
                family = "upper" if k < split else "lower"
                lp.add_constraint(f"{family}[{tag}][k{k + 1}]", moved(ci, fi, cls), "=", 0)
        lp.add_constraint(f"resp[{tag}]", moved(ci, fi, upper), ">=", 0)
    return lp


def lp_summary(m: int, lp: LinearProgram) -> dict:
    """Size accounting for a system `generate_sp_constraints` built at size
    m, versus the naive pairwise encoding (one dominance row per ordered
    pair per contour set)."""
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
    texts = order_texts(m)
    return {
        "sense": "max",
        "terms": [
            {
                "order": texts[j // m],
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
    index = classes_index(m)
    coeffs: dict[int, Fraction] = {}
    for t, raw in enumerate(terms):
        if not isinstance(raw, dict):
            raise FormatError(f"term {t} must be an object")
        order_text = raw.get("order")
        if not isinstance(order_text, str):
            raise FormatError(f"term {t}: missing order text")
        i = index.get(WeakOrder.parse(order_text).classes)
        if i is None:
            raise FormatError(f"term {t}: order {order_text!r} not over 0..{m - 1}")
        alt = raw.get("alt")
        if not isinstance(alt, int) or isinstance(alt, bool) or not 0 <= alt < m:
            raise FormatError(f"term {t}: bad alternative {alt!r}")
        coef_text = raw.get("coef")
        if not isinstance(coef_text, str):
            raise FormatError(f"term {t}: coefficient must be a string rational")
        coef = parse_rational(coef_text)
        j = i * m + alt
        coeffs[j] = coeffs.get(j, Fraction(0)) + coef
    return {j: c for j, c in coeffs.items() if c != 0}


def load_objective(path: str, m: int) -> dict[int, Fraction]:
    return objective_from_json(read_json(path, "objective file not valid JSON"), m)


def mechanism_assignment(mech: MechanismTable) -> dict[str, Fraction]:
    """The LP point corresponding to a mechanism table, for feasibility
    checks against `generate_sp_constraints`."""
    return {
        f"x[{text}][{alt}]": Fraction(x, mech.denominator)
        for text, row in zip(order_texts(mech.m), mech.rows)
        for alt, x in enumerate(row)
    }


def solution_to_mechanism(solution: LPSolution, m: int) -> MechanismTable:
    """Read the lottery table out of an optimal solution. The normalization
    and nonnegativity rows guarantee the entries really are lotteries."""
    if solution.status != "optimal":
        raise ValueError(f"no mechanism in a {solution.status} solution")
    rows = (
        integer_row([solution.assignment[f"x[{text}][{alt}]"] for alt in range(m)])
        for text in order_texts(m)
    )
    return MechanismTable.from_rows(m, rows, name="lp-design")


def solve_design(
    lp: LinearProgram, m: int, objective: dict[int, Fraction]
) -> tuple[LPSolution, MechanismTable | None]:
    """Solve for an optimal strategyproof mechanism under the objective, on
    the system `generate_sp_constraints` built at size m; sets the system's
    objective."""
    lp.objective = dict(objective)
    solution = solve_lp(lp)
    mech = (
        solution_to_mechanism(solution, m)
        if solution.status == "optimal"
        else None
    )
    return solution, mech
