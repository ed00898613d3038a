"""Automated mechanism design: an exact LP over the upper-set function G,
and the optimal strategyproof table read back out of its solution.

The lemma. On weak orders strategyproofness is separation monotonicity
plus upper and lower invariance. Under those axioms the mass a table puts
on an upper set U (a union of an order's top classes) is the same at every
order with that upper set: any two such orders refine "U > rest" through
separations, and every separation keeps the mass of U. Call it G(U), with
G(empty) = 0 and G(A) = 1. The axioms then say exactly that G is monotone
and submodular, and that at each order R and class C with upper set U
above it the class's entries lie in the base polytope of the contraction
S -> G(U + S) - G(U). For strict orders this is Mennle and Seuken's
swap-monotonic, upper- and lower-invariant form.

A linear objective is maximized over a base polytope by its greedy vertex
(Edmonds 1970; Fujishige, *Submodular Functions and Optimization*, 2005):
the marginal vector of G along the class sorted by descending
coefficient. So the design optimum is the maximum of
sum_R c_R . marg(G, sigma_R) over normalized monotone submodular G, where
sigma_R runs through R's classes in order, each sorted that way (ties by
index). That is an LP in the 2^m - 2 values G(U) of the nonempty proper
subsets, with rows, all written ``<=`` so that only the rows whose top set
is A need an artificial:

- cap[a]: G(A - a) <= 1, which with submodularity gives monotonicity;
- sub[{U}+a+b]: G(U + a + b) + G(U) - G(U + a) - G(U + b) <= 0, for each
  pair a < b and each U avoiding both, with G(empty) and G(A) folded into
  the right-hand side.

`solve_design` transfers the objective onto the chains, solves that
program, and lifts G to the table whose row at R is marg(G, sigma_R), in
ints over one common denominator; it reports G itself as the solution.

`generate_sp_constraints` builds the full system over the table entries
x[order][alt], kept for the tests and the benchmark's self-test:

- norm[R]: the lottery at each order sums to one.
- upper[R|R'][kN] and lower[R|R'][kN]: for each separation and each class
  other than the split one, the class keeps its probability exactly.
- resp[R|R']: the upper part of the split must not lose probability. The
  matching lower-part inequality is implied by the equalities plus
  normalization, so it is never emitted; the builder that still emits it
  lives on as a test oracle in ``tests/oracles.py``.

Its feasible points are exactly the strategyproof tables.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm

from .axioms import _separation_layout
from .core import (
    FormatError,
    order_classes,
    order_index,
    order_texts,
    parse_rational,
    read_json,
)
from .lp import LinearProgram, LPSolution, solve_lp
from .mechanisms import MechanismTable
from .verify import _stirling2_row, count_constraints


def variable_names(m: int) -> list[str]:
    """One variable per (order, alternative): x[order][alt], orders in
    canonical enumeration order. Index of (order i, alt a) is i * m + a."""
    return [f"x[{text}][{alt}]" for text in order_texts(m) for alt in range(m)]


def generate_sp_constraints(m: int) -> LinearProgram:
    """The full strategyproofness system over the table entries at size m,
    with an empty objective: the reference `solve_design` is held to."""
    domain = order_classes(m)
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
        for k, cls in enumerate(domain[ci]):
            if k != split:
                family = "upper" if k < split else "lower"
                lp.add_constraint(f"{family}[{tag}][k{k + 1}]", moved(ci, fi, cls), "=", 0)
        lp.add_constraint(f"resp[{tag}]", moved(ci, fi, upper), ">=", 0)
    return lp


def lp_summary(m: int) -> dict:
    """Program sizes at size m, in closed form, with nothing built.

    ``g_variables`` and ``g_rows`` size the upper-set program
    `solve_design` solves: one variable per nonempty proper subset, m cap
    rows and C(m, 2) * 2^(m-2) submodularity rows. The other counts size
    the full system `generate_sp_constraints` builds, against the naive
    pairwise encoding (one dominance row per ordered pair per contour
    set). A fine order with j classes is the fine side of j - 1
    separations, each with one responsiveness row and one invariance row
    per coarse class but the split one, j - 2 in all."""
    counts = count_constraints(m)
    stirling = _stirling2_row(m)
    invariance = sum(
        (j - 1) * (j - 2) * factorial(j) * stirling[j] for j in range(3, m + 1)
    )
    variables = counts.orders * m
    return {
        "m": m,
        "variables": variables,
        "normalizations": counts.orders,
        "invariance_equalities": invariance,
        "responsiveness_inequalities": counts.separations_total,
        "reduced_rows": invariance + counts.separations_total,
        "naive_rows": counts.ordered_pairs * m,
        "g_variables": (1 << m) - 2,
        "g_rows": m + m * (m - 1) // 2 * (1 << m) // 4,
    }


def _subset_text(mask: int, m: int) -> str:
    return ",".join(str(a) for a in range(m) if mask >> a & 1)


def g_program(m: int) -> LinearProgram:
    """The upper-set program at size m with an empty objective. Subsets are
    bitmasks (bit a for alternative a), and G(U) is variable U - 1."""
    full = (1 << m) - 1
    lp = LinearProgram([f"G[{_subset_text(u, m)}]" for u in range(1, full)])
    for a in range(m):
        rest = full ^ 1 << a
        lp.add_constraint(f"cap[{a}]", {rest - 1: 1} if rest else {}, "<=", 1)
    for a in range(m):
        for b in range(a + 1, m):
            pair = 1 << a | 1 << b
            for u in range(full + 1):
                if u & pair:
                    continue
                coeffs = {(u | 1 << a) - 1: -1, (u | 1 << b) - 1: -1}
                if u:
                    coeffs[u - 1] = 1
                rhs = 0
                if u | pair == full:
                    rhs = -1
                else:
                    coeffs[(u | pair) - 1] = 1
                name = f"sub[{{{_subset_text(u, m)}}}+{a}+{b}]"
                lp.add_constraint(name, coeffs, "<=", rhs)
    return lp


def top_class_welfare_objective(m: int) -> dict[int, Fraction]:
    """Maximize the total probability each order assigns to its own top
    class, summed over all orders."""
    coeffs: dict[int, Fraction] = {}
    for i, classes in enumerate(order_classes(m)):
        for alt in classes[0]:
            coeffs[i * m + alt] = Fraction(1)
    return coeffs


def random_objective(m: int, rng: random.Random) -> dict[int, Fraction]:
    """Integer coefficients in [-12, 12], most entries zero."""
    coeffs: dict[int, Fraction] = {}
    total = len(order_classes(m)) * m
    for j in range(total):
        if rng.randrange(3) == 0:
            coeffs[j] = Fraction(rng.randint(-12, 12))
    return coeffs


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
    coeffs: dict[int, Fraction] = {}
    for t, raw in enumerate(terms):
        if not isinstance(raw, dict):
            raise FormatError(f"term {t} must be an object")
        order_text = raw.get("order")
        if not isinstance(order_text, str):
            raise FormatError(f"term {t}: missing order text")
        try:
            i = order_index(order_text, m)
        except FormatError as exc:
            raise FormatError(f"term {t}: {exc}") from None
        alt = raw.get("alt")
        if not isinstance(alt, int) or isinstance(alt, bool) or not 0 <= alt < m:
            raise FormatError(f"term {t}: bad alternative {alt!r}")
        coef_text = raw.get("coef")
        if not isinstance(coef_text, str):
            raise FormatError(f"term {t}: coefficient must be a string rational")
        try:
            coef = parse_rational(coef_text)
        except FormatError as exc:
            raise FormatError(f"term {t}: {exc}") from None
        j = i * m + alt
        coeffs[j] = coeffs.get(j, Fraction(0)) + coef
    return {j: c for j, c in coeffs.items() if c != 0}


def load_objective(path: str, m: int) -> dict[int, Fraction]:
    return objective_from_json(read_json(path, "not valid JSON"), m)


def solve_design(
    m: int, objective: dict[int, Fraction]
) -> tuple[LPSolution, MechanismTable]:
    """Solve for an optimal strategyproof table under an objective over the
    entries x[order][alt] (index order * m + alt): one exact solve of
    `g_program`, lifted to the table. The solution holds the objective's
    value at the table and G itself, by `g_program`'s variable names. The
    program is always feasible (G(U) = |U| / m) and bounded (0 <= G <= 1),
    so a status other than optimal is a solver fault: `RuntimeError`."""
    domain = order_classes(m)
    for j in objective:
        if not 0 <= j < len(domain) * m:
            raise ValueError(f"objective uses unknown variable {j}")
    # the objective in ints, scaled once by the lcm of its denominators
    scale = lcm(*(c.denominator for c in objective.values()))
    ints = {j: c.numerator * (scale // c.denominator) for j, c in objective.items()}
    lp = g_program(m)
    # sum_k c(s_k) (G(P_k) - G(P_k-1)) = sum_k G(P_k) (c(s_k) - c(s_k+1))
    # + c(s_m), with P_k the k-th prefix of the chain s and G(A) = 1
    gain = lp.objective
    chains = []
    constant = 0
    for i, classes in enumerate(domain):
        coef = [ints.get(i * m + a, 0) for a in range(m)]
        sigma = [
            a for cls in classes for a in sorted(cls, key=lambda a: (-coef[a], a))
        ]
        chains.append(sigma)
        prefix = 0
        for a, b in zip(sigma, sigma[1:]):
            prefix |= 1 << a
            if coef[a] != coef[b]:
                gain[prefix - 1] = gain.get(prefix - 1, 0) + coef[a] - coef[b]
        constant += coef[sigma[-1]]
    solution = solve_lp(lp)
    if solution.status != "optimal":
        raise RuntimeError(f"the upper-set program came back {solution.status}")

    # G by bitmask over one common denominator D, G(empty) = 0 and G(A) = D
    values = [solution.assignment[name] for name in lp.variables]
    D = lcm(*(v.denominator for v in values))
    g = [0, *(v.numerator * (D // v.denominator) for v in values), D]
    rows = []
    for sigma in chains:
        row = [0] * m
        prefix = 0
        for a in sigma:
            row[a] = g[prefix | 1 << a] - g[prefix]
            prefix |= 1 << a
        rows.append((D, row))
    value = (solution.objective_value + constant) / scale
    design = LPSolution("optimal", solution.assignment, value)
    return design, MechanismTable(m, rows, name="lp-design")
