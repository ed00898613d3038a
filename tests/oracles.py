"""Independent reference implementations the tests compare the library
against. Everything here is written from first principles on purpose; do
not import algorithmic helpers from sepax into this module. Mechanism
tables are read only through ``items()``: canonical orders with their
lotteries."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial


def weak_order_count(m: int) -> int:
    """Ordered Bell number via the summation a(n) = sum over j of
    j! * S(n, j), with the Stirling triangle built in place. Deliberately a
    different formula from the library's recurrence."""
    stirling = [[1]]
    for n in range(1, m + 1):
        prev = stirling[-1]
        row = [0] * (n + 1)
        for j in range(1, n + 1):
            row[j] = (j * prev[j] if j < n else 0) + prev[j - 1]
        stirling.append(row)
    return sum(factorial(j) * stirling[m][j] for j in range(m + 1))


def split_count(sizes: list[int]) -> int:
    """Separations available from one order, from its class sizes alone."""
    return sum(2**c - 2 for c in sizes)


def gaussian_solve(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Solve a square exact linear system; None when singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def lp_vertex_oracle(lp) -> tuple[str, Fraction | None]:
    """Brute-force reference for bounded LPs over x >= 0: enumerate every
    n-subset of rows (constraints plus nonnegativity), solve it as an
    equality system, keep the feasible solutions, and maximize the
    objective over them. Valid whenever the feasible set is a polytope:
    with x >= 0 it is pointed, so a feasible bounded program attains its
    optimum at one of these basic points."""
    n = len(lp.variables)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for con in lp.constraints:
        dense = [Fraction(0)] * n
        for j, c in con.coeffs.items():
            dense[j] = c
        rows.append((dense, con.relation, con.rhs))
    for j in range(n):
        dense = [Fraction(0)] * n
        dense[j] = Fraction(1)
        rows.append((dense, ">=", Fraction(0)))

    def feasible(point: list[Fraction]) -> bool:
        for dense, relation, rhs in rows:
            lhs = sum(c * x for c, x in zip(dense, point))
            if relation == "<=" and lhs > rhs:
                return False
            if relation == ">=" and lhs < rhs:
                return False
            if relation == "=" and lhs != rhs:
                return False
        return True

    best: Fraction | None = None
    for subset in combinations(range(len(rows)), n):
        matrix = [rows[i][0] for i in subset]
        rhs = [rows[i][2] for i in subset]
        point = gaussian_solve(matrix, rhs)
        if point is None or not feasible(point):
            continue
        value = sum(
            (c * point[j] for j, c in lp.objective.items()), start=Fraction(0)
        )
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_bounded_lp(rng: random.Random, lp_cls, constraint_budget: int = 12):
    """A random LP whose feasible set is a polytope: random small-integer
    rows plus one simplex-style box row keeping everything bounded. Sized so
    the vertex oracle stays under a few thousand subsets."""
    while True:
        n = rng.choice((2, 2, 3, 3, 3, 4, 4, 5))
        cons = rng.randint(1, constraint_budget - 1)
        if comb(cons + 1 + n, n) <= 2400:
            break
    lp = lp_cls([f"v{j}" for j in range(n)])
    for i in range(cons):
        coeffs = {
            j: Fraction(rng.randint(-4, 4))
            for j in range(n)
            if rng.randrange(3) != 0
        }
        relation = rng.choice(("<=", "<=", ">=", "="))
        lp.add_constraint(f"c{i}", coeffs, relation, Fraction(rng.randint(-6, 6)))
    lp.add_constraint(
        "box", {j: Fraction(1) for j in range(n)}, "<=", Fraction(rng.randint(4, 12))
    )
    lp.objective = {j: Fraction(rng.randint(-5, 5)) for j in range(n)}
    return lp


def _text(classes) -> str:
    return ">".join(",".join(str(alt) for alt in cls) for cls in classes)


def _mass(probs, alts) -> Fraction:
    return sum((probs[alt] for alt in alts), Fraction(0))


def sp_pairwise_oracle(mech) -> dict | None:
    """The definition of strategyproofness, scanned pair by pair in
    canonical (truth, misreport) order with running Fraction sums: the
    first pair where the misreport's lottery puts more probability on some
    upper-contour set of the truth, in the JSON shape of an SP violation,
    or None when every pair passes."""
    entries = [(order.classes, lottery.probs) for order, lottery in mech.items()]
    for truth, truthful in entries:
        for misreport, other in entries:
            if misreport == truth:
                continue
            cum_t = cum_o = Fraction(0)
            for cls in truth:
                cum_t += _mass(truthful, cls)
                cum_o += _mass(other, cls)
                if cum_t < cum_o:
                    return {
                        "truth": _text(truth),
                        "misreport": _text(misreport),
                        "witness_alt": cls[0],
                        "truth_cumulative": str(cum_t),
                        "misreport_cumulative": str(cum_o),
                    }
    return None


def separation_axiom_oracle(mech) -> dict[str, list[dict]]:
    """Every failure of the four separation axioms, straight from their
    definitions with Fraction sums, in the JSON shape of a certificate.
    Separations run by coarse order (canonical), split class, then the
    ascending bitmask of the upper part over the class members."""
    entries = [(order.classes, lottery.probs) for order, lottery in mech.items()]
    lottery_of = dict(entries)
    found: dict[str, list[dict]] = {
        "responsive": [], "direct": [], "upper_invariant": [], "lower_invariant": []
    }
    for coarse, c_probs in entries:
        for pos, cls in enumerate(coarse):
            for mask in range(1, 2 ** len(cls) - 1):
                upper = tuple(a for j, a in enumerate(cls) if mask >> j & 1)
                lower = tuple(a for j, a in enumerate(cls) if not mask >> j & 1)
                fine = coarse[:pos] + (upper, lower) + coarse[pos + 1 :]
                f_probs = lottery_of[fine]

                def cert(axiom, witness, k, lhs, rhs):
                    found[axiom].append({
                        "axiom": axiom, "coarse": _text(coarse), "fine": _text(fine),
                        "kappa": pos + 1, "M1": list(upper), "M2": list(lower),
                        "k": k, "witness": witness, "lhs": str(lhs), "rhs": str(rhs),
                    })

                up = (_mass(c_probs, upper), _mass(f_probs, upper))
                low = (_mass(c_probs, lower), _mass(f_probs, lower))
                if up[1] < up[0]:
                    cert("responsive", "upper_part", pos + 1, *up)
                elif low[1] > low[0]:
                    cert("responsive", "lower_part", pos + 1, *low)
                if any(_mass(c_probs, c) != _mass(f_probs, c) for c in coarse):
                    if up[0] == up[1]:
                        cert("direct", "upper_part", pos + 1, *up)
                    elif low[0] == low[1]:
                        cert("direct", "lower_part", pos + 1, *low)
                for axiom, others in (
                    ("upper_invariant", range(pos)),
                    ("lower_invariant", range(pos + 1, len(coarse))),
                ):
                    for j in others:
                        lhs, rhs = _mass(c_probs, coarse[j]), _mass(f_probs, coarse[j])
                        if lhs != rhs:
                            cert(axiom, "class", j + 1, lhs, rhs)
                            break
    return found
