"""Exact-rational linear programs and a two-phase primal simplex.

Conventions: every variable is implicitly nonnegative, the objective is
always maximized, and all coefficients are `fractions.Fraction`; optima
are exact, never approximate.

`solve_lp` pivots an integer tableau. Each row is scaled to integers once,
and its slack or artificial gets coefficient +-1, so the start basis is the
identity. Pivots are fraction-free (Edmonds and Bareiss integer-preserving
elimination, as in Avis's lrs): the tableau is ints over one common
denominator, the basis determinant, and every division by it is exact and
checked. Pivoting uses Bland's smallest-index rule throughout, so
degenerate programs cannot cycle. Its sign tests and ratio comparisons do
not see positive row or column scaling, so the solver takes the same
pivots, and returns the same vertex, as a dense `Fraction` tableau would;
the tests hold it to exactly that against such a tableau.

Text export is one constraint per line::

    # sense: max; all variables >= 0
    max: 1 x[0>1][0] + 1 x[1>0][1]
    norm[0>1]: 1 x[0>1][0] + 1 x[0>1][1] = 1
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .core import Record, format_rational, json_value

RELATIONS = ("<=", "=", ">=")


class Constraint(Record):
    """``sum(coeffs[j] * x_j) relation rhs``; coefficients keyed by variable
    index, zero coefficients omitted."""

    __slots__ = ("name", "coeffs", "relation", "rhs")

    def __init__(
        self, name: str, coeffs: dict[int, Fraction], relation: str, rhs: Fraction
    ) -> None:
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        coeffs = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
        super().__init__(name, coeffs, relation, Fraction(rhs))


class LinearProgram(Record):
    """A named-variable LP; `solve_lp` maximizes the objective subject to
    the constraints and implicit nonnegativity."""

    __slots__ = ("variables", "constraints", "objective")
    _defaults = {"constraints": list, "objective": dict}

    def add_constraint(
        self, name: str, coeffs: dict[int, Fraction], relation: str, rhs: Fraction | int
    ) -> None:
        self.constraints.append(Constraint(name, coeffs, relation, Fraction(rhs)))

    def to_text(self) -> str:
        lines = ["# sense: max; all variables >= 0"]
        lines.append("max: " + self._linear_text(self.objective))
        for con in self.constraints:
            lines.append(
                f"{con.name}: {self._linear_text(con.coeffs)} {con.relation} "
                f"{format_rational(con.rhs)}"
            )
        return "\n".join(lines) + "\n"

    def _linear_text(self, coeffs: dict[int, Fraction]) -> str:
        if not coeffs:
            return "0"
        terms = []
        for j in sorted(coeffs):
            coef = coeffs[j]
            sign = "- " if coef < 0 else ("+ " if terms else "")
            terms.append(f"{sign}{format_rational(abs(coef))} {self.variables[j]}")
        return " ".join(terms)


class LPSolution(Record):
    """``status`` is optimal, infeasible or unbounded."""

    __slots__ = ("status", "assignment", "objective_value")
    _defaults = {"assignment": dict, "objective_value": None}

    def to_json(self) -> dict:
        # the value before the assignment, which is sorted by name
        return {
            "status": json_value(self.status),
            "objective_value": json_value(self.objective_value),
            "assignment": json_value(dict(sorted(self.assignment.items()))),
        }


class InexactDivisionError(ArithmeticError):
    """A fraction-free pivot met a division with a nonzero remainder. The
    tableau's common denominator no longer matches its basis, so nothing
    computed from it can be trusted; this is a solver fault, never a
    property of the program."""


_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex on the integer standard-form tableau. Exact, and
    immune to cycling via Bland's rule. Raises `InexactDivisionError`, a
    solver fault, rather than return a value from an inexact pivot."""
    n = len(lp.variables)
    # each row scaled once to integers, after flipping a negative rhs
    rows: list[tuple[list[int], str, int, int]] = []
    for con in lp.constraints:
        sign = -1 if con.rhs < 0 else 1
        scale = lcm(con.rhs.denominator, *(c.denominator for c in con.coeffs.values()))
        dense = [0] * n
        for j, c in con.coeffs.items():
            if not 0 <= j < n:
                raise ValueError(f"constraint {con.name!r} uses unknown variable {j}")
            dense[j] = sign * c.numerator * (scale // c.denominator)
        rhs = sign * con.rhs.numerator * (scale // con.rhs.denominator)
        relation = _FLIPPED[con.relation] if sign < 0 else con.relation
        rows.append((dense, relation, rhs, scale))

    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    cols = n
    for i, (_, relation, _, _) in enumerate(rows):
        if relation != "=":
            slack_col[i] = cols
            cols += 1
    for i, (_, relation, _, _) in enumerate(rows):
        if relation != "<=":
            art_col[i] = cols
            cols += 1

    # Slack and artificial coefficients are +-1 rather than +-scale: a
    # positive rescaling of their own columns, so the start basis is the
    # identity and the common denominator starts at 1.
    tableau = []
    basis = []
    for i, (dense, relation, rhs, _) in enumerate(rows):
        row = dense + [0] * (cols - n) + [rhs]
        if relation == "<=":
            row[slack_col[i]] = 1
            basis.append(slack_col[i])
        elif relation == ">=":
            row[slack_col[i]] = -1
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            row[art_col[i]] = 1
            basis.append(art_col[i])
        tableau.append(row)
    tab = _Tableau(tableau, basis)

    artificials = set(art_col.values())
    banned: set[int] = set()

    if artificials:
        # Artificial j of a row scaled by s stands for s times the original
        # artificial, so minimizing their sum costs weight / s per unit,
        # with weight the lcm of those scales to keep the costs integral.
        weight = lcm(*(rows[i][3] for i in art_col))
        phase_cost = [0] * cols
        for i, j in art_col.items():
            phase_cost[j] = -(weight // rows[i][3])
        if tab.maximize(phase_cost, banned, drop_leaving=artificials) != 0:
            return LPSolution(status="infeasible")
        tab.expel(artificials)
        banned |= artificials

    objective = {j: Fraction(c) for j, c in lp.objective.items()}
    cost_scale = lcm(*(c.denominator for c in objective.values()))
    cost = [0] * cols
    for j, c in objective.items():
        if not 0 <= j < n:
            raise ValueError(f"objective uses unknown variable {j}")
        cost[j] = c.numerator * (cost_scale // c.denominator)
    value = tab.maximize(cost, banned, drop_leaving=set())
    if value is None:
        return LPSolution(status="unbounded")

    solution = [Fraction(0)] * n
    for row, b in zip(tab.rows, tab.basis):
        if b < n:
            solution[b] = Fraction(row[-1], tab.det)
    assignment = {name: solution[j] for j, name in enumerate(lp.variables)}
    return LPSolution(
        status="optimal",
        assignment=assignment,
        objective_value=Fraction(value, tab.det * cost_scale),
    )


class _Tableau:
    """A fraction-free simplex tableau (Edmonds and Bareiss integer-preserving
    elimination, as in Avis's lrs). Rows are ints over one common
    denominator ``det``, the absolute determinant of the current basis in
    the row-scaled system: the true tableau is ``rows / det``, and each
    basic column holds ``det`` in its own row and 0 elsewhere. Each row ends
    with its right-hand side."""

    def __init__(self, rows: list[list[int]], basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis
        self.det = 1

    def maximize(
        self, cost: list[int], banned: set[int], drop_leaving: set[int]
    ) -> int | None:
        """Maximize cost over the current tableau in place. Returns the
        optimal value times ``det`` (read ``det`` afterwards), or None when
        unbounded. Columns in ``banned`` never enter; columns in
        ``drop_leaving`` are banned as soon as they leave the basis (used
        to keep phase-one artificials from re-entering)."""
        rows, basis = self.rows, self.basis
        cols = len(cost)
        # reduced-cost row det * (cost - c_B B^-1 A), pivoted like any other
        z = [self.det * c for c in cost] + [0]
        for row, b in zip(rows, basis):
            if cost[b]:
                factor = cost[b]
                z = [a - factor * v for a, v in zip(z, row)]
        rows.append(z)
        try:
            while True:
                z = rows[-1]
                entering = next(
                    (j for j in range(cols) if z[j] > 0 and j not in banned), -1
                )
                if entering < 0:
                    return -z[-1]

                # least ratio rhs / entry, compared as cross-products
                leaving = -1
                for i in range(len(basis)):
                    row = rows[i]
                    entry = row[entering]
                    if entry <= 0:
                        continue
                    if leaving >= 0:
                        lhs = row[-1] * best_entry
                        rhs = best_rhs * entry
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                            continue
                    leaving, best_rhs, best_entry = i, row[-1], entry
                if leaving < 0:
                    return None

                left = basis[leaving]
                if left in drop_leaving:
                    banned.add(left)
                self.pivot(leaving, entering)
        finally:
            rows.pop()

    def pivot(self, i: int, j: int) -> None:
        """Bring column j into the basis at row i. A row with no entry in
        column j is rescaled as ``row * p / det``; any other row is also
        updated at the nonzero columns of the pivot row. Every division is
        exact, and checked."""
        rows, det = self.rows, self.det
        prow = rows[i]
        p = prow[j]
        if p < 0:
            # keep det positive; the true pivot row prow / p is unchanged
            p = -p
            prow = rows[i] = [-v for v in prow]
        support = [(k, v) for k, v in enumerate(prow) if v]
        g = gcd(p, det)
        up, down = p // g, det // g
        for r, row in enumerate(rows):
            if r == i:
                continue
            f = row[j]
            if not f:
                rows[r] = _rescale(row, up, down)
                continue
            moved = [(k, p * row[k] - f * v) for k, v in support]
            for k, _ in moved:
                row[k] = 0
            row = _rescale(row, up, down)
            for k, v in moved:
                q, rem = divmod(v, det)
                if rem:
                    raise InexactDivisionError(f"{v} is not a multiple of {det}")
                row[k] = q
            rows[r] = row
        self.basis[i] = j
        self.det = p

    def expel(self, artificials: set[int]) -> None:
        """After a feasible phase one, pivot every basic artificial
        (necessarily at value zero) onto a structural column, or drop its
        row as redundant. Dropping keeps ``det``: the artificial's column
        is a unit column of the row-scaled system."""
        rows, basis = self.rows, self.basis
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] not in artificials:
                continue
            row = rows[i]
            pivot_j = next(
                (
                    j
                    for j in range(len(row) - 1)
                    if j not in artificials and row[j] != 0
                ),
                None,
            )
            if pivot_j is None:
                del rows[i]
                del basis[i]
                continue
            self.pivot(i, pivot_j)


def _rescale(row: list[int], up: int, down: int) -> list[int]:
    """``row * up / down`` for a row all of whose entries ``down`` divides;
    raises `InexactDivisionError` otherwise."""
    if down != 1:
        if gcd(*row) % down:
            raise InexactDivisionError(f"row is not a multiple of {down}")
        return [v // down * up for v in row]
    if up != 1:
        return [v * up for v in row]
    return row
