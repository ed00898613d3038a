"""Independent reference implementations the tests compare the library
against. Everything here is written from first principles on purpose; do
not import algorithmic helpers from sepax into this module. Mechanism
tables are read only through ``items()``: canonical orders with their
lotteries. The table builders at the end (the `Fraction` zoo rules, the
`Lottery`-dict loader, `integer_row`, `lottery_table` and `perturbed`)
use sepax's value types, parsers and error classes, because what they
pin is how a table is built from those. The design LP builder after them walks sepax's `Separation` objects into its
`LinearProgram`, because what it pins is the row system built from
those; the LP helpers after it read a `LinearProgram`'s rows, a
table's lotteries, a solution's entries, or an objective's coefficients.
`saved_layout_fault` reads a saved mechanism file's lines.
`deterministic_scan_oracle` judges each table through sepax's generic
`check_deterministic_decomposition`, because what it pins is the
deterministic scan's fast path and its batched draws against that route
and one `randrange` per draw. `replace` at the very end copies a sepax
record with some fields changed."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm

from sepax.amd import variable_names
from sepax.axioms import all_separations
from sepax.core import (
    ENUMERATION_MAX_M,
    FormatError,
    Lottery,
    WeakOrder,
    enumerate_weak_orders,
    parse_rational,
)
from sepax.lp import LinearProgram
from sepax.verify import check_deterministic_decomposition
from sepax.mechanisms import (
    DuplicateOrderError,
    InvalidLotteryError,
    MalformedRationalError,
    MechanismFormatError,
    MechanismTable,
    MissingOrderError,
    mechanism_to_json,
)


def weak_order_count(m: int) -> int:
    """Ordered Bell number via the recurrence a(n) = sum over k of
    C(n, k) * a(n - k), a(0) = 1: choose the top class, order the rest.
    Deliberately a different formula from the library's Stirling sum."""
    a = [1]
    binom = [1]
    for n in range(1, m + 1):
        binom = [1] + [x + y for x, y in zip(binom, binom[1:])] + [1]
        a.append(sum(binom[k] * a[n - k] for k in range(1, n + 1)))
    return a[m]


def weak_order_fault_oracle(m, classes) -> str | None:
    """The message a `WeakOrder(m, classes)` must raise `ValueError` with,
    or None if it must accept: the class-by-class check, written out
    member by member. An input the check cannot even inspect raises here
    as it must raise there."""
    if m < 1:
        return "need at least one alternative"
    seen: set = set()
    for cls in classes:
        if not cls:
            return "empty indifference class"
        for i in range(len(cls) - 1):
            if cls[i] >= cls[i + 1]:
                return f"class {cls!r} not sorted strictly ascending"
        if seen & set(cls):
            return f"alternative repeated across classes: {cls!r}"
        seen.update(cls)
    if seen != set(range(m)):
        return f"classes do not partition 0..{m - 1}"
    return None


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


def fraction_simplex_oracle(lp) -> tuple[str, dict[str, Fraction], Fraction | None]:
    """The two-phase simplex on a dense `Fraction` tableau with Bland's
    least-index rule everywhere, as the library ran it before its integer
    tableau: (status, assignment, objective value). Same pivot rule, so on
    every program it must reach the very vertex `solve_lp` reports."""
    n = len(lp.variables)
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for con in lp.constraints:
        dense = [Fraction(0)] * n
        for j, c in con.coeffs.items():
            if not 0 <= j < n:
                raise ValueError(f"constraint {con.name!r} uses unknown variable {j}")
            dense[j] = c
        if con.rhs < 0:
            dense = [-c for c in dense]
            relation = {"<=": ">=", ">=": "<=", "=": "="}[con.relation]
            rows.append((dense, relation, -con.rhs))
        else:
            rows.append((dense, con.relation, con.rhs))

    num_rows = len(rows)
    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    cols = n
    for i, (_, relation, _) in enumerate(rows):
        if relation != "=":
            slack_col[i] = cols
            cols += 1
    for i, (_, relation, _) in enumerate(rows):
        if relation != "<=":
            art_col[i] = cols
            cols += 1

    # tableau rows have cols coefficient entries plus the rhs at the end
    tableau = []
    basis = []
    for i, (dense, relation, rhs) in enumerate(rows):
        row = dense + [Fraction(0)] * (cols - n) + [rhs]
        if relation == "<=":
            row[slack_col[i]] = Fraction(1)
            basis.append(slack_col[i])
        elif relation == ">=":
            row[slack_col[i]] = Fraction(-1)
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        tableau.append(row)

    artificials = set(art_col.values())
    banned: set[int] = set()

    if artificials:
        phase_cost = [Fraction(0)] * cols
        for j in artificials:
            phase_cost[j] = Fraction(-1)
        value = _fraction_run_simplex(tableau, basis, phase_cost, banned, drop_leaving=artificials)
        if value != 0:
            return "infeasible", {}, None
        _fraction_expel_artificials(tableau, basis, artificials)
        banned |= artificials

    cost = [Fraction(0)] * cols
    for j, c in lp.objective.items():
        cost[j] = Fraction(c)
    value = _fraction_run_simplex(tableau, basis, cost, banned, drop_leaving=set())
    if value is None:
        return "unbounded", {}, None

    solution = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[i][-1]
    assignment = {name: solution[j] for j, name in enumerate(lp.variables)}
    return "optimal", assignment, value


def _fraction_run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    banned: set[int],
    drop_leaving: set[int],
) -> Fraction | None:
    """Maximize cost over the current tableau in place. Returns the optimal
    value, or None when unbounded. Columns in ``banned`` never enter;
    columns in ``drop_leaving`` are banned as soon as they leave the basis
    (used to keep phase-one artificials from re-entering)."""
    cols = len(cost)
    # reduced-cost row, maintained incrementally like any other row
    z = list(cost) + [Fraction(0)]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            factor = cost[b]
            row = tableau[i]
            for j in range(cols + 1):
                z[j] -= factor * row[j]

    while True:
        entering = -1
        for j in range(cols):
            if j in banned:
                continue
            if z[j] > 0:
                entering = j
                break
        if entering < 0:
            return -z[-1]

        leaving = -1
        best_ratio: Fraction | None = None
        for i, row in enumerate(tableau):
            if row[entering] <= 0:
                continue
            ratio = row[-1] / row[entering]
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
        if leaving < 0:
            return None

        left = basis[leaving]
        if left in drop_leaving:
            banned.add(left)
        _fraction_pivot(tableau, z, basis, leaving, entering)


def _fraction_pivot(
    tableau: list[list[Fraction]],
    z: list[Fraction],
    basis: list[int],
    i: int,
    j: int,
) -> None:
    pivot_row = tableau[i]
    inv = Fraction(1) / pivot_row[j]
    for k in range(len(pivot_row)):
        pivot_row[k] *= inv
    for row in tableau:
        if row is pivot_row or row[j] == 0:
            continue
        factor = row[j]
        for k in range(len(row)):
            row[k] -= factor * pivot_row[k]
    if z[j] != 0:
        factor = z[j]
        for k in range(len(z)):
            z[k] -= factor * pivot_row[k]
    basis[i] = j


def _fraction_expel_artificials(
    tableau: list[list[Fraction]], basis: list[int], artificials: set[int]
) -> None:
    """After a feasible phase one, pivot every basic artificial (necessarily
    at value zero) onto a structural column, or drop its row as redundant."""
    for i in range(len(basis) - 1, -1, -1):
        if basis[i] not in artificials:
            continue
        row = tableau[i]
        pivot_j = next(
            (
                j
                for j in range(len(row) - 1)
                if j not in artificials and row[j] != 0
            ),
            None,
        )
        if pivot_j is None:
            del tableau[i]
            del basis[i]
            continue
        dummy_z = [Fraction(0)] * len(row)
        _fraction_pivot(tableau, dummy_z, basis, i, pivot_j)


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


def _fraction_dominance_gap(truthful, other, truth):
    """First class (by witness alternative) where dominance of the truthful
    lottery fails, or None if it dominates."""
    cum_t = Fraction(0)
    cum_o = Fraction(0)
    for cls in truth.classes:
        for alt in cls:
            cum_t += truthful.probs[alt]
            cum_o += other.probs[alt]
        if cum_t < cum_o:
            return cls[0], cum_t, cum_o
    return None


def _violation_json(truth, misreport, witness, cum_t, cum_o) -> dict:
    return {
        "truth": truth.text,
        "misreport": misreport.text,
        "witness_alt": witness,
        "truth_cumulative": str(cum_t),
        "misreport_cumulative": str(cum_o),
    }


def local_sp_oracle(mech, pairs) -> dict | None:
    """The local SP scan with running Fraction sums: check both dominance
    directions on each (coarse, fine) pair, truthful at the coarse order
    against reporting fine, and vice versa. The first failure in the JSON
    shape of an SP violation, or None when every pair passes."""
    lottery_of = dict(mech.items())
    for coarse, fine in pairs:
        coarse_lot = lottery_of[coarse]
        fine_lot = lottery_of[fine]
        gap = _fraction_dominance_gap(coarse_lot, fine_lot, coarse)
        if gap is not None:
            return _violation_json(coarse, fine, *gap)
        gap = _fraction_dominance_gap(fine_lot, coarse_lot, fine)
        if gap is not None:
            return _violation_json(fine, coarse, *gap)
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


@lru_cache(maxsize=8)
def upper_set_holders_oracle(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per bitmask S of alternatives (bit a is alternative a), the
    canonical indices of the orders that hold S and of those that weakly
    hold it, straight from the definitions, one (S, order) pair at a time:
    R holds S when S is the union of R's top j classes for some j >= 1;
    R weakly holds S when S is R's top j classes, j >= 0, plus a nonempty
    proper part of class j + 1."""
    holders: list[list[int]] = [[] for _ in range(1 << m)]
    weak: list[list[int]] = [[] for _ in range(1 << m)]
    for S in range(1 << m):
        members = {a for a in range(m) if S >> a & 1}
        for i, order in enumerate(enumerate_weak_orders(m)):
            top: set[int] = set()
            for cls in order.classes:
                part = members - top
                if top <= members and part and part < set(cls):
                    weak[S].append(i)
                top |= set(cls)
                if top == members:
                    holders[S].append(i)
    return tuple(map(tuple, holders)), tuple(map(tuple, weak))


def upper_set_condition_oracle(mech) -> tuple[bool, bool]:
    """The two parts of the upper-set condition, with Fraction sums, over
    every nonempty proper subset S: (a) every holder of S puts one mass
    on S; (b) no weak holder of S puts more mass on S than any holder
    does."""
    probs = [lottery.probs for _, lottery in mech.items()]
    holders, weak = upper_set_holders_oracle(mech.m)
    same = below = True
    for S in range(1, (1 << mech.m) - 1):
        alts = [a for a in range(mech.m) if S >> a & 1]
        held = {_mass(probs[i], alts) for i in holders[S]}
        same = same and len(held) == 1
        below = below and all(_mass(probs[i], alts) <= min(held) for i in weak[S])
    return same, below


def fosd_oracle_utilities(x, y, order) -> bool:
    """Independent route to `fosd`: dominance holds iff for every
    upper-contour set, the 0/1 indicator utility of that set gives ``x`` at
    least the expected value it gives ``y``."""
    if not x.m == y.m == order.m:
        raise ValueError("mixed problem sizes")
    for cls in order.classes:
        contour = order.upper_contour(cls[0])
        indicator = [Fraction(1 if a in contour else 0) for a in range(order.m)]
        expected_x = sum((u * p for u, p in zip(indicator, x.probs)), Fraction(0))
        expected_y = sum((u * p for u, p in zip(indicator, y.probs)), Fraction(0))
        if expected_x < expected_y:
            return False
    return True


# The zoo rules as `Fraction` arithmetic on each order: rule(m, order)
# gives the lottery's probabilities.


def _uniform_rule(m, order):
    return tuple(Fraction(1, m) for _ in range(m))


def _top_class_uniform_rule(m, order):
    top = order.classes[0]
    share = Fraction(1, len(top))
    return tuple(share if a in top else Fraction(0) for a in range(m))


def _min_top_dictator_rule(m, order):
    choice = min(order.classes[0])
    return tuple(Fraction(1 if a == choice else 0) for a in range(m))


def _rank_score_rule(m, order):
    scores = [Fraction(0)] * m
    preceding = 0
    for cls in order.classes:
        score = Fraction(m) - preceding - Fraction(len(cls) - 1, 2)
        for alt in cls:
            scores[alt] = score
        preceding += len(cls)
    total = sum(scores)
    return tuple(s / total for s in scores)


def _k_sensitive_boost_rule(m, order):
    K = order.num_classes
    top = set(order.classes[0])
    if K == 1:
        return _uniform_rule(m, order)
    top_share = Fraction(K, K + 1) / len(top)
    rest_share = Fraction(1, K + 1) / (m - len(top))
    return tuple(top_share if a in top else rest_share for a in range(m))


ZOO_RULE_ORACLES = {
    "uniform_lottery": _uniform_rule,
    "top_class_uniform": _top_class_uniform_rule,
    "min_top_dictator": _min_top_dictator_rule,
    "rank_score": _rank_score_rule,
    "k_sensitive_boost": _k_sensitive_boost_rule,
}


def random_lotteries_oracle(m: int, rng: random.Random, weight_cap: int = 12):
    """`random_mechanism`'s draws as `Fraction` lotteries, one per order in
    canonical order."""
    out = []
    for _ in range(weak_order_count(m)):
        weights = [rng.randint(0, weight_cap) for _ in range(m)]
        if not any(weights):
            weights[rng.randrange(m)] = 1
        total = sum(weights)
        out.append(tuple(Fraction(w, total) for w in weights))
    return out


def random_deterministic_lotteries_oracle(m: int, rng: random.Random):
    """`random_deterministic_mechanism`'s draws as `Fraction` lotteries."""
    out = []
    for _ in range(weak_order_count(m)):
        choice = rng.randrange(m)
        out.append(tuple(Fraction(1 if a == choice else 0) for a in range(m)))
    return out


def lotteries_json_oracle(m: int, lotteries) -> dict:
    """The wire format of a table given as one `Fraction` lottery per order
    in canonical order, each probability printed by `str(Fraction)`."""
    return {
        "m": m,
        "entries": [
            {"order": order.text, "lottery": [str(p) for p in probs]}
            for order, probs in zip(enumerate_weak_orders(m), lotteries)
        ],
    }


def integer_rows_oracle(lotteries) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, rows) of a table given as `Fraction` lotteries in canonical order:
    D the lcm of every denominator, each row the lottery times D."""
    denominator = 1
    for probs in lotteries:
        for p in probs:
            denominator = denominator * p.denominator // gcd(denominator, p.denominator)
    rows = tuple(tuple(int(p * denominator) for p in probs) for probs in lotteries)
    return denominator, rows


def lottery_dict_loader(data: object) -> dict:
    """The mechanism loader over a `WeakOrder -> Lottery` dict of
    `Fraction`s: the same checks in the same order, raising the same error
    classes with the same messages. Returns the dict."""
    if not isinstance(data, dict):
        raise MechanismFormatError("top level must be an object")
    m = data.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= ENUMERATION_MAX_M:
        raise MechanismFormatError(
            f"bad problem size m={m!r}, not in 1..{ENUMERATION_MAX_M}"
        )
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise MechanismFormatError("entries must be a list")
    entries: dict = {}
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise MechanismFormatError(f"entry {i} must be an object")
        order_text = raw.get("order")
        if not isinstance(order_text, str):
            raise MechanismFormatError(f"entry {i}: missing order text")
        try:
            order = WeakOrder.parse(order_text)
        except FormatError as exc:
            raise MechanismFormatError(f"entry {i}: {exc}") from None
        if order.m != m:
            raise MechanismFormatError(
                f"entry {i}: order {order_text!r} is not over 0..{m - 1}"
            )
        if order in entries:
            raise DuplicateOrderError(f"entry {i}: duplicate order {order.text!r}")
        raw_lottery = raw.get("lottery")
        if not isinstance(raw_lottery, list) or len(raw_lottery) != m:
            raise MechanismFormatError(f"entry {i}: lottery must list {m} probabilities")
        probs = []
        for position, token in enumerate(raw_lottery):
            if not isinstance(token, str):
                raise MalformedRationalError(
                    f"entry {i} position {position}: probabilities are strings"
                )
            try:
                probs.append(parse_rational(token))
            except FormatError:
                raise MalformedRationalError(
                    f"entry {i} position {position}: malformed rational {token!r}"
                ) from None
        try:
            entries[order] = Lottery(m, tuple(probs))
        except ValueError as exc:
            raise InvalidLotteryError(f"entry {i} (order {order.text!r}): {exc}") from None
    for order in enumerate_weak_orders(m):
        if order not in entries:
            raise MissingOrderError(f"no lottery for order {order.text!r}")
    return entries


def integer_row(probs) -> tuple[int, tuple[int, ...]]:
    """Rationals as ``(den, ints)`` over the lcm of their denominators: the
    pair `MechanismTable` takes for one order."""
    den = lcm(*(p.denominator for p in probs))
    return den, tuple(p.numerator * (den // p.denominator) for p in probs)


def lottery_table(m: int, lotteries: dict, name: str = "") -> MechanismTable:
    """The table of a `WeakOrder -> Lottery` dict over size m, its rows
    made by `integer_row`; an order the dict misses is a missing row, and
    orders over another size are ignored."""
    rows = (
        integer_row(lotteries[order].probs) if order in lotteries else None
        for order in enumerate_weak_orders(m)
    )
    return MechanismTable(m, rows, name=name)


def perturbed(mech: MechanismTable, rng: random.Random) -> MechanismTable:
    """Move a share of one entry's mass from a preferred alternative to a
    less preferred one, at a seeded order deep in the canonical scan."""
    entries = dict(mech.items())
    orders = [order for order in entries if order.num_classes > 1]
    order = rng.choice(orders[len(orders) // 2 :])
    high = rng.choice([a for a in order.classes[0] if entries[order].probs[a]])
    low = rng.choice(order.classes[-1])
    probs = list(entries[order].probs)
    eps = probs[high] / rng.choice((3, 5, 7))
    probs[high] -= eps
    probs[low] += eps
    entries[order] = Lottery(mech.m, tuple(probs))
    return lottery_table(mech.m, entries, name=f"perturbed-{mech.name}")


def lottery_dict_load_file(path) -> dict:
    """`lottery_dict_loader` on a JSON file, with the file-level error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MechanismFormatError(f"not valid JSON: {exc}") from None
    return lottery_dict_loader(data)


def sp_constraints_oracle(m: int, *, lowered: bool = False) -> LinearProgram:
    """The design LP built through `WeakOrder` separations: norm rows, then
    per separation its invariance equalities and its responsiveness row.
    With ``lowered``, each responsiveness row is followed by the redundant
    lower-part inequality drop[R|R'], which the library never emits."""
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
        if lowered:
            coeffs = {}
            for alt in sep.lower_part:
                coeffs[var(fi, alt)] = Fraction(1)
                coeffs[var(ci, alt)] = Fraction(-1)
            lp.add_constraint(f"drop[{tag}]", coeffs, "<=", 0)
    return lp


def lp_violations(lp: LinearProgram, assignment: dict[str, Fraction]) -> list[str]:
    """Names of everything the assignment violates in ``lp``: each variable
    it leaves out (``missing:``) or sets negative (``negative:``), then each
    constraint row, evaluated as an exact sum."""
    bad = []
    values = []
    for name in lp.variables:
        value = Fraction(assignment.get(name, 0))
        if name not in assignment:
            bad.append(f"missing:{name}")
        elif value < 0:
            bad.append(f"negative:{name}")
        values.append(value)
    for con in lp.constraints:
        lhs = sum((c * values[j] for j, c in con.coeffs.items()), Fraction(0))
        holds = {"<=": lhs <= con.rhs, ">=": lhs >= con.rhs, "=": lhs == con.rhs}
        if not holds[con.relation]:
            bad.append(con.name)
    return bad


def mechanism_assignment(mech) -> dict[str, Fraction]:
    """The design LP's point for a mechanism table: x[order][alt] is the
    order's probability of the alternative."""
    return {
        f"x[{order.text}][{alt}]": p
        for order, lottery in mech.items()
        for alt, p in enumerate(lottery.probs)
    }


def solution_to_mechanism(solution, m: int) -> MechanismTable:
    """The table that a full-system solution's x[order][alt] values spell
    out; the normalization and nonnegativity rows make each order's values
    a lottery."""
    if solution.status != "optimal":
        raise ValueError(f"no mechanism in a {solution.status} solution")
    rows = (
        integer_row([solution.assignment[f"x[{order.text}][{alt}]"] for alt in range(m)])
        for order in enumerate_weak_orders(m)
    )
    return MechanismTable(m, rows, name="lp-design")


def objective_to_json(m: int, coeffs: dict[int, Fraction]) -> dict:
    """An objective in the objective-file format, one term per nonzero
    coefficient by variable index (order index * m + alt)."""
    texts = [order.text for order in enumerate_weak_orders(m)]
    return {
        "sense": "max",
        "terms": [
            {"order": texts[j // m], "alt": j % m, "coef": str(Fraction(c))}
            for j, c in sorted(coeffs.items())
            if c != 0
        ],
    }


def json_dumps_file_text(mech: MechanismTable) -> str:
    """The text `save_mechanism` writes, made through the `json` module:
    each entry of the wire format through ``json.dumps``, one per line,
    between an opening and a closing line."""
    data = mechanism_to_json(mech)
    entries = ",\n".join(map(json.dumps, data["entries"]))
    return f'{{"m": {data["m"]}, "entries": [\n{entries}\n]}}\n'


def saved_layout_fault(path, wire: dict) -> str | None:
    """What is wrong with a saved mechanism file, or None: it must hold one
    entry per line between an opening and a closing line, end in a
    newline, and parse to exactly ``wire``, the table's wire format."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        return "no final newline"
    lines = text.splitlines()
    if len(lines) != len(wire["entries"]) + 2:
        return f"{len(lines)} lines for {len(wire['entries'])} entries"
    if [json.loads(line.rstrip(",")) for line in lines[1:-1]] != wire["entries"]:
        return "a line is not its entry"
    if json.loads(text) != wire:
        return "the file does not parse to the wire format"
    return None


def deterministic_scan_oracle(m: int, count: int, seed: int) -> dict:
    """`scan_deterministic_decomposition`'s counts the slow way: per table,
    one ``rng.randrange(m)`` per order, in canonical order, picks the
    alternative of a point mass, and `check_deterministic_decomposition`
    judges the table."""
    rng = random.Random(seed)
    counts = {"checked": count, "agreements": 0, "sp_count": 0, "first_disagreement": None}
    for i in range(count):
        choices = [rng.randrange(m) for _ in range(weak_order_count(m))]
        rows = [(1, tuple(int(a == choice) for a in range(m))) for choice in choices]
        report = check_deterministic_decomposition(
            MechanismTable(m, rows, name=f"random-det-{m}-{seed}-{i}")
        )
        if report.agreement:
            counts["agreements"] += 1
        elif counts["first_disagreement"] is None:
            counts["first_disagreement"] = report.mechanism
        counts["sp_count"] += report.sp_verdict
    return counts


def replace(record, **changes):
    """A copy of a sepax record with the named fields changed, built
    through its constructor, so its checks run again; an unknown field name
    raises `TypeError`. A record's fields are its class's own
    ``__slots__``, bar ``__dict__``."""
    cls = type(record)
    fields = [f for f in cls.__slots__ if f != "__dict__"]
    unknown = sorted(set(changes) - set(fields))
    if unknown:
        raise TypeError(f"{cls.__name__} has no fields {unknown}")
    return cls(**{f: changes.get(f, getattr(record, f)) for f in fields})
