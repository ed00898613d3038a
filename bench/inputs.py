"""Seeded inputs for the benchmark, built without sepax.

Everything here is a pure function of (m, random.Random): the same seed
gives byte-identical files. Strategyproof (SP) tables are exact convex
mixtures of four SP rules from the program's zoo; the SP constraints are
linear, so every mixture is SP by construction. Perturbed tables move a
little mass inside one entry of such a mixture so that the first profitable
misreport sits at a chosen depth of the canonical pairwise scan.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exact import Table, first_failing_truth, order_text, orders, sp_first_violation

PERTURB_TRIES = 40  # candidate perturbations tried per table
WEIGHT_CAP = 12  # largest integer weight in random tables and objectives


def _uniform(m, order):
    return [Fraction(1, m)] * m


def _top_class(m, order):
    top = order[0]
    return [Fraction(1, len(top)) if a in top else Fraction(0) for a in range(m)]


def _min_top(m, order):
    return [Fraction(int(a == min(order[0]))) for a in range(m)]


def _rank_score(m, order):
    scores = [Fraction(0)] * m
    preceding = 0
    for cls in order:
        for a in cls:
            scores[a] = Fraction(m) - preceding - Fraction(len(cls) - 1, 2)
        preceding += len(cls)
    total = sum(scores)
    return [s / total for s in scores]


def _k_sensitive_boost(m, order):
    if len(order) == 1:
        return [Fraction(1, m)] * m
    k, top = len(order), order[0]
    return [
        Fraction(k, k + 1) / len(top) if a in top else Fraction(1, k + 1) / (m - len(top))
        for a in range(m)
    ]


SP_RULES = {
    "uniform_lottery": _uniform,
    "top_class_uniform": _top_class,
    "min_top_dictator": _min_top,
    "rank_score": _rank_score,
}
ZOO_RULES = dict(SP_RULES, k_sensitive_boost=_k_sensitive_boost)


def zoo_table(name: str, m: int) -> Table:
    rule = ZOO_RULES[name]
    return [tuple(rule(m, order)) for order in orders(m)]


MIX_DENOMINATOR = 12


def sp_mixture(m: int, rng: random.Random) -> Table:
    """Every SP zoo rule with a positive weight; the weights are a seeded
    composition of MIX_DENOMINATOR, which keeps entry denominators (and so
    the cost of the program's Fraction arithmetic) alike across seeds."""
    cuts = sorted(rng.sample(range(1, MIX_DENOMINATOR), len(SP_RULES) - 1))
    weights = [Fraction(b - a, MIX_DENOMINATOR) for a, b in zip([0] + cuts, cuts + [MIX_DENOMINATOR])]
    parts = [zoo_table(name, m) for name in SP_RULES]
    return [
        tuple(sum((w * part[i][a] for w, part in zip(weights, parts)), Fraction(0)) for a in range(m))
        for i in range(len(parts[0]))
    ]


def perturbed(m: int, rng: random.Random, base: Table, depth: float):
    """Move mass inside one entry of an SP table so that the first failing
    truth lands as close as possible to ``depth`` (a share of the orders).
    Returns the table and its first violation (see `sp_first_violation`)."""
    ords = orders(m)
    n = len(ords)
    target = min(n - 1, int(depth * n))
    best = None
    for _ in range(PERTURB_TRIES):
        k = min(n - 1, max(0, target + rng.randint(-2, 2)))
        order = ords[k]
        if len(order) < 2:
            continue
        hi = rng.randrange(len(order) - 1)
        a = rng.choice(order[hi])
        b = rng.choice(order[rng.randrange(hi + 1, len(order))])
        if base[k][a] == 0:
            continue
        eps = base[k][a] / rng.choice((3, 5, 7))
        row = list(base[k])
        row[a] -= eps
        row[b] += eps
        table = list(base)
        table[k] = tuple(row)
        i = first_failing_truth(m, table)
        if i is None:
            continue
        miss = abs(i - target)
        if best is None or miss < best[0]:
            best = (miss, table)
        if miss == 0:
            break
    if best is None:
        raise RuntimeError("no perturbation breaks strategyproofness")
    return best[1], sp_first_violation(m, best[1])


def random_table(m: int, rng: random.Random) -> Table:
    """Per order, integer weights in [0, WEIGHT_CAP] normalized; zeros on purpose."""
    out = []
    for _ in orders(m):
        weights = [rng.randint(0, WEIGHT_CAP) for _ in range(m)]
        if not any(weights):
            weights[rng.randrange(m)] = 1
        total = sum(weights)
        out.append(tuple(Fraction(w, total) for w in weights))
    return out


def priority_dictator(m: int, rng: random.Random) -> Table:
    """Deterministic and SP: the highest-priority member of the reported
    top class, under a seeded priority order."""
    priority = list(range(m))
    rng.shuffle(priority)
    rank = {a: r for r, a in enumerate(priority)}
    return [
        tuple(Fraction(int(a == min(order[0], key=rank.get))) for a in range(m))
        for order in orders(m)
    ]


def random_deterministic(m: int, rng: random.Random) -> Table:
    return [tuple(Fraction(int(a == c)) for a in range(m)) for c in (rng.randrange(m) for _ in orders(m))]


def welfare_objective(m: int) -> dict:
    """Total probability each order gives its own top class."""
    return {
        "sense": "max",
        "terms": [
            {"order": order_text(order), "alt": a, "coef": "1"}
            for order in orders(m)
            for a in order[0]
        ],
    }


def random_objective(m: int, rng: random.Random) -> dict:
    """Integer coefficients in [-WEIGHT_CAP, WEIGHT_CAP] on about a third of the entries."""
    terms = []
    for order in orders(m):
        for a in range(m):
            if rng.randrange(3) == 0:
                coef = rng.randint(-WEIGHT_CAP, WEIGHT_CAP)
                if coef:
                    terms.append({"order": order_text(order), "alt": a, "coef": str(coef)})
    return {"sense": "max", "terms": terms}
