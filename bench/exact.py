"""Exact reference arithmetic for the benchmark, written apart from sepax.

The benchmark checks the program's reports with this module, never with the
library's own verdict functions. Everything is exact: lotteries are parsed
into `Fraction`, and the heavy scans scale one table to integers over its
common denominator, which is still exact.

Weak orders are tuples of classes (each a sorted tuple of alternatives),
most preferred class first. Canonical enumeration order follows the
published definition: the first class runs through the non-empty subsets of
the remaining alternatives in ascending bitmask order, and the rest is
ordered the same way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

Order = tuple[tuple[int, ...], ...]


def _ordered_partitions(items: tuple[int, ...]):
    n = len(items)
    if n == 0:
        yield ()
        return
    for mask in range(1, 1 << n):
        first = tuple(items[j] for j in range(n) if mask >> j & 1)
        rest = tuple(items[j] for j in range(n) if not mask >> j & 1)
        for tail in _ordered_partitions(rest):
            yield (first,) + tail


@lru_cache(maxsize=None)
def orders(m: int) -> tuple[Order, ...]:
    return tuple(_ordered_partitions(tuple(range(m))))


@lru_cache(maxsize=None)
def order_index(m: int) -> dict[Order, int]:
    return {order: i for i, order in enumerate(orders(m))}


def order_text(order: Order) -> str:
    return ">".join(",".join(str(a) for a in cls) for cls in order)


def parse_order(text: str) -> Order:
    return tuple(tuple(sorted(int(a) for a in cls.split(","))) for cls in text.split(">"))


@lru_cache(maxsize=None)
def separations(m: int) -> tuple[tuple[int, int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """(coarse index, fine index, kappa, upper part, lower part) for every
    separation, by coarse order, then class position, then ascending bitmask
    of the upper part over the class members."""
    index = order_index(m)
    out = []
    for ci, coarse in enumerate(orders(m)):
        for k, cls in enumerate(coarse):
            c = len(cls)
            for mask in range(1, (1 << c) - 1):
                upper = tuple(cls[j] for j in range(c) if mask >> j & 1)
                lower = tuple(cls[j] for j in range(c) if not mask >> j & 1)
                fine = coarse[:k] + (upper, lower) + coarse[k + 1 :]
                out.append((ci, index[fine], k + 1, upper, lower))
    return tuple(out)


@lru_cache(maxsize=None)
def separation_index(m: int) -> dict[tuple[int, int], int]:
    return {(s[0], s[1]): i for i, s in enumerate(separations(m))}


Table = list[tuple[Fraction, ...]]


def table_json(m: int, table: Table) -> dict:
    return {
        "m": m,
        "entries": [
            {"order": order_text(order), "lottery": [str(p) for p in lottery]}
            for order, lottery in zip(orders(m), table)
        ],
    }


class CheckFailed(Exception):
    """A report or output file disagrees with the exact reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_table(data: dict) -> tuple[int, Table]:
    """Parse the mechanism wire format; every order exactly once, every
    lottery non-negative and summing to one."""
    m = data["m"]
    index = order_index(m)
    table: list = [None] * len(index)
    for entry in data["entries"]:
        i = index.get(parse_order(entry["order"]))
        require(i is not None and table[i] is None, f"bad or repeated order {entry['order']!r}")
        lottery = tuple(Fraction(p) for p in entry["lottery"])
        require(len(lottery) == m and min(lottery) >= 0 and sum(lottery) == 1,
                f"order {entry['order']!r} is not a lottery")
        table[i] = lottery
    require(all(row is not None for row in table), "table misses an order")
    return m, table


def mass(lottery, alts) -> Fraction:
    return sum((lottery[a] for a in alts), Fraction(0))


def _scaled(table: Table) -> tuple[int, list[list[int]]]:
    denominator = lcm(*(p.denominator for row in table for p in row))
    return denominator, [[p.numerator * (denominator // p.denominator) for p in row] for row in table]


def _subset_best(m: int, ints: list[list[int]]) -> list[int]:
    """max over orders of the integer mass of every subset of alternatives."""
    full = 1 << m
    best = [0] * full
    for row in ints:
        sums = [0] * full
        for s in range(1, full):
            low = s & -s
            sums[s] = sums[s ^ low] + row[low.bit_length() - 1]
            if sums[s] > best[s]:
                best[s] = sums[s]
    return best


def first_failing_truth(m: int, table: Table) -> int | None:
    """Index of the first truth order at which some misreport is not
    stochastically dominated, or None when the table is SP. A truth fails
    iff one of its upper-contour sets gets less mass than the largest mass
    any order gives that set."""
    _, ints = _scaled(table)
    best = _subset_best(m, ints)
    for i, order in enumerate(orders(m)):
        row = ints[i]
        s = cum = 0
        for cls in order:
            for a in cls:
                s |= 1 << a
                cum += row[a]
            if cum < best[s]:
                return i
    return None


def dominance_gap(truthful, other, truth: Order):
    """First class of ``truth`` whose upper contour ``other`` outweighs
    ``truthful``: (witness alternative, truthful mass, other mass) or None."""
    cum_t = cum_o = Fraction(0)
    for cls in truth:
        cum_t += mass(truthful, cls)
        cum_o += mass(other, cls)
        if cum_t < cum_o:
            return cls[0], cum_t, cum_o
    return None


def sp_first_violation(m: int, table: Table) -> dict | None:
    """The first profitable misreport in canonical (truth, misreport) order,
    with the number of ordered pairs a pairwise scan visits to reach it."""
    i = first_failing_truth(m, table)
    if i is None:
        return None
    ords = orders(m)
    for j, misreport in enumerate(ords):
        if j == i:
            continue
        gap = dominance_gap(table[i], table[j], ords[i])
        if gap is not None:
            n = len(ords)
            return {
                "truth": order_text(ords[i]),
                "misreport": order_text(misreport),
                "witness_alt": gap[0],
                "truth_cumulative": str(gap[1]),
                "misreport_cumulative": str(gap[2]),
                "pairs_scanned": i * (n - 1) + (j if j < i else j - 1) + 1,
            }
    raise AssertionError("a failing truth has no failing misreport")


def check_sp_violation(table: Table, m: int, violation: dict) -> None:
    """Re-verify a reported profitable misreport: the stated cumulative
    masses are exact and the misreport is not dominated at the stated
    truth."""
    index = order_index(m)
    truth = parse_order(violation["truth"])
    misreport = parse_order(violation["misreport"])
    require(truth in index and misreport in index and truth != misreport, "bad violation orders")
    gap = dominance_gap(table[index[truth]], table[index[misreport]], truth)
    require(gap is not None, f"misreport {violation['misreport']} is dominated at {violation['truth']}")
    require(
        (gap[0], gap[1], gap[2]) == (
            violation["witness_alt"],
            Fraction(violation["truth_cumulative"]),
            Fraction(violation["misreport_cumulative"]),
        ),
        "violation witness or cumulative masses are wrong",
    )


def refines(coarse: Order, fine: Order) -> bool:
    """``fine`` splits each class of ``coarse`` in place."""
    i = 0
    for cls in coarse:
        covered: set[int] = set()
        while covered != set(cls):
            if i >= len(fine) or not set(fine[i]) <= set(cls) - covered:
                return False
            covered |= set(fine[i])
            i += 1
    return i == len(fine)


AXIOMS = ("responsive", "direct", "upper_invariant", "lower_invariant")


def check_certificate(table: Table, m: int, cert: dict) -> int:
    """Recompute a certificate's lhs and rhs from the table and confirm the
    violation it claims. Returns the separation's canonical index."""
    index = order_index(m)
    coarse, fine = parse_order(cert["coarse"]), parse_order(cert["fine"])
    sep_i = separation_index(m).get((index.get(coarse), index.get(fine)))
    require(sep_i is not None, f"{cert['coarse']} | {cert['fine']} is not a separation")
    _, _, kappa, upper, lower = separations(m)[sep_i]
    require((cert["kappa"], tuple(cert["M1"]), tuple(cert["M2"])) == (kappa, upper, lower),
            "certificate misnames its separation")
    coarse_lot, fine_lot = table[index[coarse]], table[index[fine]]
    witness = {"upper_part": upper, "lower_part": lower}.get(cert["witness"])
    if cert["witness"] == "class":
        require(1 <= cert["k"] <= len(coarse), "certificate names no class of its coarse order")
        witness = coarse[cert["k"] - 1]
    require(witness is not None, "unknown witness")
    lhs, rhs = mass(coarse_lot, witness), mass(fine_lot, witness)
    require((lhs, rhs) == (Fraction(cert["lhs"]), Fraction(cert["rhs"])),
            f"{cert['axiom']} certificate lhs/rhs do not match the table")
    axiom = cert["axiom"]
    if axiom == "responsive":
        ok = (cert["witness"] == "upper_part" and rhs < lhs) or (
            cert["witness"] == "lower_part" and rhs > lhs)
    elif axiom == "direct":
        triggered = any(mass(coarse_lot, c) != mass(fine_lot, c) for c in coarse)
        ok = triggered and lhs == rhs and cert["witness"] != "class"
    elif axiom == "upper_invariant":
        ok = cert["witness"] == "class" and cert["k"] < kappa and lhs != rhs
    else:
        ok = axiom == "lower_invariant" and cert["witness"] == "class" and cert["k"] > kappa and lhs != rhs
    require(ok, f"{axiom} certificate does not show a violation")
    return sep_i


def check_axiom_verdicts(table: Table, m: int, verdicts: dict, certificates: dict, sp: bool) -> int:
    """Check an axiom report against the table: every certificate, the
    verdict each certificate implies, and both decompositions of
    strategyproofness. Returns how many separations a serial scan visits
    before every axiom has its first violation."""
    require(verdicts["monotonic"] == (verdicts["responsive"] and verdicts["direct"]), "monotonic verdict")
    require((verdicts["monotonic"] and verdicts["upper_invariant"] and verdicts["lower_invariant"]) == sp,
            "axiom decomposition disagrees with strategyproofness")
    require((verdicts["responsive"] and verdicts["upper_invariant"] and verdicts["lower_invariant"]) == sp,
            "relaxed decomposition disagrees with strategyproofness")
    first = []
    for axiom in AXIOMS:
        certs = certificates.get(axiom) or []
        if isinstance(certs, dict):
            certs = [certs]
        require(verdicts[axiom] == (not certs), f"{axiom} verdict and certificates disagree")
        if certs:
            first.append(min(check_certificate(table, m, cert) for cert in certs))
    return max(first) + 1 if len(first) == len(AXIOMS) else len(separations(m))


def sp_rows(m: int, table: Table):
    """The reduced LP rows for a table: (name, lhs, relation) with lhs the
    exact row value at the table; normalization, the invariance equalities
    and the upper-part responsiveness inequality per separation."""
    ords = orders(m)
    for i, order in enumerate(ords):
        yield f"norm[{i}]", sum(table[i]), "=1"
    for s, (ci, fi, kappa, upper, _lower) in enumerate(separations(m)):
        for k, cls in enumerate(ords[ci], start=1):
            if k != kappa:
                yield f"inv[{s}][{k}]", mass(table[fi], cls) - mass(table[ci], cls), "=0"
        yield f"resp[{s}]", mass(table[fi], upper) - mass(table[ci], upper), ">=0"


def unsatisfied_rows(m: int, table: Table) -> list[str]:
    bad = []
    for name, value, relation in sp_rows(m, table):
        ok = value == 1 if relation == "=1" else value == 0 if relation == "=0" else value >= 0
        if not ok:
            bad.append(name)
    return bad


def lp_size(m: int) -> tuple[int, int]:
    """(rows, columns) of one build of the reduced LP at size m, without the
    optional lowered inequalities."""
    ords = orders(m)
    rows = len(ords) + sum(len(ords[ci]) for ci, *_ in separations(m))
    return rows, len(ords) * m


def objective_value(m: int, table: Table, objective: dict) -> Fraction:
    index = order_index(m)
    return sum(
        (Fraction(t["coef"]) * table[index[parse_order(t["order"])]][t["alt"]] for t in objective["terms"]),
        Fraction(0),
    )
