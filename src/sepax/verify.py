"""Global strategyproofness checks and their agreement with the local axiom
decomposition.

`check_sp_bruteforce` decides the definition itself, over every ordered
pair of orders (truth, misreport): the truthful lottery must stochastically
dominate the misreport's at the truth. Every quantifier is universal, so it
runs as a contour-maximum check on the table's integer view. The
decomposition checks re-derive the same verdict from the separation axioms
alone and report whether the two routes agree; a disagreement would mean a
bug in one of them, never a property of the mechanism. The pairwise scan
itself lives on as the test oracle in ``tests/oracles.py``.

Also here: closed-form constraint counting (how much smaller the separation
scan is than the pairwise scan) and seeded random-population scans used by
the test batteries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .axioms import Certificate, all_separations, check_all_axioms
from .core import Lottery, WeakOrder, enumerate_weak_orders, format_rational
from .mechanisms import (
    MechanismTable,
    random_deterministic_mechanism,
    random_mechanism,
)


class NotDeterministicError(ValueError):
    """A check that only applies to deterministic mechanisms got a
    randomized one."""


@dataclass(frozen=True)
class SPViolation:
    """A profitable misreport: at truth ``truth``, the lottery for
    ``misreport`` is not stochastically dominated by the truthful one. The
    witness is the most preferred class (represented by its smallest member)
    whose upper-contour probability drops below the misreport's."""

    truth: WeakOrder
    misreport: WeakOrder
    witness_alt: int
    truth_cumulative: Fraction
    misreport_cumulative: Fraction

    def to_json(self) -> dict:
        return {
            "truth": self.truth.text,
            "misreport": self.misreport.text,
            "witness_alt": self.witness_alt,
            "truth_cumulative": format_rational(self.truth_cumulative),
            "misreport_cumulative": format_rational(self.misreport_cumulative),
        }


def _dominance_gap(
    truthful: Lottery, other: Lottery, truth: WeakOrder
) -> tuple[int, Fraction, Fraction] | None:
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


def _subset_masses(row: tuple[int, ...]) -> list[int]:
    """Mass of every subset of alternatives, indexed by bitmask (bit a is
    alternative a)."""
    masses = [0]
    for value in row:
        masses += [mass + value for mass in masses]
    return masses


def _contour_masses(order: WeakOrder, row: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Each upper-contour set of ``order`` as a bitmask, with its mass."""
    mask = mass = 0
    for cls in order.classes:
        for alt in cls:
            mask |= 1 << alt
            mass += row[alt]
        yield mask, mass


def check_sp_bruteforce(mech: MechanismTable) -> SPViolation | None:
    """Exact strategyproofness over all ordered (truth, misreport) pairs.
    Returns the first violation in canonical pair order (lexicographic by
    enumeration index), or None.

    Truth i has a profitable misreport iff p_i(S) < best(S) for one of its
    upper-contour sets S, where best(S) is the largest mass any order's
    lottery puts on S. So one best(S) per subset, taken over the integer
    view, settles every truth; only the first failing truth's row is then
    scanned pairwise, to name its first profitable misreport."""
    mech.validate()
    _, rows = mech.integer_view
    best = [0] * (1 << mech.m)
    for row in set(rows):
        best = list(map(max, best, _subset_masses(row)))
    orders = enumerate_weak_orders(mech.m)
    for truth, row in zip(orders, rows):
        if all(mass >= best[mask] for mask, mass in _contour_masses(truth, row)):
            continue
        truthful = mech.lottery(truth)
        # no gap ever shows between the truth and itself, so it needs no skip
        for misreport in orders:
            gap = _dominance_gap(truthful, mech.lottery(misreport), truth)
            if gap is not None:
                return SPViolation(truth, misreport, *gap)
    return None


@dataclass
class EquivalenceReport:
    """One mechanism judged by both routes: the axiom decomposition and the
    brute-force scan. ``agreement`` is the point of the exercise; a False
    there is an internal error, not a fact about the mechanism."""

    statement: str
    mechanism: str
    m: int
    sp_verdict: bool
    axiom_verdicts: dict[str, bool]
    decomposition_verdict: bool
    agreement: bool
    sp_violation: SPViolation | None = None
    certificates: dict[str, Certificate] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "mechanism": self.mechanism,
            "m": self.m,
            "sp_verdict": self.sp_verdict,
            "axiom_verdicts": dict(self.axiom_verdicts),
            "decomposition_verdict": self.decomposition_verdict,
            "agreement": self.agreement,
            "sp_violation": (
                None if self.sp_violation is None else self.sp_violation.to_json()
            ),
            "certificates": {
                axiom: cert.to_json() for axiom, cert in self.certificates.items()
            },
        }


def _equivalence(
    mech: MechanismTable,
    statement: str,
    required: tuple[str, ...],
) -> EquivalenceReport:
    report = check_all_axioms(mech)
    verdicts = report.verdicts
    decomposition = all(verdicts[axiom] for axiom in required)
    violation = check_sp_bruteforce(mech)
    sp = violation is None
    certificates = {
        axiom: certs[0] for axiom, certs in report.certificates.items() if certs
    }
    return EquivalenceReport(
        statement=statement,
        mechanism=mech.name,
        m=mech.m,
        sp_verdict=sp,
        axiom_verdicts=verdicts,
        decomposition_verdict=decomposition,
        agreement=decomposition == sp,
        sp_violation=violation,
        certificates=certificates,
    )


def check_decomposition(mech: MechanismTable) -> EquivalenceReport:
    """Strategyproof iff monotonic + upper invariant + lower invariant."""
    return _equivalence(
        mech, "axioms_vs_sp", ("monotonic", "upper_invariant", "lower_invariant")
    )


def check_relaxed_decomposition(mech: MechanismTable) -> EquivalenceReport:
    """Same equivalence with directness dropped: responsive + the two
    invariance axioms already pin down strategyproofness."""
    return _equivalence(
        mech,
        "relaxed_axioms_vs_sp",
        ("responsive", "upper_invariant", "lower_invariant"),
    )


def check_deterministic_decomposition(mech: MechanismTable) -> EquivalenceReport:
    """For deterministic mechanisms, monotonic alone is equivalent to
    strategyproofness. Raises `NotDeterministicError` on randomized input."""
    if not mech.is_deterministic:
        raise NotDeterministicError(
            f"mechanism {mech.name or '?'} is not deterministic"
        )
    return _equivalence(mech, "monotonic_vs_sp_deterministic", ("monotonic",))


_STATEMENT_CHECKS = {
    "axioms_vs_sp": check_decomposition,
    "relaxed_axioms_vs_sp": check_relaxed_decomposition,
    "monotonic_vs_sp_deterministic": check_deterministic_decomposition,
}


@lru_cache(maxsize=32)
def fubini_number(m: int) -> int:
    """Number of weak orders on m alternatives, by the recurrence
    a(n) = sum over k of C(n, k) * a(n - k), a(0) = 1: choose the top
    class, order the rest."""
    if m < 0:
        raise ValueError("negative size")
    if m == 0:
        return 1
    return sum(math.comb(m, k) * fubini_number(m - k) for k in range(1, m + 1))


def _stirling2_row(m: int) -> list[int]:
    """Stirling set numbers S(m, j) for j = 0..m, by the recurrence
    S(n, j) = j * S(n-1, j) + S(n-1, j-1)."""
    row = [1]
    for n in range(1, m + 1):
        new = [0] * (n + 1)
        for j in range(1, n + 1):
            new[j] = (j * row[j] if j < n else 0) + row[j - 1]
        row = new
    return row


def _separations_total(m: int) -> int:
    """Count separations across all coarse orders without enumerating them.
    Each separation corresponds to one fine order with j >= 2 classes plus a
    choice of which adjacent boundary to merge back, giving
    sum over j of (j - 1) * j! * S(m, j)."""
    row = _stirling2_row(m)
    return sum((j - 1) * math.factorial(j) * row[j] for j in range(2, m + 1))


def _max_split_count(m: int) -> int:
    """Maximize sum of (2^size - 2) over integer partitions of m: the worst
    single order for separation count."""
    best = 0

    def go(remaining: int, max_part: int, acc: int) -> None:
        nonlocal best
        if remaining == 0:
            best = max(best, acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            go(remaining - part, part, acc + (1 << part) - 2)

    go(m, m, 0)
    return best


@dataclass(frozen=True)
class ConstraintCounts:
    """How big the pairwise scan is versus the separation scan at size m."""

    m: int
    orders: int
    ordered_pairs: int
    separations_total: int
    separations_max_per_order: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "orders": self.orders,
            "ordered_pairs": self.ordered_pairs,
            "separations_total": self.separations_total,
            "separations_max_per_order": self.separations_max_per_order,
        }


def count_constraints(m: int) -> ConstraintCounts:
    """Closed-form counts; no enumeration, so large m is fine."""
    if m < 1:
        raise ValueError("need at least one alternative")
    a = fubini_number(m)
    return ConstraintCounts(
        m=m,
        orders=a,
        ordered_pairs=a * (a - 1),
        separations_total=_separations_total(m),
        separations_max_per_order=_max_split_count(m),
    )


@dataclass
class ScanReport:
    """Aggregate of an equivalence statement over a seeded random
    population of mechanisms."""

    statement: str
    m: int
    checked: int
    agreements: int
    sp_count: int
    first_disagreement: str | None = None
    cross_checked: int = 0

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.checked

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "m": self.m,
            "checked": self.checked,
            "agreements": self.agreements,
            "sp_count": self.sp_count,
            "first_disagreement": self.first_disagreement,
            "cross_checked": self.cross_checked,
        }


def scan_random_mechanisms(
    m: int,
    count: int,
    seed: int,
    *,
    statement: str = "axioms_vs_sp",
) -> ScanReport:
    """Run one equivalence statement over ``count`` seeded random tables."""
    check = _STATEMENT_CHECKS[statement]
    rng = random.Random(seed)
    report = ScanReport(statement=statement, m=m, checked=count, agreements=0, sp_count=0)
    for i in range(count):
        mech = random_mechanism(m, rng, name=f"random-{m}-{seed}-{i}")
        result = check(mech)
        if result.agreement:
            report.agreements += 1
        elif report.first_disagreement is None:
            report.first_disagreement = mech.name
        if result.sp_verdict:
            report.sp_count += 1
    return report


# Deterministic fast path. Tables whose lotteries are all point masses are
# reduced to a tuple of chosen alternatives; the axiom and SP conditions
# collapse to set-membership tests on precomputed separation data. The
# generic Fraction route stays authoritative: scans cross-check a prefix of
# every population against it.


@lru_cache(maxsize=4)
def _det_context(m: int):
    orders = enumerate_weak_orders(m)
    index = {order: i for i, order in enumerate(orders)}
    class_ix = tuple(order._class_index for order in orders)
    seps = tuple(
        (
            index[sep.coarse],
            index[sep.fine],
            frozenset(sep.upper_part),
            frozenset(sep.lower_part),
        )
        for sep in all_separations(m)
    )
    return orders, index, class_ix, seps


def _choices(mech: MechanismTable) -> tuple[int, ...]:
    out = []
    for _, lottery in mech.items():
        if not lottery.is_deterministic:
            raise NotDeterministicError(mech.name or "mechanism")
        out.append(lottery.probs.index(Fraction(1)))
    return tuple(out)


def _det_sp(choices: tuple[int, ...], class_ix) -> bool:
    chosen = set(choices)
    for i, ci in enumerate(class_ix):
        own = ci[choices[i]]
        for alt in chosen:
            if ci[alt] < own:
                return False
    return True


def _det_monotonic(choices: tuple[int, ...], class_ix, seps) -> bool:
    for coarse_i, fine_i, upper, lower in seps:
        a = choices[coarse_i]
        b = choices[fine_i]
        if a in upper and b not in upper:
            return False
        if b in lower and a not in lower:
            return False
        if class_ix[coarse_i][a] != class_ix[coarse_i][b]:
            # some coarse class changed probability, so both parts must move
            if (a in upper) == (b in upper) or (a in lower) == (b in lower):
                return False
    return True


def scan_deterministic_decomposition(
    m: int, count: int, seed: int, *, cross_check: int = 0
) -> ScanReport:
    """Monotonic-vs-SP agreement over ``count`` random deterministic tables,
    via the fast integer path. The first ``cross_check`` tables are also run
    through the generic checkers; any mismatch raises RuntimeError."""
    orders, _, class_ix, seps = _det_context(m)
    rng = random.Random(seed)
    report = ScanReport(
        statement="monotonic_vs_sp_deterministic",
        m=m,
        checked=count,
        agreements=0,
        sp_count=0,
        cross_checked=min(cross_check, count),
    )
    for i in range(count):
        choices = tuple(rng.randrange(m) for _ in range(len(orders)))
        sp = _det_sp(choices, class_ix)
        monotonic = _det_monotonic(choices, class_ix, seps)
        if sp == monotonic:
            report.agreements += 1
        elif report.first_disagreement is None:
            report.first_disagreement = f"random-det-{m}-{seed}-{i}"
        if sp:
            report.sp_count += 1
        if i < cross_check:
            table = MechanismTable(
                m,
                {
                    order: Lottery.unit(m, choice)
                    for order, choice in zip(orders, choices)
                },
                name=f"random-det-{m}-{seed}-{i}",
            )
            slow = check_deterministic_decomposition(table)
            if slow.sp_verdict != sp or slow.axiom_verdicts["monotonic"] != monotonic:
                raise RuntimeError(
                    f"fast deterministic path disagrees with the generic "
                    f"checkers on {table.name}"
                )
    return report


def scan_random_deterministic_mechanisms(m: int, count: int, seed: int) -> ScanReport:
    """Like `scan_random_mechanisms` but over deterministic tables, using
    the generic checkers throughout."""
    rng = random.Random(seed)
    report = ScanReport(
        statement="monotonic_vs_sp_deterministic",
        m=m,
        checked=count,
        agreements=0,
        sp_count=0,
    )
    for i in range(count):
        mech = random_deterministic_mechanism(m, rng, name=f"random-det-{m}-{seed}-{i}")
        result = check_deterministic_decomposition(mech)
        if result.agreement:
            report.agreements += 1
        elif report.first_disagreement is None:
            report.first_disagreement = mech.name
        if result.sp_verdict:
            report.sp_count += 1
    return report
