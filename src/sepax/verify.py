"""Global strategyproofness checks and their agreement with the local axiom
decomposition.

`check_sp_bruteforce` decides the definition itself, over every ordered
pair of orders (truth, misreport): the truthful lottery must stochastically
dominate the misreport's at the truth. Every quantifier is universal, so it
runs as a contour-maximum check on the table's integer rows. The
decomposition checks re-derive the same verdict from the separation axioms
alone and report whether the two routes agree; a disagreement would mean a
bug in one of them, never a property of the mechanism. The pairwise scan
itself lives on as the test oracle in ``tests/oracles.py``.

`_dominance_gap` is the one dominance test behind every SP violation,
here and in the local scans of `paths`: it compares ``int`` rows of the
table on an order's class tuple from `core.order_classes`, and
`WeakOrder`s and `Fraction`s are built only for the violation reported.

Also here: closed-form constraint counting (how much smaller the separation
scan is than the pairwise scan), seeded random-population scans used by the
test batteries, and a fast path for deterministic populations.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

from .axioms import Certificate, _separation_layout, check_all_axioms
from .core import (
    Classes,
    FrozenRecord,
    Record,
    WeakOrder,
    format_rational,
    order_classes,
)
from .mechanisms import MechanismTable, random_mechanism, unit_row


class NotDeterministicError(ValueError):
    """A check that only applies to deterministic mechanisms got a
    randomized one."""


class SPViolation(FrozenRecord):
    """A profitable misreport: at truth ``truth``, the lottery for
    ``misreport`` is not stochastically dominated by the truthful one. The
    witness is the most preferred class (represented by its smallest member)
    whose upper-contour probability drops below the misreport's."""

    __slots__ = (
        "truth", "misreport", "witness_alt", "truth_cumulative", "misreport_cumulative"
    )

    def __init__(
        self,
        truth: WeakOrder,
        misreport: WeakOrder,
        witness_alt: int,
        truth_cumulative: Fraction,
        misreport_cumulative: Fraction,
    ) -> None:
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "misreport", misreport)
        object.__setattr__(self, "witness_alt", witness_alt)
        object.__setattr__(self, "truth_cumulative", truth_cumulative)
        object.__setattr__(self, "misreport_cumulative", misreport_cumulative)

    def to_json(self) -> dict:
        return {
            "truth": self.truth.text,
            "misreport": self.misreport.text,
            "witness_alt": self.witness_alt,
            "truth_cumulative": format_rational(self.truth_cumulative),
            "misreport_cumulative": format_rational(self.misreport_cumulative),
        }


def _dominance_gap(
    truth: Classes, truthful: tuple[int, ...], other: tuple[int, ...]
) -> tuple[int, int, int] | None:
    """First class of the true order, given by its class tuple ``truth``,
    where the truthful row's upper-contour mass falls below the other
    row's, as (witness, the two masses) with the class's smallest member
    as witness, or None if the truthful row dominates. Rows are a table's,
    so the masses are scaled by its denominator."""
    cum_t = cum_o = 0
    for cls in truth:
        for alt in cls:
            cum_t += truthful[alt]
            cum_o += other[alt]
        if cum_t < cum_o:
            return cls[0], cum_t, cum_o
    return None


def _sp_violation(
    mech: MechanismTable, truth: int, misreport: int, gap: tuple[int, int, int]
) -> SPViolation:
    """The violation to report for a gap that `_dominance_gap` found
    between the orders at canonical positions ``truth`` and ``misreport``:
    the one place an SP scan builds `WeakOrder`s."""
    domain = order_classes(mech.m)
    witness, cum_t, cum_o = gap
    return SPViolation(
        WeakOrder(mech.m, domain[truth]),
        WeakOrder(mech.m, domain[misreport]),
        witness,
        Fraction(cum_t, mech.denominator),
        Fraction(cum_o, mech.denominator),
    )


def _subset_masses(row: tuple[int, ...]) -> list[int]:
    """Mass of every subset of alternatives, indexed by bitmask (bit a is
    alternative a)."""
    masses = [0]
    for value in row:
        masses += [mass + value for mass in masses]
    return masses


def _contour_masses(classes: Classes, row: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Each upper-contour set of the order with these classes as a bitmask,
    with its mass."""
    mask = mass = 0
    for cls in classes:
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
    rows, settles every truth; only the first failing truth's row is then
    scanned pairwise, to name its first profitable misreport."""
    rows = mech.rows
    best = [0] * (1 << mech.m)
    for row in set(rows):
        best = list(map(max, best, _subset_masses(row)))
    domain = order_classes(mech.m)
    for truth, (classes, row) in enumerate(zip(domain, rows)):
        if all(mass >= best[mask] for mask, mass in _contour_masses(classes, row)):
            continue
        # no gap ever shows between the truth and itself, so it needs no skip
        for misreport, other in enumerate(rows):
            gap = _dominance_gap(classes, row, other)
            if gap is not None:
                return _sp_violation(mech, truth, misreport, gap)
    return None


class EquivalenceReport(Record):
    """One mechanism judged by both routes: the axiom decomposition and the
    brute-force scan. ``agreement`` is the point of the exercise; a False
    there is an internal error, not a fact about the mechanism."""

    __slots__ = (
        "statement",
        "mechanism",
        "m",
        "sp_verdict",
        "axiom_verdicts",
        "decomposition_verdict",
        "agreement",
        "sp_violation",
        "certificates",
    )

    def __init__(
        self,
        statement: str,
        mechanism: str,
        m: int,
        sp_verdict: bool,
        axiom_verdicts: dict[str, bool],
        decomposition_verdict: bool,
        agreement: bool,
        sp_violation: SPViolation | None = None,
        certificates: dict[str, Certificate] | None = None,
    ) -> None:
        self.statement = statement
        self.mechanism = mechanism
        self.m = m
        self.sp_verdict = sp_verdict
        self.axiom_verdicts = axiom_verdicts
        self.decomposition_verdict = decomposition_verdict
        self.agreement = agreement
        self.sp_violation = sp_violation
        self.certificates = {} if certificates is None else certificates

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
    class, order the rest. Built bottom-up with one row of Pascal's
    triangle, so it takes O(m^2) additions and multiplications and no
    recursion."""
    if m < 0:
        raise ValueError("negative size")
    a = [1]
    binom = [1]
    for n in range(1, m + 1):
        binom = [1] + [x + y for x, y in zip(binom, binom[1:])] + [1]
        a.append(sum(binom[k] * a[n - k] for k in range(1, n + 1)))
    return a[m]


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


class ConstraintCounts(FrozenRecord):
    """How big the pairwise scan is versus the separation scan at size m."""

    __slots__ = (
        "m", "orders", "ordered_pairs", "separations_total", "separations_max_per_order"
    )

    def __init__(
        self,
        m: int,
        orders: int,
        ordered_pairs: int,
        separations_total: int,
        separations_max_per_order: int,
    ) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "ordered_pairs", ordered_pairs)
        object.__setattr__(self, "separations_total", separations_total)
        object.__setattr__(self, "separations_max_per_order", separations_max_per_order)

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
        # one class of all m alternatives: 2^a + 2^b - 4 < 2^(a+b) - 2, so
        # merging two classes always adds separations
        separations_max_per_order=(1 << m) - 2,
    )


class ScanReport(Record):
    """Aggregate of an equivalence statement over a seeded random
    population of mechanisms."""

    __slots__ = (
        "statement",
        "m",
        "checked",
        "agreements",
        "sp_count",
        "first_disagreement",
        "cross_checked",
    )

    def __init__(
        self,
        statement: str,
        m: int,
        checked: int,
        agreements: int,
        sp_count: int,
        first_disagreement: str | None = None,
        cross_checked: int = 0,
    ) -> None:
        self.statement = statement
        self.m = m
        self.checked = checked
        self.agreements = agreements
        self.sp_count = sp_count
        self.first_disagreement = first_disagreement
        self.cross_checked = cross_checked

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
# integer route of `check_deterministic_decomposition` stays the reference:
# scans cross-check a prefix of every population against it. Feeding the
# same populations through that route as unit rows takes several times as
# long, which is why this path stays.


@lru_cache(maxsize=4)
def _det_context(m: int):
    # each order's 1-based class rank of every alternative, from its classes
    class_ix = tuple(
        tuple(k for a in range(m) for k, cls in enumerate(classes, 1) if a in cls)
        for classes in order_classes(m)
    )
    seps = tuple(
        (ci, fi, frozenset(upper), frozenset(lower))
        for ci, fi, _, upper, lower in _separation_layout(m)
    )
    return class_ix, seps


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
    class_ix, seps = _det_context(m)
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
        choices = tuple(rng.randrange(m) for _ in range(len(class_ix)))
        sp = _det_sp(choices, class_ix)
        monotonic = _det_monotonic(choices, class_ix, seps)
        if sp == monotonic:
            report.agreements += 1
        elif report.first_disagreement is None:
            report.first_disagreement = f"random-det-{m}-{seed}-{i}"
        if sp:
            report.sp_count += 1
        if i < cross_check:
            rows = [(1, unit_row(m, choice)) for choice in choices]
            table = MechanismTable(m, rows, name=f"random-det-{m}-{seed}-{i}")
            slow = check_deterministic_decomposition(table)
            if slow.sp_verdict != sp or slow.axiom_verdicts["monotonic"] != monotonic:
                raise RuntimeError(
                    f"fast deterministic path disagrees with the generic "
                    f"checkers on {table.name}"
                )
    return report
