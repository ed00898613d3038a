"""Global strategyproofness checks and their agreement with the local axiom
decomposition.

`check_sp_bruteforce` decides the definition itself, over every ordered
pair of orders (truth, misreport): the truthful lottery must stochastically
dominate the misreport's at the truth. Every quantifier is universal, so it
runs as a contour-maximum check on the table's integer rows, in columns:
each subset's masses over the distinct rows are its parent subset's plus
one column, one `map` call, and the holder half of
`axioms._upper_set_index` names the truths that each subset can fail.
The axiom verdict `axioms._upper_set_verdict` reads the same index, but
the two checks share no verdict: the SP check compares every holder with
the largest mass any row puts on the subset, and never asks whether the
axioms hold. The decomposition checks re-derive the same verdict
from the separation axioms alone and report whether the two routes agree;
a disagreement would mean a bug in one of them, never a property of the
mechanism. The pairwise scan
itself lives on as the test oracle in ``tests/oracles.py``.
`verify_sp_violation` re-checks a reported violation from the integer rows.

`core._dominance_gap` is the one dominance test behind every SP
violation, here and in the local scans of `paths`: it compares ``int``
rows of the table on an order's class tuple from `core.order_classes`, and
`WeakOrder`s and `Fraction`s are built only for the violation reported.

Also here: closed-form constraint counting (how much smaller the separation
scan is than the pairwise scan), seeded random-population scans used by the
test batteries, and a fast path for deterministic populations.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, islice
from operator import add

from .axioms import _separation_layout, _upper_set_index, check_all_axioms
from .core import (
    FrozenRecord,
    Record,
    WeakOrder,
    _dominance_gap,
    classes_index,
    enumerate_weak_orders,
    order_classes,
)
from .mechanisms import MechanismTable, _draws, _point_masses, random_mechanism


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


def _sp_violation(
    mech: MechanismTable, truth: int, misreport: int, gap: tuple[int, int, int]
) -> SPViolation:
    """The violation to report for a gap that `_dominance_gap` found
    between the orders at canonical positions ``truth`` and ``misreport``:
    the one place an SP scan builds `WeakOrder`s."""
    domain = order_classes(mech.m)
    witness, cum_t, cum_o = gap
    return SPViolation(
        WeakOrder._checked(mech.m, domain[truth]),
        WeakOrder._checked(mech.m, domain[misreport]),
        witness,
        Fraction(cum_t, mech.denominator),
        Fraction(cum_o, mech.denominator),
    )


def _first_failing_truth(mech: MechanismTable) -> int | None:
    """Smallest canonical index of a truth with a profitable misreport, or
    None. Truth i fails iff p_i(S) < best(S) at one of its upper-contour
    sets S, best(S) being the largest mass any row puts on S. The masses
    of S over the distinct rows form one vector, its parent subset's plus
    one column, so the subsets are walked depth first from an explicit
    stack, each vector built once; a stack entry holds its parent's, so
    only the current path's vectors are alive. At each S only the holders
    below the failing truth found so far are read, and the walk stops
    once truth 0 fails. A holder is mapped to its distinct row's id only
    when some rows repeat; otherwise its canonical index is that id."""
    m, rows = mech.m, mech.rows
    # each row is hashed once: first to the index of its first occurrence,
    # then, through int keys, to its id among the distinct rows
    seen: dict[tuple[int, ...], int] = {}
    firsts = tuple(map(seen.setdefault, rows, count()))
    columns = tuple(zip(*seen))
    holders = _upper_set_index(m)[0]
    id_of = None  # a holder's distinct row is its own when no row repeats
    if len(seen) < len(rows):
        ids = dict(zip(seen.values(), count()))
        id_of = tuple(map(ids.__getitem__, firsts)).__getitem__
    first = len(rows)
    # (a subset, its masses, an alternative above its members to add);
    # the subsets with smaller bits come off first, as in a recursion
    stack = [(0, (), alt) for alt in reversed(range(m))]
    while stack and first:
        parent, masses, alt = stack.pop()
        mask = parent | 1 << alt
        vector = tuple(map(add, masses, columns[alt])) if masses else columns[alt]
        held = holders[mask]
        below = islice(held, bisect_left(held, first))
        if id_of:
            below = map(id_of, below)
        fails = map(max(vector).__gt__, map(vector.__getitem__, below))
        first = next(compress(held, fails), first)
        stack.extend((mask, vector, child) for child in reversed(range(alt + 1, m)))
    return first if first < len(rows) else None


def check_sp_bruteforce(mech: MechanismTable) -> SPViolation | None:
    """Exact strategyproofness over all ordered (truth, misreport) pairs.
    Returns the first violation in canonical pair order (lexicographic by
    enumeration index), or None.

    Truth i has a profitable misreport iff p_i(S) < best(S) for one of its
    upper-contour sets S, where best(S) is the largest mass any order's
    lottery puts on S. `_first_failing_truth` settles every truth from one
    mass vector per subset, taken over the distinct integer rows; only the
    first failing truth's row is then scanned pairwise, to name its first
    profitable misreport."""
    truth = _first_failing_truth(mech)
    if truth is None:
        return None
    rows = mech.rows
    classes, row = order_classes(mech.m)[truth], rows[truth]
    # no gap ever shows between the truth and itself, so it needs no skip
    for misreport, other in enumerate(rows):
        gap = _dominance_gap(classes, row, other)
        if gap is not None:
            return _sp_violation(mech, truth, misreport, gap)
    raise AssertionError("a failing truth has a profitable misreport")


def verify_sp_violation(mech: MechanismTable, violation: SPViolation) -> bool:
    """Re-derive both cumulatives of a reported violation from the table's
    integer rows: the truthful row's and the misreport's mass on the
    truth's upper contour of ``witness_alt``, over D. True iff both match
    the report and the misreport's is the larger. A violation over another
    problem size, or whose witness is no alternative, is rejected."""
    truth, misreport = violation.truth, violation.misreport
    if truth.m != mech.m or misreport.m != mech.m:
        return False
    try:
        upper = truth.upper_contour(violation.witness_alt)
    except (TypeError, ValueError):
        return False
    index = classes_index(mech.m)
    truthful = sum(map(mech.rows[index[truth.classes]].__getitem__, upper))
    other = sum(map(mech.rows[index[misreport.classes]].__getitem__, upper))
    D = mech.denominator
    return (Fraction(truthful, D), Fraction(other, D)) == (
        violation.truth_cumulative, violation.misreport_cumulative
    ) and other > truthful


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
    _defaults = {"sp_violation": None, "certificates": dict}


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
    # by position, in slot order: binding keywords costs several times more
    return EquivalenceReport(
        statement, mech.name, mech.m, sp, verdicts, decomposition,
        decomposition == sp, violation, certificates,
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


def fubini_number(m: int) -> int:
    """Number of weak orders on m alternatives: sum over j of j! * S(m, j),
    the ways to split the alternatives into j classes, times the orders of
    those classes."""
    if m < 0:
        raise ValueError("negative size")
    row = _stirling2_row(m)
    return sum(math.factorial(j) * row[j] for j in range(m + 1))


@lru_cache(maxsize=8)
def _stirling2_row(m: int) -> tuple[int, ...]:
    """Stirling set numbers S(m, j) for j = 0..m, by the recurrence
    S(n, j) = j * S(n-1, j) + S(n-1, j-1). Cached: the counts, the
    separation total and `amd.lp_summary` all read the row of one m."""
    row = [1]
    for n in range(1, m + 1):
        new = [0] * (n + 1)
        for j in range(1, n + 1):
            new[j] = (j * row[j] if j < n else 0) + row[j - 1]
        row = new
    return tuple(row)


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
    _defaults = {"first_disagreement": None, "cross_checked": 0}

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.checked


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
# collapse to comparisons of class ranks (`WeakOrder._class_index`) and
# membership tests on the split parts of `axioms._separation_layout`. The
# integer route of `check_deterministic_decomposition` stays the reference:
# scans cross-check a prefix of every population against it. Feeding the
# same populations through that route as unit rows takes about 23 times as
# long (250 tables at m=4: 2.4-2.5 ms here, 56-63 ms there, in-process on a
# 2-vCPU host with CPython 3.11.7), which is why this path stays. Each
# table's choices are one batch of `mechanisms._draws`, the values that one
# ``rng.randrange(m)`` per order would give.


def _det_sp(choices: tuple[int, ...], class_ix) -> bool:
    chosen = set(choices)
    for i, ci in enumerate(class_ix):
        own = ci[choices[i]]
        for alt in chosen:
            if ci[alt] < own:
                return False
    return True


def _det_monotonic(choices: tuple[int, ...], class_ix, seps) -> bool:
    for coarse_i, fine_i, _, upper, lower in seps:
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
    class_ix = tuple(order._class_index for order in enumerate_weak_orders(m))
    seps = _separation_layout(m)
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
        choices = tuple(_draws(rng, m, len(class_ix)))
        sp = _det_sp(choices, class_ix)
        monotonic = _det_monotonic(choices, class_ix, seps)
        if sp == monotonic:
            report.agreements += 1
        elif report.first_disagreement is None:
            report.first_disagreement = f"random-det-{m}-{seed}-{i}"
        if sp:
            report.sp_count += 1
        if i < cross_check:
            table = _point_masses(m, choices, f"random-det-{m}-{seed}-{i}")
            slow = check_deterministic_decomposition(table)
            if slow.sp_verdict != sp or slow.axiom_verdicts["monotonic"] != monotonic:
                raise RuntimeError(
                    f"fast deterministic path disagrees with the generic "
                    f"checkers on {table.name}"
                )
    return report
