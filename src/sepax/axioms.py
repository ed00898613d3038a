"""Separations and the local axioms whose conjunction characterizes
strategyproofness on this domain.

A separation is an ordered pair of weak orders (coarse, fine) where the fine
order is obtained from the coarse one by splitting exactly one indifference
class into an upper part and a lower part, leaving everything else in place.
Checking a handful of probability (in)equalities on each separation replaces
the quadratic scan over all order pairs:

- responsive: the upper part's probability must not fall, the lower part's
  must not rise, when moving from coarse to fine.
- direct: if any coarse class changes probability at all, then both the upper
  and the lower part must actually change.
- monotonic: responsive and direct together.
- upper_invariant: classes ranked above the split class keep their
  probability exactly.
- lower_invariant: classes ranked below the split class keep their
  probability exactly.

`find_violations` first asks one column verdict, `_upper_set_verdict`,
whether every separation passes; on a table that passes, no separation is
walked. Otherwise it runs every check in one serial scan over the table's
integer rows (a `MechanismTable` is ``(m, denominator, rows)`` and is valid
once built) and the orders' class tuples, where each axiom compares sums
of ``int`` entries. Each separation is judged in one block: one test
clears it for all four axioms at once, and otherwise each axiom's failure
is stated once; once a first-only scan has only direct open, it reads the
other classes only where a split part keeps its mass. It reports, per
axiom, `Certificate`s pinpointing the failures in canonical separation
order; certificates carry exact `Fraction`s, are self-contained, and are
re-checked against the table's integer rows by `verify_certificate`, which
takes a separation as a move of `_split_moves` on its coarse classes.
Recognizing any pair as a separation is the move ladder's job
(`paths.as_separation`).

The verdict reads, for every nonempty proper subset S of the
alternatives, the masses on S of the orders that `_upper_set_index`
names for S, picked from the table's columns. The holder half of that
index also serves the SP check in `verify`, and the same verdict settles
the refinement scan of `paths`.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter

from .core import (
    Classes,
    FrozenRecord,
    Record,
    WeakOrder,
    _ordered_partitions,
    class_splits,
    classes_index,
    enumerate_weak_orders,
    json_value,
    order_classes,
)
from .mechanisms import MechanismTable

AXIOMS = ("responsive", "direct", "upper_invariant", "lower_invariant")


class Separation(FrozenRecord):
    """One coarse class (1-based position ``kappa``) split into
    ``upper_part`` ranked just above ``lower_part``; all other classes
    identical between the two orders."""

    __slots__ = ("coarse", "fine", "kappa", "upper_part", "lower_part")

    def to_json(self) -> dict:
        # the split parts under the paper's names; spelt out, this is half
        # the cost of renaming two keys of the generic encoding, and the
        # parts, tuples of ints, need no per-member encoding
        return {
            "coarse": json_value(self.coarse),
            "fine": json_value(self.fine),
            "kappa": self.kappa,
            "M1": list(self.upper_part),
            "M2": list(self.lower_part),
        }


def _split_moves(
    classes: Classes,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], Classes]]:
    """Each separation of the order with these classes, in canonical order,
    as (0-based position of the split class, upper part, lower part, the
    fine order's classes)."""
    for k, cls in enumerate(classes):
        for upper, lower in class_splits(cls):
            yield k, upper, lower, classes[:k] + (upper, lower) + classes[k + 1 :]


def enumerate_separations(coarse: WeakOrder) -> tuple[Separation, ...]:
    """All separations with this coarse side, in canonical order: by class
    position, then by ascending bitmask of the upper part over the class
    members (bit j = j-th smallest member). A class of size c contributes
    2^c - 2 separations."""
    return tuple(
        Separation(coarse, WeakOrder._checked(coarse.m, fine), k + 1, upper, lower)
        for k, upper, lower, fine in _split_moves(coarse.classes)
    )


@lru_cache(maxsize=8)
def _separation_layout(
    m: int,
) -> tuple[tuple[int, int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """Per separation in canonical order: the canonical indices of its
    coarse and fine orders, the 0-based position of the split class, and
    the upper and lower parts.

    Built on the recursion of `_ordered_partitions`, with no `WeakOrder`
    made and no order looked up. An order on a set is a first class and
    then an order on the rest, in blocks by first class. Splitting the
    first class into (upper, lower) gives the order that starts with
    upper, then lower, then the same order on the rest; splitting a later
    class moves the order on the rest alone. Either way the fine index
    less the coarse index does not depend on the order on the rest, so
    each order's separations, as such shifts, are built once per set and
    split position, from those of its rest. Cold, this takes 7.5–7.8 ms at
    m=6 against 15.2–17.6 ms for looking each fine order up in
    `classes_index`, and 63–68 ms at m=7 against 206–218 ms (2-vCPU host,
    CPython 3.11.7). The shifts of the top level are not kept, and every
    fine index is the one int object of its order, so an m=6 or m=7 check
    peaks no higher than with the lookups."""
    blocks: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def block(elems: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        # the canonical position, among the orders on elems, of the first
        # order whose first class is each part (elems itself: the last)
        at = blocks.get(elems)
        if at is None:
            at, n = {}, 0
            for first, rest in class_splits(elems) + ((elems, ()),):
                at[first] = n
                n += len(_ordered_partitions(rest))
            blocks[elems] = at
        return at

    moves: dict[tuple[tuple[int, ...], int], list[tuple]] = {}

    def splits(elems: tuple[int, ...], k: int) -> Iterator[tuple]:
        # per order on elems, in canonical order, its separations when its
        # first class sits at position k: (shift, k', upper, lower)
        at = block(elems)
        for first, rest in class_splits(elems) + ((elems, ()),):
            head = tuple(
                (at[upper] - at[first] + block(tuple(sorted(lower + rest)))[lower],
                 k, upper, lower)
                for upper, lower in class_splits(first)
            )
            if not rest:
                yield head
                continue
            tails = moves.get((rest, k + 1))
            if tails is None:
                tails = splits(rest, k + 1)
                if k:  # the top level reaches each rest once, a lower one often
                    tails = moves[rest, k + 1] = list(tails)
            for tail in tails:
                yield head + tail

    # each index is one int object, shared by every separation that names it
    index = tuple(range(len(order_classes(m))))
    return tuple([
        (ci, index[ci + shift], k, upper, lower)
        for ci, order in zip(index, splits(tuple(range(m)), 0))
        for shift, k, upper, lower in order
    ])


@lru_cache(maxsize=8)
def all_separations(m: int) -> tuple[Separation, ...]:
    """Every separation at problem size m, grouped by coarse order in
    canonical enumeration order, on the canonical `WeakOrder` instances of
    `enumerate_weak_orders`. The layout's fields are a separation's as
    they are, so each is set through the slots' own setters, not bound
    by `Record.__init__`: cold, 8.6 against 16.9 ms at m=6 and 137 against
    249 ms at m=7, where a positional ``Separation.__init__`` took 10.4
    and 164 ms (fastest of 7 fresh interpreters, 2-vCPU host, CPython
    3.11.7)."""
    orders = enumerate_weak_orders(m)
    new = Separation.__new__
    set_coarse, set_fine, set_kappa, set_upper, set_lower = Separation._setters
    separations = []
    for ci, fi, k, upper, lower in _separation_layout(m):
        separation = new(Separation)
        set_coarse(separation, orders[ci])
        set_fine(separation, orders[fi])
        set_kappa(separation, k + 1)
        set_upper(separation, upper)
        set_lower(separation, lower)
        separations.append(separation)
    return tuple(separations)


@lru_cache(maxsize=8)
def _upper_set_index(
    m: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """For each bitmask S of alternatives (bit a is alternative a), the
    canonical indices, ascending, of its holders and of its weak holders,
    as two tuples indexed by S. An order R *holds* S when S is the union
    of R's top j classes, for any j (so every order holds the full set);
    R *weakly holds* S when S is R's top classes plus a nonempty proper
    part of R's next class. Weak-holder pairs match separations one to
    one: R is the coarse order, S the fine order's new upper set."""
    holders: list[list[int]] = [[] for _ in range(1 << m)]
    weak: list[list[int]] = [[] for _ in range(1 << m)]
    # per distinct class: its bitmask, and those of its nonempty proper
    # parts, the upper parts of its `class_splits`
    masks: dict[tuple[int, ...], tuple[int, list[int]]] = {}
    for i, classes in enumerate(order_classes(m)):
        upper = 0
        for cls in classes:
            if cls not in masks:
                parts = [sum(1 << alt for alt in part) for part, _ in class_splits(cls)]
                masks[cls] = sum(1 << alt for alt in cls), parts
            full, parts = masks[cls]
            for part in parts:
                weak[upper | part].append(i)
            upper |= full
            holders[upper].append(i)
    return tuple(map(tuple, holders)), tuple(map(tuple, weak))


def _upper_set_verdict(mech: MechanismTable) -> bool:
    """Whether the table passes every local check: all four axioms on every
    separation, and, equivalently, no profitable misreport in either
    direction across any refinement pair. Both hold iff, for every
    nonempty proper subset S of the alternatives,

    (a) every holder of S puts the same mass G(S) on S, and
    (b) no weak holder of S puts more than G(S) on S

    (holders and weak holders as in `_upper_set_index`).

    Axioms. A separation passes all four iff it passes the one test of
    `find_violations`: every class but the split one keeps its mass, and
    the upper part does not lose mass (a failure of the test breaks
    responsive or an invariance axiom). As both rows sum to D, the test
    says: equal mass on each upper set of the coarse order, which both
    orders hold, and fine >= coarse on the fine order's new upper set,
    which the fine order holds and the coarse one weakly holds. So
    (a)+(b) pass every separation. Conversely, a holder of S is joined to
    the two-class order (S, rest) by separations whose coarse orders all
    hold S, so the test gives (a); and a weak holder of S is the coarse
    order of the separation that splits the part off, so the test gives
    (b).

    Refinement pairs. For a pair (coarse R, fine R'), truthful at either
    order dominating the other's lottery means equal mass on R's upper
    sets, which both hold, and R' >= R on R''s other upper sets, which R'
    holds and R weakly holds: again (a)+(b). Conversely, every holder of
    S refines (S, rest), which gives (a), and a separation is a
    refinement, which gives (b).

    Neither argument uses strategyproofness or the paper's theorem.

    Subsets run in ascending bitmask order, and the verdict is False at
    the first that breaks (a) or (b). Only the masses of S's holders and
    weak holders are read (at m=6 about 540 orders per subset, of 4,683):
    one `itemgetter` over the index's holders and then weak holders of S
    picks their entries from each column of a member of S, and one `map`
    adds each further member's. Every nonempty proper S has a holder,
    (S, rest), and a weak holder, the order whose first class is S and
    one more alternative, so the pick is always a tuple."""
    m = mech.m
    holders, weak = _upper_set_index(m)
    columns = tuple(zip(*mech.rows))
    for mask in range(1, len(holders) - 1):
        pick = itemgetter(*holders[mask], *weak[mask])
        picked = [pick(columns[alt]) for alt in range(m) if mask >> alt & 1]
        masses = picked[0]
        for more in picked[1:]:
            masses = tuple(map(add, masses, more))
        n = len(holders[mask])
        if len(set(masses[:n])) > 1 or max(masses[n:]) > masses[0]:
            return False
    return True


class Certificate(FrozenRecord):
    """A machine-checkable axiom violation.

    ``lhs`` is the probability of the witness set under the coarse report,
    ``rhs`` the probability of the same set under the fine report. The
    witness set is the coarse class ``k`` for the invariance axioms
    (witness == "class"), or the named split part otherwise. The violation
    shape per axiom:

    - responsive, witness upper_part: rhs < lhs (the part lost mass)
    - responsive, witness lower_part: rhs > lhs (the part gained mass)
    - direct: some coarse class changed mass but the witness part did not
      (rhs == lhs)
    - upper_invariant / lower_invariant: rhs != lhs for a class that had to
      stay fixed
    """

    __slots__ = ("axiom", "separation", "witness", "k", "lhs", "rhs", "separation_index")

    def witness_set(self) -> tuple[int, ...]:
        """Raises `ValueError` for k outside 1..K, K the coarse order's
        number of classes, or an unknown witness kind."""
        if not 1 <= self.k <= self.separation.coarse.num_classes:
            raise ValueError(f"witness class {self.k} outside 1..K")
        if self.witness == "class":
            return self.separation.coarse.classes[self.k - 1]
        if self.witness == "upper_part":
            return self.separation.upper_part
        if self.witness == "lower_part":
            return self.separation.lower_part
        raise ValueError(f"unknown witness kind {self.witness!r}")

    def to_json(self) -> dict:
        # the separation flattened in, and no separation_index
        return {
            "axiom": self.axiom,
            **self.separation.to_json(),
            "k": self.k,
            "witness": self.witness,
            "lhs": json_value(self.lhs),
            "rhs": json_value(self.rhs),
        }


def verify_certificate(mech: MechanismTable, cert: Certificate) -> bool:
    """Re-derive the certificate's numbers from the mechanism's integer rows
    and confirm they exhibit the claimed violation. Rejected: a separation
    over another problem size or no move of `_split_moves` on its coarse
    classes, a witness class outside 1..K (the coarse order's classes), a
    split part named at any position but the split class, or an unknown
    witness kind."""
    sep = cert.separation
    if sep.coarse.m != mech.m or sep.fine.m != mech.m:
        return False
    move = (sep.kappa - 1, sep.upper_part, sep.lower_part, sep.fine.classes)
    if move not in _split_moves(sep.coarse.classes):
        return False
    if cert.witness != "class" and cert.k != sep.kappa:
        return False
    try:
        witness = cert.witness_set()
    except ValueError:
        return False
    index = classes_index(mech.m)
    coarse_row = mech.rows[index[sep.coarse.classes]].__getitem__
    fine_row = mech.rows[index[sep.fine.classes]].__getitem__
    lhs, rhs = sum(map(coarse_row, witness)), sum(map(fine_row, witness))
    D = mech.denominator
    if (Fraction(lhs, D), Fraction(rhs, D)) != (cert.lhs, cert.rhs):
        return False
    if cert.axiom == "responsive":
        if cert.witness == "upper_part":
            return rhs < lhs
        if cert.witness == "lower_part":
            return rhs > lhs
        return False
    if cert.axiom == "direct":
        triggered = any(
            sum(map(coarse_row, cls)) != sum(map(fine_row, cls))
            for cls in sep.coarse.classes
        )
        return triggered and lhs == rhs and cert.witness in ("upper_part", "lower_part")
    if cert.axiom == "upper_invariant":
        return cert.witness == "class" and cert.k < sep.kappa and lhs != rhs
    if cert.axiom == "lower_invariant":
        return cert.witness == "class" and cert.k > sep.kappa and lhs != rhs
    return False


def find_violations(
    mech: MechanismTable, *, all_violations: bool = False
) -> dict[str, list[Certificate]]:
    """Scan all separations for every axiom of `AXIOMS`. Returns, per
    axiom, the violations in canonical order: just the first unless
    ``all_violations``.

    Each separation is judged once, on the class masses of its two integer
    rows: ``above`` and ``below`` say whether a class ranked above or
    below the split one changed mass. A separation passes all four axioms
    at once when neither did and the upper part does not lose mass: both
    rows sum to D, so the split class keeps its total, the lower part
    cannot gain mass, and direct is vacuous. Any other separation states
    each axiom's failure once, in `AXIOMS` order; without
    ``all_violations`` an axiom that has its certificate is not tested
    again, and the scan stops once all four have one. Once only direct
    is open, the same walk skips a separation where neither part keeps
    its mass, which cannot break direct, before it compares the classes
    around the split one; on `k_sensitive_boost`, which never fails
    direct, that is nearly the whole scan. An order's class masses are
    summed when the walk first reads them, so a scan that stops early
    sums only the rows it reached; the coarse side is looked up once per
    coarse order, as the layout runs coarse order by coarse order, and a
    full scan sums every row once. Only a reported separation builds its
    two `WeakOrder`s, and each distinct certificate value its `Fraction`.

    A table that passes `_upper_set_verdict` passes every separation, so
    its scan is skipped and every list is empty."""
    found: dict[str, list[Certificate]] = {axiom: [] for axiom in AXIOMS}
    if _upper_set_verdict(mech):
        return found
    m, rows, D = mech.m, mech.rows, mech.denominator
    domain = order_classes(m)
    layout = _separation_layout(m)
    # each order's class masses, built when the walk first reads them
    class_mass: list[tuple[int, ...] | None] = [None] * len(rows)

    def masses(i: int) -> tuple[int, ...]:
        row = rows[i].__getitem__
        class_mass[i] = total = tuple([sum(map(row, cls)) for cls in domain[i]])
        return total

    orders: dict[int, WeakOrder] = {}  # the reported ones, each built once
    values: dict[int, Fraction] = {}  # each certificate value, built once

    def value(x: int) -> Fraction:
        v = values.get(x)
        if v is None:
            v = values[x] = Fraction(x, D)
        return v

    def report(index: int, hits: list) -> None:
        ci, fi, k, upper_part, lower_part = layout[index]
        for i in (ci, fi):
            if i not in orders:
                orders[i] = WeakOrder._checked(m, domain[i])
        separation = Separation(orders[ci], orders[fi], k + 1, upper_part, lower_part)
        for axiom, witness, position, *pair in hits:
            lhs, rhs = map(value, pair)
            found[axiom].append(
                Certificate(axiom, separation, witness, position, lhs, rhs, index)
            )

    last = None
    direct_only = False  # a first-only walk has every certificate but direct's
    for index, (ci, fi, k, upper_part, lower_part) in enumerate(layout):
        # each over its own classes: the split class coarse[k] is fine[k]
        # (the upper part) and fine[k + 1] (the lower part)
        if ci != last:  # the layout runs coarse order by coarse order
            last, coarse_row = ci, rows[ci].__getitem__
            coarse = class_mass[ci] or masses(ci)
        fine = class_mass[fi] or masses(fi)
        upper_lhs = sum(map(coarse_row, upper_part))
        # direct fails only where a part keeps its mass
        if direct_only and fine[k] != upper_lhs and fine[k + 1] != coarse[k] - upper_lhs:
            continue
        above = coarse[:k] != fine[:k]
        below = coarse[k + 1 :] != fine[k + 2 :]
        if not (above or below) and fine[k] >= upper_lhs:
            continue
        upper = (upper_lhs, fine[k])
        lower = (coarse[k] - upper_lhs, fine[k + 1])
        hits = []  # (axiom, witness, class position, lhs, rhs)
        if all_violations or not found["responsive"]:
            if upper[1] < upper[0]:
                hits.append(("responsive", "upper_part", k + 1, *upper))
            elif lower[1] > lower[0]:
                hits.append(("responsive", "lower_part", k + 1, *lower))
        # both rows sum to D, so if the split class moved another class did:
        # some class moved iff one above or below it did
        if (above or below) and (all_violations or not found["direct"]):
            if upper[0] == upper[1]:
                hits.append(("direct", "upper_part", k + 1, *upper))
            elif lower[0] == lower[1]:
                hits.append(("direct", "lower_part", k + 1, *lower))
        if above and (all_violations or not found["upper_invariant"]):
            j = next(j for j in range(k) if coarse[j] != fine[j])
            hits.append(("upper_invariant", "class", j + 1, coarse[j], fine[j]))
        if below and (all_violations or not found["lower_invariant"]):
            j = next(j for j in range(k + 1, len(coarse)) if coarse[j] != fine[j + 1])
            hits.append(("lower_invariant", "class", j + 1, coarse[j], fine[j + 1]))
        if not hits:
            continue
        report(index, hits)
        if not all_violations:
            open_axioms = [axiom for axiom in AXIOMS if not found[axiom]]
            if not open_axioms:
                break
            direct_only = open_axioms == ["direct"]
    return found


class AxiomReport(Record):
    """Outcome of running every axiom checker against one mechanism."""

    __slots__ = ("mechanism", "m", "verdicts", "certificates")


def check_all_axioms(
    mech: MechanismTable, *, all_violations: bool = False
) -> AxiomReport:
    """Run the four base checkers in one scan and derive monotonic."""
    found = find_violations(mech, all_violations=all_violations)
    verdicts = {axiom: not found[axiom] for axiom in AXIOMS}
    verdicts["monotonic"] = verdicts["responsive"] and verdicts["direct"]
    # by position, in slot order: binding keywords costs several times more
    return AxiomReport(mech.name, mech.m, verdicts, found)
