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

`find_violations` runs every check in one serial scan over the table's
integer rows (a `MechanismTable` is ``(m, denominator, rows)`` and is valid
once built), where each axiom compares sums of ``int`` entries. It
reports, per axiom, `Certificate`s pinpointing the failures in canonical
separation order; certificates carry exact `Fraction`s, are
self-contained, and are re-checked against the lotteries themselves by
`verify_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .core import (
    Classes,
    WeakOrder,
    class_splits,
    classes_index,
    enumerate_weak_orders,
    format_rational,
)
from .mechanisms import MechanismTable

AXIOMS = ("responsive", "direct", "upper_invariant", "lower_invariant")


@dataclass(frozen=True)
class Separation:
    """One coarse class (1-based position ``kappa``) split into
    ``upper_part`` ranked just above ``lower_part``; all other classes
    identical between the two orders."""

    coarse: WeakOrder
    fine: WeakOrder
    kappa: int
    upper_part: tuple[int, ...]
    lower_part: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "coarse": self.coarse.text,
            "fine": self.fine.text,
            "kappa": self.kappa,
            "M1": list(self.upper_part),
            "M2": list(self.lower_part),
        }


def as_separation(coarse: WeakOrder, fine: WeakOrder) -> Separation | None:
    """Recognize whether (coarse, fine) is a separation; None otherwise."""
    if coarse.m != fine.m:
        raise ValueError("orders over different alternative sets")
    if fine.num_classes != coarse.num_classes + 1:
        return None
    k = 0
    while coarse.classes[k] == fine.classes[k]:
        k += 1
        # fine has one more class, so a first difference always exists
    upper, lower = fine.classes[k], fine.classes[k + 1]
    if set(upper) | set(lower) != set(coarse.classes[k]):
        return None
    if coarse.classes[k + 1 :] != fine.classes[k + 2 :]:
        return None
    return Separation(coarse, fine, k + 1, upper, lower)


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
        Separation(coarse, WeakOrder(coarse.m, fine), k + 1, upper, lower)
        for k, upper, lower, fine in _split_moves(coarse.classes)
    )


@lru_cache(maxsize=8)
def _separation_layout(
    m: int,
) -> tuple[tuple[int, int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """Per separation in canonical order: the canonical indices of its
    coarse and fine orders, the 0-based position of the split class, and
    the upper and lower parts. Built from class splits and
    `classes_index`, so no `WeakOrder` is made."""
    index = classes_index(m)
    return tuple(
        (ci, index[fine], k, upper, lower)
        for ci, order in enumerate(enumerate_weak_orders(m))
        for k, upper, lower, fine in _split_moves(order.classes)
    )


def _separation(m: int, ci: int, fi: int, k: int, upper, lower) -> Separation:
    """The `Separation` one layout entry stands for, on the canonical
    `WeakOrder` instances."""
    orders = enumerate_weak_orders(m)
    return Separation(orders[ci], orders[fi], k + 1, upper, lower)


@lru_cache(maxsize=8)
def all_separations(m: int) -> tuple[Separation, ...]:
    """Every separation at problem size m, grouped by coarse order in
    canonical enumeration order."""
    return tuple(_separation(m, *entry) for entry in _separation_layout(m))


@dataclass(frozen=True)
class Certificate:
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

    axiom: str
    separation: Separation
    witness: str
    k: int
    lhs: Fraction
    rhs: Fraction
    separation_index: int

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
        data = {"axiom": self.axiom}
        data.update(self.separation.to_json())
        data.update(
            {
                "k": self.k,
                "witness": self.witness,
                "lhs": format_rational(self.lhs),
                "rhs": format_rational(self.rhs),
            }
        )
        return data


def verify_certificate(mech: MechanismTable, cert: Certificate) -> bool:
    """Re-derive the certificate's numbers from the mechanism and confirm
    they exhibit the claimed violation. A witness class outside 1..K (the
    coarse order's classes), a split part named at any position but the
    split class, or an unknown witness kind is rejected."""
    sep = cert.separation
    if as_separation(sep.coarse, sep.fine) != sep:
        return False
    if cert.witness != "class" and cert.k != sep.kappa:
        return False
    try:
        witness = cert.witness_set()
    except ValueError:
        return False
    coarse_lot = mech.lottery(sep.coarse)
    fine_lot = mech.lottery(sep.fine)
    lhs = coarse_lot.mass(witness)
    rhs = fine_lot.mass(witness)
    if (lhs, rhs) != (cert.lhs, cert.rhs):
        return False
    if cert.axiom == "responsive":
        if cert.witness == "upper_part":
            return rhs < lhs
        if cert.witness == "lower_part":
            return rhs > lhs
        return False
    if cert.axiom == "direct":
        triggered = any(
            coarse_lot.mass(cls) != fine_lot.mass(cls) for cls in sep.coarse.classes
        )
        return triggered and lhs == rhs and cert.witness in ("upper_part", "lower_part")
    if cert.axiom == "upper_invariant":
        return cert.witness == "class" and cert.k < sep.kappa and lhs != rhs
    if cert.axiom == "lower_invariant":
        return cert.witness == "class" and cert.k > sep.kappa and lhs != rhs
    return False


def _violation(
    axiom: str,
    coarse: tuple[int, ...],
    fine: tuple[int, ...],
    k: int,
    upper: tuple[int, int],
    lower: tuple[int, int],
) -> tuple[str, int, int, int] | None:
    """One axiom on one separation, on integer rows: the first failure
    as (witness, class position, lhs, rhs), or None. ``coarse`` and ``fine``
    are the class masses of the two reports, each over its own classes, so
    the split class ``coarse[k]`` appears in ``fine`` as ``fine[k]`` and
    ``fine[k + 1]``. ``upper`` and ``lower`` are the (coarse, fine) masses
    of the two parts."""
    if axiom == "responsive":
        if upper[1] < upper[0]:
            return ("upper_part", k + 1, *upper)
        if lower[1] > lower[0]:
            return ("lower_part", k + 1, *lower)
        return None
    if axiom == "direct":
        # both rows sum to D, so the split class moved iff another class did
        if coarse[:k] == fine[:k] and coarse[k + 1 :] == fine[k + 2 :]:
            return None
        for witness, (lhs, rhs) in (("upper_part", upper), ("lower_part", lower)):
            if lhs == rhs:
                return (witness, k + 1, lhs, rhs)
        return None
    if axiom == "upper_invariant":
        positions = ((j, j) for j in range(k))
    else:
        positions = ((j, j + 1) for j in range(k + 1, len(coarse)))
    for j, fine_j in positions:
        if coarse[j] != fine[fine_j]:
            return ("class", j + 1, coarse[j], fine[fine_j])
    return None


def find_violations(
    mech: MechanismTable,
    axioms: Iterable[str] = AXIOMS,
    *,
    all_violations: bool = False,
) -> dict[str, list[Certificate]]:
    """Scan all separations for the given axioms. Returns, per axiom, the
    violations in canonical order: just the first unless ``all_violations``."""
    axioms = tuple(axioms)
    for axiom in axioms:
        if axiom not in AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r}")
    rows = mech.rows
    class_mass = [
        tuple(sum(row[alt] for alt in cls) for cls in order.classes)
        for order, row in zip(enumerate_weak_orders(mech.m), rows)
    ]
    found: dict[str, list[Certificate]] = {axiom: [] for axiom in axioms}
    pending = set(axioms)
    for index, entry in enumerate(_separation_layout(mech.m)):
        if not pending and not all_violations:
            break
        ci, fi, k, upper_part, _ = entry
        coarse, fine = class_mass[ci], class_mass[fi]
        upper_lhs = sum(rows[ci][alt] for alt in upper_part)
        upper = (upper_lhs, fine[k])
        lower = (coarse[k] - upper_lhs, fine[k + 1])
        for axiom in axioms:
            if not all_violations and axiom not in pending:
                continue
            hit = _violation(axiom, coarse, fine, k, upper, lower)
            if hit is not None:
                witness, position, lhs, rhs = hit
                found[axiom].append(
                    Certificate(
                        axiom,
                        _separation(mech.m, *entry),
                        witness,
                        position,
                        Fraction(lhs, mech.denominator),
                        Fraction(rhs, mech.denominator),
                        index,
                    )
                )
                pending.discard(axiom)
    return found


@dataclass
class AxiomReport:
    """Outcome of running every axiom checker against one mechanism."""

    mechanism: str
    m: int
    verdicts: dict[str, bool]
    certificates: dict[str, list[Certificate]]

    def to_json(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "m": self.m,
            "verdicts": dict(self.verdicts),
            "certificates": {
                axiom: [c.to_json() for c in certs]
                for axiom, certs in self.certificates.items()
            },
        }


def check_all_axioms(
    mech: MechanismTable, *, all_violations: bool = False
) -> AxiomReport:
    """Run the four base checkers in one scan and derive monotonic."""
    found = find_violations(mech, AXIOMS, all_violations=all_violations)
    verdicts = {axiom: not found[axiom] for axiom in AXIOMS}
    verdicts["monotonic"] = verdicts["responsive"] and verdicts["direct"]
    return AxiomReport(
        mechanism=mech.name, m=mech.m, verdicts=verdicts, certificates=found
    )
