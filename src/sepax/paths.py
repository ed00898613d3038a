"""The ladder between single separations and arbitrary pairs of orders.

Three nested moves connect a coarse order to a finer one:

- `Separation` (from `axioms`): one class splits into two parts.
- `MultiwaySeparation`: one class splits into L >= 2 ordered parts.
- `Refinement`: every class splits independently in place (possibly into
  one part, so the identity counts).

One class walk, `as_refinement`, recognizes all three: a multiway
separation is a refinement touching one class, a separation one of two parts.
`axioms.verify_certificate` instead matches a split to `_split_moves`.

A multiway separation decomposes into a chain of plain separations in two
standard styles, and any pair of orders is connected through a path of
refinements derived from the straight-line segment between consistent
utility functions. `check_refinement_sp` checks local strategyproofness
across every refinement pair, the widest of the three moves. No pair has
a profitable misreport exactly when the table passes the upper-set column
verdict `axioms._upper_set_verdict` (its docstring gives the argument,
which uses neither strategyproofness nor the paper's theorem), so a table
that passes it is settled without walking a pair. Any other table is
walked by `_refinement_walk`, which names the first violation: it walks
the refinements of each order with the move generator behind
`enumerate_refinements` and names each fine order by its canonical index
(`core.classes_index`). Orders are the class tuples of
`core.order_classes`, so the walk builds `WeakOrder`s only for the
violation it reports. It runs on the table's integer rows with the same
dominance test as `verify.check_sp_bruteforce`, `core._dominance_gap`;
agreement with the full pairwise scan, and with a `Fraction` reference
scan, is what the test batteries exercise.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction
from itertools import product

from .axioms import Separation, _upper_set_verdict
from .core import (
    Classes,
    FrozenRecord,
    Record,
    UtilityFn,
    WeakOrder,
    _check_same_m,
    _dominance_gap,
    canonical_utility,
    classes_index,
    consistent,
    json_value,
    order_classes,
    order_from_utility,
    ordered_set_partitions,
    strictly_consistent,
)
from .mechanisms import MechanismTable
from .verify import SPViolation, _sp_violation

SPLIT_CHAIN_STYLES = ("top_first", "bottom_merge")


class MultiwaySeparation(FrozenRecord):
    """Class ``kappa`` (1-based) of the coarse order split into ``parts``
    (two or more), in order; every other class untouched."""

    __slots__ = ("coarse", "fine", "kappa", "parts")

    @property
    def arity(self) -> int:
        return len(self.parts)


class Refinement(FrozenRecord):
    """The fine order splits each coarse class k into ``blocks[k-1]`` (at
    least one part each), concatenated in place."""

    __slots__ = ("coarse", "fine", "blocks")

    @property
    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


def as_refinement(coarse: WeakOrder, fine: WeakOrder) -> Refinement | None:
    """Recognize whether ``fine`` refines ``coarse`` class by class, in
    place. The identity (fine == coarse) qualifies."""
    _check_same_m(coarse, fine)
    blocks: list[tuple[tuple[int, ...], ...]] = []
    parts = iter(fine.classes)
    for cls in coarse.classes:
        remaining = set(cls)
        taken: list[tuple[int, ...]] = []
        while remaining:
            part = next(parts, None)
            if part is None or not remaining.issuperset(part):
                return None
            remaining.difference_update(part)
            taken.append(part)
        blocks.append(tuple(taken))
    return Refinement(coarse, fine, tuple(blocks))


def as_multiway_separation(
    coarse: WeakOrder, fine: WeakOrder
) -> MultiwaySeparation | None:
    """Recognize a refinement that touches exactly one class."""
    refinement = as_refinement(coarse, fine)
    if refinement is None:
        return None
    touched = [k for k, b in enumerate(refinement.blocks) if len(b) > 1]
    if len(touched) != 1:
        return None
    k = touched[0]
    return MultiwaySeparation(coarse, fine, k + 1, refinement.blocks[k])


def as_separation(coarse: WeakOrder, fine: WeakOrder) -> Separation | None:
    """Recognize a separation: a multiway separation into two parts."""
    multi = as_multiway_separation(coarse, fine)
    if multi is None or multi.arity != 2:
        return None
    return Separation(coarse, fine, multi.kappa, *multi.parts)


def _refinement_moves(
    classes: Classes,
) -> Iterator[tuple[tuple[Classes, ...], Classes]]:
    """Each refinement of the order with these classes, in canonical order,
    as (the blocks of each class, the fine order's classes). The identity,
    every class kept whole, comes last."""
    for blocks in product(*map(ordered_set_partitions, classes)):
        yield blocks, sum(blocks, ())


def enumerate_multiway_separations(
    coarse: WeakOrder,
) -> Iterator[MultiwaySeparation]:
    """All multiway separations with this coarse side, by class position and
    then the canonical order of ordered partitions of the class."""
    classes = coarse.classes
    for k, cls in enumerate(classes):
        for parts in ordered_set_partitions(cls):
            if len(parts) > 1:
                fine = WeakOrder._checked(coarse.m, classes[:k] + parts + classes[k + 1 :])
                yield MultiwaySeparation(coarse, fine, k + 1, parts)


def enumerate_refinements(coarse: WeakOrder) -> Iterator[Refinement]:
    """All refinements of ``coarse``, the identity among them: the product
    of ordered partitions of each class."""
    for blocks, fine in _refinement_moves(coarse.classes):
        yield Refinement(coarse, WeakOrder._checked(coarse.m, fine), blocks)


def split_chain(
    multi: MultiwaySeparation, style: str = "top_first"
) -> list[Separation]:
    """Decompose an L-way split into L - 1 single separations.

    top_first peels parts off the front: first split part 1 from the rest,
    then part 2 from the remainder, and so on. bottom_merge instead keeps
    parts 1 and 2 merged while peeling parts 3, 4, ... off the back, and
    splits the merged front pair last. Both chains run from the coarse to
    the fine order.
    """
    if style not in SPLIT_CHAIN_STYLES:
        raise ValueError(f"unknown style {style!r}")
    coarse = multi.coarse
    k = multi.kappa - 1
    before = coarse.classes[:k]
    after = coarse.classes[k + 1 :]
    parts = multi.parts
    L = len(parts)

    def merged(sub: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        return tuple(sorted(a for p in sub for a in p))

    chain = [coarse]
    if style == "top_first" or L == 2:
        for t in range(1, L):
            middle = parts[:t] + (merged(parts[t:]),)
            chain.append(WeakOrder(coarse.m, before + middle + after))
    else:
        front = (merged(parts[:2]),)
        for t in range(1, L - 1):
            middle = front + parts[2 : t + 1] + (merged(parts[t + 1 :]),)
            chain.append(WeakOrder(coarse.m, before + middle + after))
        chain.append(multi.fine)
    assert chain[-1] == multi.fine

    steps = []
    for left, right in zip(chain, chain[1:]):
        sep = as_separation(left, right)
        assert sep is not None, "chain step is not a separation"
        steps.append(sep)
    return steps


def check_refinement_sp(mech: MechanismTable) -> SPViolation | None:
    """No profitable misreport across any refinement pair: None when the
    table passes `axioms._upper_set_verdict`, else the first violation
    that `_refinement_walk` finds."""
    if _upper_set_verdict(mech):
        return None
    return _refinement_walk(mech)


def _refinement_walk(mech: MechanismTable) -> SPViolation | None:
    """The first profitable misreport across a refinement pair, or None.
    Coarse orders run by canonical index, each order's refinements as
    `_refinement_moves` lists them (the identity skipped); each pair is
    tested truthful at the coarse order against reporting the fine one,
    then the reverse, and the first gap is reported."""
    rows = mech.rows
    index = classes_index(mech.m)
    for ci, classes in enumerate(order_classes(mech.m)):
        for _, fine in _refinement_moves(classes):
            fi = index[fine]
            if fi == ci:
                continue
            gap = _dominance_gap(classes, rows[ci], rows[fi])
            if gap is not None:
                return _sp_violation(mech, ci, fi, gap)
            gap = _dominance_gap(fine, rows[fi], rows[ci])
            if gap is not None:
                return _sp_violation(mech, fi, ci, gap)
    return None


class UtilitySegment(FrozenRecord):
    """The straight line (1 - alpha) * start + alpha * end between two
    utility functions, together with every alpha in (0, 1) where some pair
    of alternatives, unequal elsewhere on the line, crosses."""

    __slots__ = ("start", "end", "breakpoints")


def blend_utilities(u: UtilityFn, v: UtilityFn, alpha: Fraction) -> UtilityFn:
    _check_same_m(u, v)
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha outside [0, 1]")
    return UtilityFn(
        u.m,
        tuple((1 - alpha) * a + alpha * b for a, b in zip(u.values, v.values)),
    )


def utility_segment(u: UtilityFn, v: UtilityFn) -> UtilitySegment:
    """Collect the interior crossing points. A pair (a, b) crosses where
    (1 - alpha) * (u_a - u_b) + alpha * (v_a - v_b) = 0; pairs with equal
    values along the whole segment never produce a breakpoint."""
    _check_same_m(u, v)
    points: set[Fraction] = set()
    for a in range(u.m):
        for b in range(a + 1, u.m):
            du = u.values[a] - u.values[b]
            dv = v.values[a] - v.values[b]
            if du == dv:
                continue
            alpha = du / (du - dv)
            if 0 < alpha < 1:
                points.add(alpha)
    return UtilitySegment(u, v, tuple(sorted(points)))


class PathResult(Record):
    """A walk from one order to another along the utility segment. Adjacent
    orders always differ by a refinement in one direction or the other;
    ``alphas`` holds, per order, a segment position whose blended utility
    induces it."""

    __slots__ = ("start", "end", "segment", "orders", "alphas")

    def steps(self) -> list[tuple[str, Refinement]]:
        """Per adjacent pair: ("refine", r) when the right order refines the
        left, ("coarsen", r) when the left refines the right."""
        out = []
        for left, right in zip(self.orders, self.orders[1:]):
            refinement = as_refinement(left, right)
            if refinement is not None and not refinement.is_identity:
                out.append(("refine", refinement))
                continue
            refinement = as_refinement(right, left)
            if refinement is None or refinement.is_identity:
                raise RuntimeError(
                    f"path step {left.text} -> {right.text} is not a refinement"
                )
            out.append(("coarsen", refinement))
        return out

    def to_json(self) -> dict:
        # the segment's breakpoints in place of the segment, and the steps
        return {
            "start": json_value(self.start),
            "end": json_value(self.end),
            "breakpoints": json_value(self.segment.breakpoints),
            "orders": json_value(self.orders),
            "alphas": json_value(self.alphas),
            "steps": [
                {"direction": direction, **refinement.to_json()}
                for direction, refinement in self.steps()
            ],
        }


def refinement_path(
    start: WeakOrder,
    end: WeakOrder,
    u: UtilityFn | None = None,
    v: UtilityFn | None = None,
) -> PathResult:
    """Walk from ``start`` to ``end`` through the orders induced along the
    utility segment: sample every breakpoint and every open interval between
    them, then collapse consecutive duplicates.

    ``u`` and ``v`` default to the canonical utilities; when given they must
    induce exactly ``start`` and ``end``. Between two sampled positions the
    induced order can only gain or lose ties all at once, which is what
    makes every adjacent pair a refinement one way or the other.
    """
    _check_same_m(start, end)
    if u is None:
        u = canonical_utility(start)
    if v is None:
        v = canonical_utility(end)
    if not strictly_consistent(u, start):
        raise ValueError("start utility does not induce the start order")
    if not strictly_consistent(v, end):
        raise ValueError("end utility does not induce the end order")

    segment = utility_segment(u, v)
    samples: list[Fraction] = [Fraction(0)]
    previous = Fraction(0)
    for bp in segment.breakpoints:
        samples.append((previous + bp) / 2)
        samples.append(bp)
        previous = bp
    samples.append((previous + 1) / 2)
    samples.append(Fraction(1))

    orders: list[WeakOrder] = []
    alphas: list[Fraction] = []
    for alpha in samples:
        order = order_from_utility(blend_utilities(u, v, alpha))
        if not orders or order != orders[-1]:
            orders.append(order)
            alphas.append(alpha)
    return PathResult(start=start, end=end, segment=segment, orders=orders, alphas=alphas)


def random_strict_utility(order: WeakOrder, rng: random.Random) -> UtilityFn:
    """A random utility inducing exactly ``order``: the canonical one plus a
    per-class jitter in [0, 1) with denominator 24, which keeps every
    between-class gap strictly positive."""
    K = order.num_classes
    levels = [Fraction(K - k) + Fraction(rng.randrange(24), 24) for k in range(K)]
    u = UtilityFn(order.m, tuple(levels[k - 1] for k in order._class_index))
    assert consistent(u, order)
    return u
