"""The ladder between single separations and arbitrary pairs of orders.

Three nested moves connect a coarse order to a finer one:

- `Separation` (from `axioms`): one class splits into two parts.
- `MultiwaySeparation`: one class splits into L >= 2 ordered parts.
- `Refinement`: every class splits independently in place (possibly into
  one part, so the identity counts).

A multiway separation decomposes into a chain of plain separations in two
standard styles, and any pair of orders is connected through a path of
refinements derived from the straight-line segment between consistent
utility functions. Local strategyproofness along these moves is checked
here by one scan, `_local_sp_scan`, over a per-m layout of (coarse index,
fine index) pairs in canonical index space (`_move_layout`); the three
moves differ only in the move generator the layout is built from, which
is also the one behind the public enumerators. Orders are the canonical
instances of `enumerate_weak_orders`, so the scan builds no `WeakOrder`.
It runs on the table's integer rows with the same dominance test as
`verify.check_sp_bruteforce`; agreement with the full pairwise scan, and
with a `Fraction` reference scan, is what the test batteries exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator

from .axioms import Separation, _split_moves, as_separation
from .core import (
    Classes,
    UtilityFn,
    WeakOrder,
    canonical_utility,
    classes_index,
    consistent,
    enumerate_weak_orders,
    format_rational,
    order_from_utility,
    ordered_set_partitions,
    strictly_consistent,
)
from .mechanisms import MechanismTable
from .verify import SPViolation, _dominance_gap, _sp_violation

SPLIT_CHAIN_STYLES = ("top_first", "bottom_merge")


@dataclass(frozen=True)
class MultiwaySeparation:
    """Class ``kappa`` (1-based) of the coarse order split into ``parts``
    (two or more), in order; every other class untouched."""

    coarse: WeakOrder
    fine: WeakOrder
    kappa: int
    parts: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        return len(self.parts)

    def to_json(self) -> dict:
        return {
            "coarse": self.coarse.text,
            "fine": self.fine.text,
            "kappa": self.kappa,
            "parts": [list(p) for p in self.parts],
        }


@dataclass(frozen=True)
class Refinement:
    """The fine order splits each coarse class k into ``blocks[k-1]`` (at
    least one part each), concatenated in place."""

    coarse: WeakOrder
    fine: WeakOrder
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def to_json(self) -> dict:
        return {
            "coarse": self.coarse.text,
            "fine": self.fine.text,
            "blocks": [[list(p) for p in b] for b in self.blocks],
        }


def as_refinement(coarse: WeakOrder, fine: WeakOrder) -> Refinement | None:
    """Recognize whether ``fine`` refines ``coarse`` class by class, in
    place. The identity (fine == coarse) qualifies."""
    if coarse.m != fine.m:
        raise ValueError("orders over different alternative sets")
    blocks: list[tuple[tuple[int, ...], ...]] = []
    i = 0
    for cls in coarse.classes:
        target = set(cls)
        taken: list[tuple[int, ...]] = []
        covered: set[int] = set()
        while covered != target:
            if i >= fine.num_classes:
                return None
            part = fine.classes[i]
            if not set(part) <= target - covered:
                return None
            taken.append(part)
            covered |= set(part)
            i += 1
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


def _multiway_moves(classes: Classes) -> Iterator[tuple[int, Classes, Classes]]:
    """Each multiway separation of the order with these classes, in
    canonical order, as (0-based position of the split class, its parts,
    the fine order's classes)."""
    for k, cls in enumerate(classes):
        for parts in ordered_set_partitions(cls):
            if len(parts) > 1:
                yield k, parts, classes[:k] + parts + classes[k + 1 :]


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
    for k, parts, fine in _multiway_moves(coarse.classes):
        yield MultiwaySeparation(coarse, WeakOrder(coarse.m, fine), k + 1, parts)


def enumerate_refinements(
    coarse: WeakOrder, *, include_identity: bool = True
) -> Iterator[Refinement]:
    """All refinements of ``coarse``: the product of ordered partitions of
    each class."""
    for blocks, fine in _refinement_moves(coarse.classes):
        if include_identity or len(fine) > coarse.num_classes:
            yield Refinement(coarse, WeakOrder(coarse.m, fine), blocks)


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


@lru_cache(maxsize=24)
def _move_layout(
    m: int, moves: Callable[[Classes], Iterable[tuple]]
) -> tuple[tuple[int, int], ...]:
    """(coarse index, fine index) of every move at problem size m, in
    canonical order: coarse orders by enumeration index, then each order's
    moves as ``moves`` lists them, the fine order's classes last in each.
    Indices come from `classes_index`, so no `WeakOrder` is made. The
    identity refinement names no other order and is left out."""
    index = classes_index(m)
    return tuple(
        (ci, fi)
        for ci, order in enumerate(enumerate_weak_orders(m))
        for move in moves(order.classes)
        if (fi := index[move[-1]]) != ci
    )


def _local_sp_scan(
    mech: MechanismTable, moves: Callable[[Classes], Iterable[tuple]]
) -> SPViolation | None:
    """Check both dominance directions on each move of `_move_layout`, in
    canonical order: truthful at the move's coarse order against reporting
    its fine one, and vice versa."""
    rows = mech.rows
    orders = enumerate_weak_orders(mech.m)
    for ci, fi in _move_layout(mech.m, moves):
        coarse, fine = orders[ci], orders[fi]
        gap = _dominance_gap(coarse, rows[ci], rows[fi])
        if gap is not None:
            return _sp_violation(coarse, fine, gap, mech.denominator)
        gap = _dominance_gap(fine, rows[fi], rows[ci])
        if gap is not None:
            return _sp_violation(fine, coarse, gap, mech.denominator)
    return None


def check_separation_sp(mech: MechanismTable) -> SPViolation | None:
    """No profitable misreport across any single separation, either way."""
    return _local_sp_scan(mech, _split_moves)


def check_multiway_sp(mech: MechanismTable) -> SPViolation | None:
    """No profitable misreport across any multiway separation."""
    return _local_sp_scan(mech, _multiway_moves)


def check_refinement_sp(mech: MechanismTable) -> SPViolation | None:
    """No profitable misreport across any refinement pair."""
    return _local_sp_scan(mech, _refinement_moves)


@dataclass(frozen=True)
class UtilitySegment:
    """The straight line (1 - alpha) * start + alpha * end between two
    utility functions, together with every alpha in (0, 1) where some pair
    of alternatives, unequal elsewhere on the line, crosses."""

    start: UtilityFn
    end: UtilityFn
    breakpoints: tuple[Fraction, ...]


def blend_utilities(u: UtilityFn, v: UtilityFn, alpha: Fraction) -> UtilityFn:
    if u.m != v.m:
        raise ValueError("size mismatch")
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
    if u.m != v.m:
        raise ValueError("size mismatch")
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


@dataclass
class PathResult:
    """A walk from one order to another along the utility segment. Adjacent
    orders always differ by a refinement in one direction or the other;
    ``alphas`` holds, per order, a segment position whose blended utility
    induces it."""

    start: WeakOrder
    end: WeakOrder
    segment: UtilitySegment
    orders: list[WeakOrder]
    alphas: list[Fraction]

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
        return {
            "start": self.start.text,
            "end": self.end.text,
            "breakpoints": [format_rational(a) for a in self.segment.breakpoints],
            "orders": [order.text for order in self.orders],
            "alphas": [format_rational(a) for a in self.alphas],
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
    if start.m != end.m:
        raise ValueError("orders over different alternative sets")
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


def random_strict_utility(
    order: WeakOrder, rng: random.Random, grain: int = 24
) -> UtilityFn:
    """A random utility inducing exactly ``order``: the canonical one plus a
    per-class jitter in [0, 1) with denominator ``grain``, which keeps every
    between-class gap strictly positive."""
    K = order.num_classes
    values = [Fraction(0)] * order.m
    for k, cls in enumerate(order.classes, start=1):
        level = Fraction(K - k + 1) + Fraction(rng.randrange(grain), grain)
        for alt in cls:
            values[alt] = level
    u = UtilityFn(order.m, tuple(values))
    assert consistent(u, order)
    return u
