"""Exact-arithmetic foundations: weak preference orders over a finite set of
alternatives, lotteries, utility functions, and first-order stochastic
dominance.

Alternatives are the integers ``0 .. m-1``. A weak order is an ordered
partition of them into indifference classes, most preferred class first. All
probability and utility arithmetic uses `fractions.Fraction`; nothing in this
package touches floating point.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence


class FormatError(ValueError):
    """A textual order, rational, or lottery failed to parse."""


# the classes of a weak order, most preferred first
Classes = tuple[tuple[int, ...], ...]

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(-?\d+))?")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or plain ``"p"``) into an exact rational.

    >>> parse_rational("3/6")
    Fraction(1, 2)
    >>> parse_rational("-2")
    Fraction(-2, 1)
    """
    if not isinstance(text, str):
        raise FormatError(f"rational must be text, not {type(text).__name__}")
    token = text.strip()
    match = _RATIONAL_RE.fullmatch(token)
    if match is None:
        raise FormatError(f"malformed rational {text!r}")
    try:
        numerator = int(match.group(1))
        denominator = int(match.group(2)) if match.group(2) is not None else 1
    except ValueError:
        # beyond the interpreter's limit on digits per integer
        raise FormatError(f"rational of {len(token)} characters is too long") from None
    if denominator == 0:
        raise FormatError(f"zero denominator in rational {text!r}")
    return Fraction(numerator, denominator)


def read_json(path: str | os.PathLike, label: str, error=FormatError) -> object:
    """Parse a JSON file. Text that is not UTF-8, not JSON, or nested too
    deep for the parser raises ``error("<label>: <reason>")``; a file that
    cannot be opened raises `OSError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise error(f"{label}: {exc}") from None


def format_rational(value: Fraction | int) -> str:
    """Inverse of `parse_rational`: lowest terms, ``"p/q"`` or ``"p"``.
    Each int is printed through `Decimal`, which has no limit on digits:
    ``str(int)`` refuses more than 4,300, and exact utilities or path
    breakpoints can carry more."""
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


@dataclass(frozen=True)
class WeakOrder:
    """An ordered partition of ``{0, ..., m-1}``: disjoint non-empty
    indifference classes covering every alternative, most preferred first.
    Members within a class are stored sorted ascending, so equal orders
    compare equal structurally.

    Text form: classes joined by ``>``, members within a class by ``,``.
    ``"0,1>2"`` ranks 0 and 1 together above 2.
    """

    m: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one alternative")
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty indifference class")
            if any(cls[i] >= cls[i + 1] for i in range(len(cls) - 1)):
                raise ValueError(f"class {cls!r} not sorted strictly ascending")
            if seen & set(cls):
                raise ValueError(f"alternative repeated across classes: {cls!r}")
            seen.update(cls)
        if seen != set(range(self.m)):
            raise ValueError(f"classes do not partition 0..{self.m - 1}")

    @staticmethod
    def parse(text: str) -> "WeakOrder":
        """Parse the text form, e.g. ``WeakOrder.parse("0,1>2")``."""
        chunks = text.strip().split(">")
        classes = []
        for chunk in chunks:
            try:
                members = tuple(sorted(int(tok) for tok in chunk.split(",")))
            except ValueError:
                raise FormatError(f"malformed order {text!r}") from None
            classes.append(members)
        try:
            return WeakOrder(sum(len(c) for c in classes), tuple(classes))
        except ValueError as exc:
            raise FormatError(f"malformed order {text!r}: {exc}") from None

    @cached_property
    def text(self) -> str:
        return classes_text(self.classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def _class_index(self) -> tuple[int, ...]:
        index = [0] * self.m
        for k, cls in enumerate(self.classes, start=1):
            for alt in cls:
                index[alt] = k
        return tuple(index)

    def class_of(self, alt: int) -> int:
        """1-based rank of the class containing ``alt`` (1 = most preferred)."""
        self._check_alt(alt)
        return self._class_index[alt]

    def upper_contour(self, alt: int) -> frozenset[int]:
        """Alternatives weakly preferred to ``alt``: the union of every class
        ranked at or above the class of ``alt``."""
        k = self.class_of(alt)
        return frozenset(a for cls in self.classes[:k] for a in cls)

    def indifferent(self, a: int, b: int) -> bool:
        return self.class_of(a) == self.class_of(b)

    def _check_alt(self, alt: int) -> None:
        if not 0 <= alt < self.m:
            raise ValueError(f"alternative {alt} out of range for m={self.m}")

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"WeakOrder({self.text!r})"


def classes_text(classes: Classes) -> str:
    """The text form of a weak order given by its classes."""
    return ">".join(",".join(map(str, cls)) for cls in classes)


@lru_cache(maxsize=1024)
def class_splits(
    elems: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every split of the sorted tuple ``elems`` into a non-empty first
    part and a non-empty rest, as (first, rest), in ascending bitmask order
    of the first part (bit j stands for ``elems[j]``)."""
    n = len(elems)
    return tuple(
        (
            tuple(elems[j] for j in range(n) if mask >> j & 1),
            tuple(elems[j] for j in range(n) if not mask >> j & 1),
        )
        for mask in range(1, (1 << n) - 1)
    )


@lru_cache(maxsize=1024)
def _ordered_partitions(elems: tuple[int, ...]) -> tuple[Classes, ...]:
    """The ordered partitions of the sorted tuple ``elems``, in the order
    `ordered_set_partitions` documents. The first block with an empty rest
    (the whole of ``elems``) has the largest bitmask, so it comes last."""
    if not elems:
        return ((),)
    return tuple(
        (first,) + tail
        for first, rest in class_splits(elems)
        for tail in _ordered_partitions(rest)
    ) + ((elems,),)


def ordered_set_partitions(items: Sequence[int]) -> Iterator[Classes]:
    """Iterate over every ordered partition of ``items`` into non-empty
    blocks.

    Canonical order: the first block runs through all non-empty subsets of
    the sorted items in ascending bitmask order (bit j stands for the j-th
    smallest item), and the remainder is partitioned recursively the same
    way. The number of results is the ordered Bell number of ``len(items)``.
    The partitions of each item tuple are computed once and cached.
    """
    return iter(_ordered_partitions(tuple(sorted(items))))


# The largest m whose orders an input file or flag may make sepax enumerate:
# 47,293 orders at m=7, where m=8 has 545,835 and m=9 7,087,261.
ENUMERATION_MAX_M = 7


@lru_cache(maxsize=8)
def enumerate_weak_orders(m: int) -> tuple[WeakOrder, ...]:
    """All weak orders on m alternatives, in the canonical order of
    `ordered_set_partitions`. Counts grow as 1, 3, 13, 75, 541, 4683, ...
    (ordered Bell numbers), so keep m modest."""
    if m < 1:
        raise ValueError("need at least one alternative")
    return tuple(WeakOrder(m, part) for part in ordered_set_partitions(range(m)))


@lru_cache(maxsize=8)
def classes_index(m: int) -> dict[Classes, int]:
    """Map the classes of each weak order on m alternatives to the order's
    canonical position, so a move can name its fine order by index without
    building a `WeakOrder`."""
    return {order.classes: i for i, order in enumerate(enumerate_weak_orders(m))}


@lru_cache(maxsize=8)
def order_texts(m: int) -> tuple[str, ...]:
    """The text of each weak order on m alternatives, in canonical order,
    built from the classes alone."""
    return tuple(classes_text(order.classes) for order in enumerate_weak_orders(m))


def _as_fractions(values: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


@dataclass(frozen=True)
class Lottery:
    """A probability distribution over the m alternatives. Probabilities are
    exact rationals, nonnegative, summing to one."""

    m: int
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _as_fractions(self.probs))
        if len(self.probs) != self.m:
            raise ValueError(f"expected {self.m} probabilities, got {len(self.probs)}")
        if any(p.numerator < 0 for p in self.probs):
            raise ValueError("negative probability")
        total = sum(self.probs)
        if total != 1:
            raise ValueError(f"probabilities sum to {format_rational(total)}, not 1")

    @staticmethod
    def uniform(m: int) -> "Lottery":
        return Lottery(m, tuple(Fraction(1, m) for _ in range(m)))

    @staticmethod
    def unit(m: int, alt: int) -> "Lottery":
        """Point mass on a single alternative."""
        if not 0 <= alt < m:
            raise ValueError(f"alternative {alt} out of range for m={m}")
        return Lottery(m, tuple(Fraction(1 if a == alt else 0) for a in range(m)))

    def mass(self, alts: Iterable[int]) -> Fraction:
        """Total probability of a set of alternatives."""
        total = Fraction(0)
        for alt in set(alts):
            if not 0 <= alt < self.m:
                raise ValueError(f"alternative {alt} out of range for m={self.m}")
            total += self.probs[alt]
        return total

    @property
    def is_deterministic(self) -> bool:
        return all(p == 0 or p == 1 for p in self.probs)

    def texts(self) -> list[str]:
        return [format_rational(p) for p in self.probs]


@dataclass(frozen=True)
class UtilityFn:
    """A nonnegative exact-rational utility value per alternative."""

    m: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_fractions(self.values))
        if len(self.values) != self.m:
            raise ValueError(f"expected {self.m} utilities, got {len(self.values)}")
        if any(v < 0 for v in self.values):
            raise ValueError("negative utility")

    def expected(self, lottery: Lottery) -> Fraction:
        if lottery.m != self.m:
            raise ValueError("size mismatch")
        return sum(
            (v * p for v, p in zip(self.values, lottery.probs)), start=Fraction(0)
        )


def _check_same_m(*sized) -> int:
    sizes = {obj.m for obj in sized}
    if len(sizes) != 1:
        raise ValueError(f"mixed problem sizes: {sorted(sizes)}")
    return sizes.pop()


def fosd(x: Lottery, y: Lottery, order: WeakOrder) -> bool:
    """First-order stochastic dominance of ``x`` over ``y`` at ``order``:
    every upper-contour set receives at least as much probability under
    ``x`` as under ``y``. Contour sets are constant within an indifference
    class, so one cumulative check per class suffices."""
    _check_same_m(x, y, order)
    cum_x = Fraction(0)
    cum_y = Fraction(0)
    for cls in order.classes:
        for alt in cls:
            cum_x += x.probs[alt]
            cum_y += y.probs[alt]
        if cum_x < cum_y:
            return False
    return True


def consistent(u: UtilityFn, order: WeakOrder) -> bool:
    """Weak consistency of a utility function with an order: equal values
    within each class, weakly decreasing from one class to the next."""
    _check_same_m(u, order)
    previous = None
    for cls in order.classes:
        level = u.values[cls[0]]
        if any(u.values[alt] != level for alt in cls[1:]):
            return False
        if previous is not None and previous < level:
            return False
        previous = level
    return True


def strictly_consistent(u: UtilityFn, order: WeakOrder) -> bool:
    """Consistency with strict drops between classes: ``u`` induces exactly
    ``order``, ties only inside classes."""
    return consistent(u, order) and order_from_utility(u) == order


def canonical_utility(order: WeakOrder) -> UtilityFn:
    """The standard strictly consistent utility: class k (1-based, K classes)
    gets value K - k + 1, so the least preferred class gets 1."""
    K = order.num_classes
    values = [Fraction(0)] * order.m
    for k, cls in enumerate(order.classes, start=1):
        for alt in cls:
            values[alt] = Fraction(K - k + 1)
    return UtilityFn(order.m, tuple(values))


def order_from_utility(u: UtilityFn) -> WeakOrder:
    """The weak order a utility function induces: group alternatives by
    value, higher values first."""
    levels = sorted(set(u.values), reverse=True)
    classes = tuple(
        tuple(a for a in range(u.m) if u.values[a] == level) for level in levels
    )
    return WeakOrder(u.m, classes)
