"""Exact-arithmetic foundations: weak preference orders over a finite set of
alternatives, lotteries, utility functions, and first-order stochastic
dominance, whose one test, `_dominance_gap`, runs on a lottery's
`Fraction`s in `fosd` and on a table's ``int`` rows in the SP scans.

Alternatives are the integers ``0 .. m-1``. A weak order is an ordered
partition of them into indifference classes, most preferred class first. All
probability and utility arithmetic uses `fractions.Fraction`; nothing in this
package touches floating point.

Every scan, loader and table builder runs on `order_classes(m)`, the class
tuples of all orders in canonical order, and builds a `WeakOrder` only for
an order it reports; `enumerate_weak_orders` is the same domain as
`WeakOrder`s, for callers.

Every record is a `Record`: one constructor binds its fields, and one
encoder, `Record.to_json`, writes them by name through `json_value`, which
gives a rational as ``"p/q"`` text and an order as its text form.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable, Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter


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


def json_value(value: object) -> object:
    """The JSON form of a field value: a bool, int, str or None as it is, a
    `Fraction` through `format_rational`, a dict with each value encoded, a
    tuple or list as a list of encoded members, and anything else (a
    record or a `WeakOrder`) as its own ``to_json()``. Dispatch is on the
    exact type, which costs less than an ``isinstance`` chain."""
    kind = type(value)
    if kind is bool or kind is int or kind is str or value is None:
        return value
    if kind is Fraction:
        return format_rational(value)
    if kind is dict:
        return {key: json_value(item) for key, item in value.items()}
    if kind is tuple or kind is list:
        return [json_value(item) for item in value]
    return value.to_json()


class Record:
    """Base of sepax's records: plain classes whose fields are their own
    ``__slots__`` (bar ``__dict__``), in order. One constructor serves every
    record: it takes the fields by position or by name, and a field listed
    in ``_defaults`` may be omitted (a default that is a type, such as
    ``dict``, is called, so each record gets its own). A record equals
    another only of the same class with equal field values, shows as
    ``Name(field=value, ...)``, is unhashable, and encodes as its fields
    by name, in order, each through `json_value`."""

    __slots__ = ()
    __hash__ = None
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(f for f in cls.__dict__.get("__slots__", ()) if f != "__dict__")
        if fields:
            cls._fields = fields
            cls._field_values = attrgetter(*fields)
            # the slots' own setters, which bypass FrozenRecord.__setattr__
            cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)

    def __init__(self, /, *values, **named) -> None:
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._bind(values, named)
        for setter, value in zip(setters, values):
            setter(self, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> list:
        """The field values of a call that is not one value per field in
        order, with defaults filled in."""
        name, fields = cls.__qualname__, cls._fields
        if len(values) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, not {len(values)}")
        # a name outside the fields left after the positional values is
        # unknown or given twice
        for field in named.keys() - fields[len(values) :]:
            problem = "got multiple values for" if field in fields else "has no"
            raise TypeError(f"{name}() {problem} field {field!r}")
        values = list(values)
        for field in fields[len(values) :]:
            if field in named:
                values.append(named[field])
            elif field in cls._defaults:
                default = cls._defaults[field]
                values.append(default() if isinstance(default, type) else default)
            else:
                raise TypeError(f"{name}() missing field {field!r}")
        return values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == other._field_values(other)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def to_json(self) -> dict:
        return dict(zip(self._fields, map(json_value, self._field_values(self))))


class FrozenRecord(Record):
    """A record whose fields are set once, through the slots' own setters
    (``_setters``), and hashed by value."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy restore slots through setattr, which is refused
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class WeakOrder(FrozenRecord):
    """An ordered partition of ``{0, ..., m-1}``: disjoint non-empty
    indifference classes covering every alternative, most preferred first.
    Members within a class are stored sorted ascending, so equal orders
    compare equal structurally.

    Text form: classes joined by ``>``, members within a class by ``,``.
    ``"0,1>2"`` ranks 0 and 1 together above 2.
    """

    # __dict__ holds the cached properties
    __slots__ = ("m", "classes", "__dict__")

    def __init__(self, m: int, classes: Classes) -> None:
        if m < 1:
            raise ValueError("need at least one alternative")
        if type(classes) is not tuple:
            # read a one-shot iterable once
            classes = tuple(classes)
        # one whole-order test accepts a tuple of sorted tuples; the loop
        # below runs only on other input, to name the fault or to accept
        # the same partition in another form (lists of classes, say), which
        # is then stored as tuples
        try:
            members = sorted([a for cls in classes for a in cls])
            canonical = members == list(range(m)) and all(
                cls and cls == tuple(sorted(cls)) for cls in classes
            )
        except TypeError:
            canonical = False
        if not canonical:
            seen: set[int] = set()
            for cls in classes:
                if not cls:
                    raise ValueError("empty indifference class")
                if any(cls[i] >= cls[i + 1] for i in range(len(cls) - 1)):
                    raise ValueError(f"class {cls!r} not sorted strictly ascending")
                if seen & set(cls):
                    raise ValueError(f"alternative repeated across classes: {cls!r}")
                seen.update(cls)
            if seen != set(range(m)):
                raise ValueError(f"classes do not partition 0..{m - 1}")
            classes = tuple(map(tuple, classes))
        # the slots' own setters, not super().__init__: every order of
        # `enumerate_weak_orders` is built here, and that call would cost
        # about 0.5 us more per order
        set_m, set_classes = self._setters
        set_m(self, m)
        set_classes(self, classes)

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
        # each alternative's 1-based class rank: the one rank table
        index = [0] * self.m
        for k, cls in enumerate(self.classes, start=1):
            for alt in cls:
                index[alt] = k
        return tuple(index)

    def class_of(self, alt: int) -> int:
        """1-based rank of the class containing ``alt`` (1 = most preferred)."""
        _check_alt(alt, self.m)
        return self._class_index[alt]

    def upper_contour(self, alt: int) -> frozenset[int]:
        """Alternatives weakly preferred to ``alt``: the union of every class
        ranked at or above the class of ``alt``."""
        k = self.class_of(alt)
        return frozenset(a for cls in self.classes[:k] for a in cls)

    def indifferent(self, a: int, b: int) -> bool:
        return self.class_of(a) == self.class_of(b)

    def __str__(self) -> str:
        return self.text

    def to_json(self) -> str:
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
def order_classes(m: int) -> tuple[Classes, ...]:
    """The classes of every weak order on m alternatives, in the canonical
    order of `ordered_set_partitions`: the domain every scan, loader and
    table builder runs on, with no `WeakOrder` built. Counts grow as 1, 3,
    13, 75, 541, 4683, ... (ordered Bell numbers), so keep m modest."""
    if m < 1:
        raise ValueError("need at least one alternative")
    return _ordered_partitions(tuple(range(m)))


@lru_cache(maxsize=8)
def enumerate_weak_orders(m: int) -> tuple[WeakOrder, ...]:
    """All weak orders on m alternatives, as `WeakOrder`s in the canonical
    order of `order_classes`."""
    return tuple(WeakOrder(m, classes) for classes in order_classes(m))


@lru_cache(maxsize=8)
def classes_index(m: int) -> dict[Classes, int]:
    """Map the classes of each weak order on m alternatives to the order's
    canonical position, so a move can name its fine order by index without
    building a `WeakOrder`."""
    return {classes: i for i, classes in enumerate(order_classes(m))}


@lru_cache(maxsize=8)
def order_texts(m: int) -> tuple[str, ...]:
    """The text of each weak order on m alternatives, in canonical order,
    built the way `_ordered_partitions` builds the orders: each first
    class's text is joined to each text of the orders on its rest, and
    those are built once per rest, for this call alone."""
    if m < 1:
        raise ValueError("need at least one alternative")
    memo: dict[tuple[int, ...], list[str]] = {}

    def texts(elems: tuple[int, ...]) -> list[str]:
        if elems not in memo:
            out: list[str] = []
            for first, rest in class_splits(elems):
                head = ",".join(map(str, first)) + ">"
                out += [head + tail for tail in texts(rest)]
            out.append(",".join(map(str, elems)))
            memo[elems] = out
        return memo[elems]

    return tuple(texts(tuple(range(m))))


@lru_cache(maxsize=8)
def _text_index(m: int) -> dict[str, int]:
    return {text: i for i, text in enumerate(order_texts(m))}


def order_index(text: str, m: int) -> int:
    """Canonical position, among the weak orders on m alternatives, of the
    order written ``text``. A canonical text is one dict lookup; any other
    spelling ("1,0>2", padding) goes through `WeakOrder.parse`. Raises
    `FormatError` when the text is no weak order over 0..m-1."""
    i = _text_index(m).get(text)
    if i is None:
        order = WeakOrder.parse(text)
        if order.m != m:
            raise FormatError(f"order {text!r} is not over 0..{m - 1}")
        i = classes_index(m)[order.classes]
    return i


def _as_fractions(values: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


class Lottery(FrozenRecord):
    """A probability distribution over the m alternatives. Probabilities are
    exact rationals, nonnegative, summing to one."""

    __slots__ = ("m", "probs")

    def __init__(self, m: int, probs: Iterable[Fraction | int]) -> None:
        probs = _as_fractions(probs)
        if len(probs) != m:
            raise ValueError(f"expected {m} probabilities, got {len(probs)}")
        if any(p.numerator < 0 for p in probs):
            raise ValueError("negative probability")
        total = sum(probs)
        if total != 1:
            raise ValueError(f"probabilities sum to {format_rational(total)}, not 1")
        super().__init__(m, probs)

    @staticmethod
    def uniform(m: int) -> "Lottery":
        return Lottery(m, tuple(Fraction(1, m) for _ in range(m)))

    @staticmethod
    def unit(m: int, alt: int) -> "Lottery":
        """Point mass on a single alternative."""
        _check_alt(alt, m)
        return Lottery(m, tuple(Fraction(1 if a == alt else 0) for a in range(m)))

    def mass(self, alts: Iterable[int]) -> Fraction:
        """Total probability of a set of alternatives."""
        total = Fraction(0)
        for alt in set(alts):
            _check_alt(alt, self.m)
            total += self.probs[alt]
        return total

    @property
    def is_deterministic(self) -> bool:
        return all(p == 0 or p == 1 for p in self.probs)

    def texts(self) -> list[str]:
        return [format_rational(p) for p in self.probs]


class UtilityFn(FrozenRecord):
    """A nonnegative exact-rational utility value per alternative."""

    __slots__ = ("m", "values")

    def __init__(self, m: int, values: Iterable[Fraction | int]) -> None:
        values = _as_fractions(values)
        if len(values) != m:
            raise ValueError(f"expected {m} utilities, got {len(values)}")
        if any(v < 0 for v in values):
            raise ValueError("negative utility")
        super().__init__(m, values)

    def expected(self, lottery: Lottery) -> Fraction:
        _check_same_m(self, lottery)
        return sum(
            (v * p for v, p in zip(self.values, lottery.probs)), start=Fraction(0)
        )


def _check_alt(alt: int, m: int) -> None:
    """Raise `ValueError` unless ``alt`` is one of the alternatives 0..m-1."""
    if not 0 <= alt < m:
        raise ValueError(f"alternative {alt} out of range for m={m}")


def _check_same_m(*sized) -> int:
    """The one problem size ``m`` of ``sized``; mixed sizes raise `ValueError`."""
    sizes = {obj.m for obj in sized}
    if len(sizes) != 1:
        raise ValueError(f"mixed problem sizes: {sorted(sizes)}")
    return sizes.pop()


def _dominance_gap(
    truth: Classes, truthful: Sequence, other: Sequence
) -> tuple[int, int | Fraction, int | Fraction] | None:
    """First class of the true order, given by its class tuple ``truth``,
    where the truthful side's upper-contour mass falls below the other's,
    as (witness, the two masses) with the class's smallest member as
    witness, or None if the truthful side dominates. Contour sets are
    constant within a class, so one check per class suffices. Entries are
    a lottery's `Fraction`s or a table's ``int`` rows (masses scaled by D)."""
    cum_t = cum_o = 0
    for cls in truth:
        for alt in cls:
            cum_t += truthful[alt]
            cum_o += other[alt]
        if cum_t < cum_o:
            return cls[0], cum_t, cum_o
    return None


def fosd(x: Lottery, y: Lottery, order: WeakOrder) -> bool:
    """First-order stochastic dominance of ``x`` over ``y`` at ``order``:
    every upper-contour set receives at least as much probability under
    ``x`` as under ``y``."""
    _check_same_m(x, y, order)
    return _dominance_gap(order.classes, x.probs, y.probs) is None


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
    return UtilityFn(order.m, tuple(Fraction(K - k + 1) for k in order._class_index))


def order_from_utility(u: UtilityFn) -> WeakOrder:
    """The weak order a utility function induces: group alternatives by
    value, higher values first."""
    levels = sorted(set(u.values), reverse=True)
    classes = tuple(
        tuple(a for a in range(u.m) if u.values[a] == level) for level in levels
    )
    return WeakOrder(u.m, classes)
