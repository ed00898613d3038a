"""Mechanism tables: total maps from weak orders to lotteries, their JSON
file format, built-in generator mechanisms, and random samplers used by the
test batteries.

File format (orders listed in canonical enumeration order)::

    {
      "m": 3,
      "entries": [
        {"order": "0>1>2", "lottery": ["1/2", "1/3", "1/6"]},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple

from .core import (
    FormatError,
    Lottery,
    WeakOrder,
    enumerate_weak_orders,
    format_rational,
    parse_rational,
)


class MechanismFormatError(ValueError):
    """A mechanism file or table is structurally invalid."""


class DuplicateOrderError(MechanismFormatError):
    """The same order appears in more than one entry."""


class MissingOrderError(MechanismFormatError):
    """The table has no lottery for some order in its domain."""


class MalformedRationalError(MechanismFormatError):
    """A lottery entry is not a valid ``p/q`` rational."""


class InvalidLotteryError(MechanismFormatError):
    """A lottery has negative entries or does not sum to one."""


class IntegerView(NamedTuple):
    """A table over one common denominator D: ``rows[i][a] == D * p`` where
    p is the probability of alternative a at the i-th order in canonical
    enumeration order."""

    denominator: int
    rows: tuple[tuple[int, ...], ...]


class MechanismTable:
    """A mechanism for a fixed problem size m: one lottery per weak order.
    Treat tables as immutable once built."""

    def __init__(
        self, m: int, entries: Mapping[WeakOrder, Lottery], name: str = ""
    ) -> None:
        self.m = m
        self.name = name
        self._entries = dict(entries)

    def lottery(self, order: WeakOrder) -> Lottery:
        try:
            return self._entries[order]
        except KeyError:
            raise MissingOrderError(
                f"no lottery for order {order.text!r}"
            ) from None

    def validate(self) -> None:
        """Check totality over the canonical domain and internal sizes."""
        domain = enumerate_weak_orders(self.m)
        for order in domain:
            if order not in self._entries:
                raise MissingOrderError(f"no lottery for order {order.text!r}")
        if len(self._entries) != len(domain):
            extras = set(self._entries) - set(domain)
            text = sorted(o.text for o in extras)
            raise MechanismFormatError(f"entries outside the domain: {text}")
        for order, lottery in self._entries.items():
            if order.m != self.m or lottery.m != self.m:
                raise MechanismFormatError(
                    f"size mismatch at order {order.text!r}"
                )

    def items(self) -> Iterator[tuple[WeakOrder, Lottery]]:
        """Entries in canonical enumeration order."""
        for order in enumerate_weak_orders(self.m):
            yield order, self.lottery(order)

    @property
    def is_deterministic(self) -> bool:
        return all(lot.is_deterministic for lot in self._entries.values())

    @cached_property
    def integer_view(self) -> IntegerView:
        """The table scaled once to integers, so that every verdict compares
        sums of ``int`` entries. Needs a total table; call `validate` first."""
        lotteries = [lottery.probs for _, lottery in self.items()]
        denominator = math.lcm(
            *{p.denominator for probs in lotteries for p in probs}
        )
        rows = tuple(
            tuple(p.numerator * (denominator // p.denominator) for p in probs)
            for probs in lotteries
        )
        return IntegerView(denominator, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MechanismTable):
            return NotImplemented
        return self.m == other.m and self._entries == other._entries

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"MechanismTable({label}, m={self.m}, {len(self._entries)} entries)"


def mechanism_to_json(mech: MechanismTable) -> dict:
    return {
        "m": mech.m,
        "entries": [
            {"order": order.text, "lottery": lottery.texts()}
            for order, lottery in mech.items()
        ],
    }


def mechanism_from_json(data: object, name: str = "") -> MechanismTable:
    """Parse and fully validate the mechanism wire format. Raises a specific
    `MechanismFormatError` subclass naming the offending entry."""
    if not isinstance(data, dict):
        raise MechanismFormatError("top level must be an object")
    m = data.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise MechanismFormatError(f"bad problem size m={m!r}")
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise MechanismFormatError("entries must be a list")

    entries: dict[WeakOrder, Lottery] = {}
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise MechanismFormatError(f"entry {i} must be an object")
        order_text = raw.get("order")
        if not isinstance(order_text, str):
            raise MechanismFormatError(f"entry {i}: missing order text")
        try:
            order = WeakOrder.parse(order_text)
        except FormatError as exc:
            raise MechanismFormatError(f"entry {i}: {exc}") from None
        if order.m != m:
            raise MechanismFormatError(
                f"entry {i}: order {order_text!r} is not over 0..{m - 1}"
            )
        if order in entries:
            raise DuplicateOrderError(
                f"entry {i}: duplicate order {order.text!r}"
            )
        raw_lottery = raw.get("lottery")
        if not isinstance(raw_lottery, list) or len(raw_lottery) != m:
            raise MechanismFormatError(
                f"entry {i}: lottery must list {m} probabilities"
            )
        probs = []
        for position, token in enumerate(raw_lottery):
            if not isinstance(token, str):
                raise MalformedRationalError(
                    f"entry {i} position {position}: probabilities are strings"
                )
            try:
                probs.append(parse_rational(token))
            except FormatError:
                raise MalformedRationalError(
                    f"entry {i} position {position}: malformed rational {token!r}"
                ) from None
        if any(p < 0 for p in probs):
            raise InvalidLotteryError(
                f"entry {i} (order {order.text!r}): negative probability"
            )
        total = sum(probs)
        if total != 1:
            raise InvalidLotteryError(
                f"entry {i} (order {order.text!r}): probabilities sum to "
                f"{format_rational(total)}, not 1"
            )
        entries[order] = Lottery(m, tuple(probs))

    for order in enumerate_weak_orders(m):
        if order not in entries:
            raise MissingOrderError(f"no lottery for order {order.text!r}")
    return MechanismTable(m, entries, name=name)


def load_mechanism(path: str | os.PathLike) -> MechanismTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MechanismFormatError(f"not valid JSON: {exc}") from None
    name = os.path.splitext(os.path.basename(path))[0]
    return mechanism_from_json(data, name=name)


def save_mechanism(mech: MechanismTable, path: str | os.PathLike) -> None:
    """Validate the table, then write it atomically."""
    mech.validate()
    write_atomic(path, json.dumps(mechanism_to_json(mech), indent=2) + "\n")


def write_atomic(path: str | os.PathLike, payload: str) -> None:
    """Write text so that the target file appears complete or not at all."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _table(m: int, rule, name: str) -> MechanismTable:
    entries = {order: rule(order) for order in enumerate_weak_orders(m)}
    return MechanismTable(m, entries, name=name)


def uniform_lottery(m: int) -> MechanismTable:
    """Ignores the report entirely; constant uniform lottery."""
    return _table(m, lambda order: Lottery.uniform(m), "uniform_lottery")


def top_class_uniform(m: int) -> MechanismTable:
    """Spreads all probability uniformly over the reported top class."""

    def rule(order: WeakOrder) -> Lottery:
        top = order.classes[0]
        share = Fraction(1, len(top))
        return Lottery(
            m, tuple(share if a in top else Fraction(0) for a in range(m))
        )

    return _table(m, rule, "top_class_uniform")


def min_top_dictator(m: int) -> MechanismTable:
    """Deterministic: picks the smallest-numbered alternative in the
    reported top class."""
    return _table(
        m, lambda order: Lottery.unit(m, min(order.classes[0])), "min_top_dictator"
    )


def rank_score(m: int) -> MechanismTable:
    """Scores alternative a as m - r(a) - (|class(a)| - 1) / 2, where r(a)
    counts the alternatives strictly preferred to a, then normalizes scores
    into a lottery. Ties share the average of the positions they occupy."""

    def rule(order: WeakOrder) -> Lottery:
        scores = [Fraction(0)] * m
        preceding = 0
        for cls in order.classes:
            score = Fraction(m) - preceding - Fraction(len(cls) - 1, 2)
            for alt in cls:
                scores[alt] = score
            preceding += len(cls)
        total = sum(scores)
        return Lottery(m, tuple(s / total for s in scores))

    return _table(m, rule, "rank_score")


def k_sensitive_boost(m: int) -> MechanismTable:
    """With K reported classes, puts K/(K+1) uniformly on the top class and
    1/(K+1) uniformly on the rest; everything on the top class when K = 1.
    The top-class boost grows with how finely the rest is subdivided."""

    def rule(order: WeakOrder) -> Lottery:
        K = order.num_classes
        top = set(order.classes[0])
        if K == 1:
            return Lottery.uniform(m)
        top_share = Fraction(K, K + 1) / len(top)
        rest_share = Fraction(1, K + 1) / (m - len(top))
        return Lottery(
            m,
            tuple(top_share if a in top else rest_share for a in range(m)),
        )

    return _table(m, rule, "k_sensitive_boost")


ZOO = {
    "uniform_lottery": uniform_lottery,
    "top_class_uniform": top_class_uniform,
    "min_top_dictator": min_top_dictator,
    "rank_score": rank_score,
    "k_sensitive_boost": k_sensitive_boost,
}


def random_mechanism(
    m: int, rng: random.Random, weight_cap: int = 12, name: str = ""
) -> MechanismTable:
    """A random table: per order, draw integer weights in [0, weight_cap]
    and normalize. Exercises degenerate entries (zeros) on purpose."""
    entries = {}
    for order in enumerate_weak_orders(m):
        weights = [rng.randint(0, weight_cap) for _ in range(m)]
        if not any(weights):
            weights[rng.randrange(m)] = 1
        total = sum(weights)
        entries[order] = Lottery(m, tuple(Fraction(w, total) for w in weights))
    return MechanismTable(m, entries, name=name or "random")


def random_deterministic_mechanism(
    m: int, rng: random.Random, name: str = ""
) -> MechanismTable:
    """A random deterministic table: per order, a point mass on a uniformly
    chosen alternative."""
    entries = {
        order: Lottery.unit(m, rng.randrange(m))
        for order in enumerate_weak_orders(m)
    }
    return MechanismTable(m, entries, name=name or "random-deterministic")
