"""Mechanism tables: total maps from weak orders to lotteries, their JSON
file format, built-in generator mechanisms, and random samplers used by the
test batteries.

A table is one common denominator and one row of ints per order, built by
its one constructor from one ``(den, ints)`` pair per order; the loader,
the zoo rules and the samplers hand it those pairs directly, and
`Fraction`s appear only in JSON text and in `Lottery` values for callers.

File format (orders listed in canonical enumeration order; `save_mechanism`
writes one entry per line, and any JSON layout loads)::

    {"m": 3, "entries": [
    {"order": "0>1>2", "lottery": ["1/2", "1/3", "1/6"]},
    ...
    ]}

Tables are built and loaded on the classes of `order_classes`, with no
`WeakOrder` made; `lottery` and `items` build them for callers.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain

from .core import (
    ENUMERATION_MAX_M,
    Classes,
    FormatError,
    Lottery,
    WeakOrder,
    classes_index,
    enumerate_weak_orders,
    format_rational,
    order_classes,
    order_texts,
    parse_rational,
    read_json,
)


# A table holds rows x m entries scaled to one common denominator D, so its
# memory grows as that product times bits(D), and D as the lcm of the rows'
# denominators. An m=6 table whose 4,683 rows each have their own 6-digit
# prime denominator (2.2e9 by this measure) took 2.8 s and 309 MB to check
# on a 2-vCPU host (CPython 3.11); the benchmark's tables stay below 3e6 and
# the zoo's below 4.3e5. The bound admits D of about 9,500 bits at m=6 and
# 800 at m=7.
TABLE_MAX_BITS = 1 << 28


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


def unit_row(m: int, alt: int) -> tuple[int, ...]:
    """The integer row of a point mass on ``alt``, over denominator 1."""
    return tuple(int(a == alt) for a in range(m))


class MechanismTable:
    """A mechanism for a fixed problem size m: one lottery per weak order.

    A table is ``(m, denominator, rows)``: D the least common denominator
    of its probabilities and ``rows`` one tuple of ints per order in
    canonical enumeration order, with ``rows[i][a] == D * p`` for the
    probability p of alternative a at the i-th order. The constructor
    checks that every order of the domain has one lottery over the m
    alternatives, so a table is valid once built. `lottery` and `items`
    build `Lottery` values from the rows on request. Treat tables as
    immutable."""

    def __init__(
        self, m: int, rows: Iterable[tuple[int, Sequence[int]] | None], name: str = ""
    ) -> None:
        """A table from one ``(den, ints)`` pair per order, in canonical
        enumeration order: the lottery at that order is ints / den. Checks
        the pairs, naming the first missing (None) order, then rows past
        the domain, then a row of the wrong size (all three
        `MechanismFormatError`), then a row that is not a lottery
        (`ValueError`); then folds the least common denominator of the
        fractions they hold, refusing it as soon as rows x m x its bits
        passes `TABLE_MAX_BITS`, and scales the pairs to it once."""
        pairs = list(rows)
        texts = order_texts(m)
        outside = [f"row {i}" for i in range(len(texts), len(pairs))]
        pairs = pairs[: len(texts)] + [None] * (len(texts) - len(pairs))
        if None in pairs:
            text = texts[pairs.index(None)]
            raise MissingOrderError(f"no lottery for order {text!r}")
        if outside:
            raise MechanismFormatError(f"entries outside the domain: {outside}")
        for text, (_, row) in zip(texts, pairs):
            if len(row) != m:
                raise MechanismFormatError(f"size mismatch at order {text!r}")
        reduced = []
        for den, row in pairs:
            if den < 1 or min(row) < 0 or sum(row) != den:
                raise ValueError(f"row {list(row)} over {den} is not a lottery")
            reduced.append(den // math.gcd(den, *row))
        D = 1
        for den in reduced:
            if D % den:
                D = math.lcm(D, den)
                bits = D.bit_length()
                if len(pairs) * m * bits > TABLE_MAX_BITS:
                    raise MechanismFormatError(
                        f"{len(pairs)} rows x {m} entries x {bits} bits of common"
                        f" denominator = {len(pairs) * m * bits} bits, over the"
                        f" bound of {TABLE_MAX_BITS}"
                    )
        self.m, self.name, self.denominator = m, name, D
        self.rows = tuple(tuple(x * D // den for x in row) for den, row in pairs)

    def lottery(self, order: WeakOrder) -> Lottery:
        i = classes_index(self.m).get(order.classes)
        if i is None:
            raise MissingOrderError(f"no lottery for order {order.text!r}")
        D = self.denominator
        return Lottery(self.m, tuple(Fraction(x, D) for x in self.rows[i]))

    def items(self) -> Iterator[tuple[WeakOrder, Lottery]]:
        """Entries in canonical enumeration order."""
        for order in enumerate_weak_orders(self.m):
            yield order, self.lottery(order)

    @property
    def is_deterministic(self) -> bool:
        # D is least, so every entry is 0 or 1 exactly when D is 1
        return self.denominator == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MechanismTable):
            return NotImplemented
        return (self.m, self.denominator, self.rows) == (
            other.m, other.denominator, other.rows
        )

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"MechanismTable({label}, m={self.m}, {len(self.rows)} entries)"


def mechanism_to_json(mech: MechanismTable) -> dict:
    """The wire format; each distinct probability is formatted once."""
    texts = {
        x: format_rational(Fraction(x, mech.denominator))
        for x in set(chain.from_iterable(mech.rows))
    }
    return {
        "m": mech.m,
        "entries": [
            {"order": text, "lottery": [texts[x] for x in row]}
            for text, row in zip(order_texts(mech.m), mech.rows)
        ],
    }


def mechanism_from_json(data: object, name: str = "") -> MechanismTable:
    """Parse and fully validate the mechanism wire format. Raises a specific
    `MechanismFormatError` subclass naming the offending entry."""
    if not isinstance(data, dict):
        raise MechanismFormatError("top level must be an object")
    m = data.get("m")
    # checked before anything enumerates orders: m=9 already has 7,087,261
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= ENUMERATION_MAX_M:
        raise MechanismFormatError(
            f"bad problem size m={m!r}, not in 1..{ENUMERATION_MAX_M}"
        )
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise MechanismFormatError("entries must be a list")

    texts = order_texts(m)
    index_of = {text: k for k, text in enumerate(texts)}
    ratios: dict[str, tuple[int, int]] = {}  # each distinct token parsed once
    rows: list = [None] * len(texts)
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise MechanismFormatError(f"entry {i} must be an object")
        order_text = raw.get("order")
        if not isinstance(order_text, str):
            raise MechanismFormatError(f"entry {i}: missing order text")
        k = index_of.get(order_text)
        if k is None:
            # not a canonical text: "1,0>2", padding, or not an order over 0..m-1
            try:
                order = WeakOrder.parse(order_text)
            except FormatError as exc:
                raise MechanismFormatError(f"entry {i}: {exc}") from None
            if order.m != m:
                raise MechanismFormatError(
                    f"entry {i}: order {order_text!r} is not over 0..{m - 1}"
                )
            k = classes_index(m)[order.classes]
        if rows[k] is not None:
            raise DuplicateOrderError(f"entry {i}: duplicate order {texts[k]!r}")
        raw_lottery = raw.get("lottery")
        if not isinstance(raw_lottery, list) or len(raw_lottery) != m:
            raise MechanismFormatError(
                f"entry {i}: lottery must list {m} probabilities"
            )
        pairs = []
        for position, token in enumerate(raw_lottery):
            if not isinstance(token, str):
                raise MalformedRationalError(
                    f"entry {i} position {position}: probabilities are strings"
                )
            pair = ratios.get(token)
            if pair is None:
                try:
                    value = parse_rational(token)
                except FormatError:
                    raise MalformedRationalError(
                        f"entry {i} position {position}: malformed rational {token!r}"
                    ) from None
                pair = ratios[token] = (value.numerator, value.denominator)
            pairs.append(pair)
        den = math.lcm(*(d for _, d in pairs))
        row = tuple(n * (den // d) for n, d in pairs)
        if min(row) < 0 or sum(row) != den:
            try:  # only a bad lottery becomes a `Lottery`, for its message
                Lottery(m, tuple(Fraction(n, d) for n, d in pairs))
            except ValueError as exc:
                where = f"entry {i} (order {texts[k]!r})"
                raise InvalidLotteryError(f"{where}: {exc}") from None
        rows[k] = den, row

    # the table names the first missing order
    return MechanismTable(m, rows, name=name)


def load_mechanism(path: str | os.PathLike) -> MechanismTable:
    data = read_json(path, "not valid JSON", MechanismFormatError)
    name = os.path.splitext(os.path.basename(path))[0]
    return mechanism_from_json(data, name=name)


def save_mechanism(mech: MechanismTable, path: str | os.PathLike) -> None:
    """Write the table atomically, one entry per line (see the module
    docstring): each line goes through the C JSON encoder, which
    ``indent`` would replace with the pure-Python one."""
    data = mechanism_to_json(mech)
    entries = ",\n".join(map(json.dumps, data["entries"]))
    write_atomic(path, f'{{"m": {data["m"]}, "entries": [\n{entries}\n]}}\n')


def write_atomic(path: str | os.PathLike, payload: str) -> None:
    """Write text so that the target file appears complete or not at all."""
    # imported here: the CLI writes files only with --out or --out-mechanism,
    # and tempfile would cost every other run about 6 ms of import
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        # name the file asked for, not the temporary one beside it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def _table(m: int, rule, name: str) -> MechanismTable:
    """Apply ``rule(classes) -> (den, ints)`` to every order's classes."""
    return MechanismTable(m, map(rule, order_classes(m)), name)


def uniform_lottery(m: int) -> MechanismTable:
    """Ignores the report entirely; constant uniform lottery."""
    return _table(m, lambda classes: (m, (1,) * m), "uniform_lottery")


def top_class_uniform(m: int) -> MechanismTable:
    """Spreads all probability uniformly over the reported top class."""

    def rule(classes: Classes) -> tuple[int, tuple[int, ...]]:
        top = classes[0]
        return len(top), tuple(int(a in top) for a in range(m))

    return _table(m, rule, "top_class_uniform")


def min_top_dictator(m: int) -> MechanismTable:
    """Deterministic: picks the smallest-numbered alternative in the
    reported top class."""
    return _table(
        m, lambda classes: (1, unit_row(m, classes[0][0])), "min_top_dictator"
    )


def rank_score(m: int) -> MechanismTable:
    """Scores alternative a as m - r(a) - (|class(a)| - 1) / 2, where r(a)
    counts the alternatives strictly preferred to a, then normalizes scores
    into a lottery. Ties share the average of the positions they occupy."""

    def rule(classes: Classes) -> tuple[int, list[int]]:
        # doubled scores are ints, and on every order they sum to m(m+1)
        scores = [0] * m
        preceding = 0
        for cls in classes:
            score = 2 * (m - preceding) - len(cls) + 1
            for alt in cls:
                scores[alt] = score
            preceding += len(cls)
        return m * (m + 1), scores

    return _table(m, rule, "rank_score")


def k_sensitive_boost(m: int) -> MechanismTable:
    """With K reported classes, puts K/(K+1) uniformly on the top class and
    1/(K+1) uniformly on the rest; everything on the top class when K = 1.
    The top-class boost grows with how finely the rest is subdivided."""

    def rule(classes: Classes) -> tuple[int, tuple[int, ...]]:
        K = len(classes)
        if K == 1:
            return m, (1,) * m
        top = classes[0]
        rest = m - len(top)
        # over (K+1)|top|·rest: K/(K+1)/|top| is K·rest, 1/(K+1)/rest is |top|
        row = tuple(K * rest if a in top else len(top) for a in range(m))
        return (K + 1) * len(top) * rest, row

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
    rows = []
    for _ in order_classes(m):
        weights = [rng.randint(0, weight_cap) for _ in range(m)]
        if not any(weights):
            weights[rng.randrange(m)] = 1
        rows.append((sum(weights), weights))
    return MechanismTable(m, rows, name=name or "random")


def random_deterministic_mechanism(
    m: int, rng: random.Random, name: str = ""
) -> MechanismTable:
    """A random deterministic table: per order, a point mass on a uniformly
    chosen alternative."""
    rows = [(1, unit_row(m, rng.randrange(m))) for _ in order_classes(m)]
    return MechanismTable(m, rows, name=name or "random-deterministic")
