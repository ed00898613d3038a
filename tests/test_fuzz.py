"""Property tests of every input parser: whatever the input, each one gives
a result or a typed format error, never another exception (for the CLI's
utility files: exit 0 or exit 3 with a JSON error). Well-formed
inputs also survive a round trip through their writer.

Runs are bounded (a few hundred examples, problem sizes up to m=3) so the
module stays a few seconds of the suite."""

import contextlib
import io
import json
import math
import os
import random
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sepax.cli as cli
from sepax.amd import objective_from_json
from sepax.core import (
    FormatError,
    WeakOrder,
    enumerate_weak_orders,
    parse_rational,
)
from sepax.mechanisms import (
    ZOO,
    MechanismFormatError,
    MechanismTable,
    load_mechanism,
    mechanism_from_json,
    mechanism_to_json,
    random_deterministic_mechanism,
    random_mechanism,
)
from tests.oracles import objective_to_json

FUZZ = settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

RATIONAL_TEXT = st.from_regex(r"\s?-?[0-9]{1,4}(/-?[0-9]{1,4})?\s?", fullmatch=True)
ORDER_TEXT = st.integers(1, 4).flatmap(
    lambda m: st.sampled_from(enumerate_weak_orders(m))
).map(lambda order: order.text)
# near misses: digits, separators and a little noise
ORDER_NOISE = st.text(alphabet="0123456789,> -x", max_size=12)


def _junk_or(strategy):
    return st.one_of(strategy, strategy, JSON)


@FUZZ
@given(st.one_of(RATIONAL_TEXT, st.text(max_size=12), JSON))
@example("9" * 5000)
@example("1/0")
def test_parse_rational_total(text):
    try:
        value = parse_rational(text)
    except FormatError:
        return
    assert isinstance(value, Fraction)
    assert parse_rational(str(value)) == value


@FUZZ
@given(st.one_of(ORDER_TEXT, ORDER_NOISE, st.text(max_size=12)))
@example("0" * 5000)
@example("0,0")
def test_weak_order_parse_total(text):
    try:
        order = WeakOrder.parse(text)
    except FormatError:
        return
    assert WeakOrder.parse(order.text) == order


def _mutate(data: dict, rng: random.Random, junk) -> dict:
    """Replace one field of a well-formed mechanism file with ``junk``."""
    entry = rng.choice(data["entries"])
    target = rng.choice(("m", "entries", "order", "lottery", "probability", "drop"))
    if target in ("m", "entries"):
        data[target] = junk
    elif target in ("order", "lottery"):
        entry[target] = junk
    elif target == "probability":
        entry["lottery"][rng.randrange(len(entry["lottery"]))] = junk
    else:
        data["entries"].remove(entry)
    return data


@FUZZ
@given(
    st.integers(1, 3),
    st.randoms(use_true_random=False),
    st.booleans(),
    _junk_or(RATIONAL_TEXT | ORDER_TEXT | st.integers(-2, 4) | st.sampled_from([8, 9, 10**6])),
)
def test_mechanism_from_json_total(m, rng, mutate, junk):
    mech = random_mechanism(m, rng, weight_cap=3)
    data = mechanism_to_json(mech)
    if mutate:
        data = _mutate(data, rng, junk)
    try:
        parsed = mechanism_from_json(data)
    except MechanismFormatError:
        assert mutate
        return
    if not mutate:
        assert parsed == mech


@FUZZ
@given(JSON)
def test_mechanism_from_json_total_on_any_json(data):
    try:
        mechanism_from_json(data)
    except MechanismFormatError:
        pass


TABLES = st.one_of(
    st.builds(random_mechanism, st.integers(1, 3), st.randoms(use_true_random=False),
              st.integers(0, 30)),
    st.builds(random_deterministic_mechanism, st.integers(1, 3),
              st.randoms(use_true_random=False)),
    st.builds(lambda name, m: ZOO[name](m), st.sampled_from(sorted(ZOO)), st.integers(1, 3)),
)


@FUZZ
@given(TABLES)
def test_mechanism_json_round_trip(mech):
    again = mechanism_from_json(mechanism_to_json(mech))
    assert again == mech
    assert (again.denominator, again.rows) == (mech.denominator, mech.rows)


def _row(m: int):
    """A ``(den, ints)`` pair over m alternatives: a lottery, a pair of any
    length, sign or sum, or None (a missing order)."""
    lottery = st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any)
    return st.one_of(
        lottery.map(lambda ints: (sum(ints), ints)),
        st.tuples(st.integers(-2, 12), st.lists(st.integers(-2, 12), max_size=m + 1)),
        st.none(),
    )


# one pair per order, give or take one
ROW_TABLES = st.integers(1, 3).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            _row(m),
            min_size=len(enumerate_weak_orders(m)) - 1,
            max_size=len(enumerate_weak_orders(m)) + 1,
        ),
    )
)


@FUZZ
@example((2, [(1, (1,)), (1, (1, 0)), (1, (0, 1))]))
@given(ROW_TABLES)
def test_constructor_builds_a_valid_table_or_raises(case):
    m, rows = case
    try:
        table = MechanismTable(m, rows)
    except ValueError:  # MechanismFormatError included
        return
    D = table.denominator
    assert table.m == m
    assert len(table.rows) == len(enumerate_weak_orders(m))
    for row in table.rows:
        assert len(row) == m and min(row) >= 0 and sum(row) == D
    assert math.gcd(D, *(x for row in table.rows for x in row)) == 1


@FUZZ
@given(
    st.binary(max_size=64)
    | st.builds(lambda text, junk: text.encode() + junk,
                st.sampled_from(['{"m": 1, "entries": [{"order": "0", "lottery": ["1"]}]}',
                                 '{"m": 2, "entries": ']),
                st.binary(max_size=8))
)
@example(b'\xff\xfe{"m":2}')
@example(b"[" * 100_000)
def test_mechanism_file_total_on_any_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mech.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            load_mechanism(path)
        except MechanismFormatError:
            pass


TERM = st.fixed_dictionaries(
    {
        "order": _junk_or(ORDER_TEXT),
        "alt": _junk_or(st.integers(-1, 4)),
        "coef": _junk_or(RATIONAL_TEXT),
    }
)


@FUZZ
@given(
    st.integers(1, 3),
    st.one_of(
        st.fixed_dictionaries(
            {"terms": st.lists(TERM, max_size=4)},
            optional={"sense": st.sampled_from(["max", "min"]) | JSON},
        ),
        JSON,
    ),
)
def test_objective_from_json_total(m, data):
    try:
        coeffs = objective_from_json(data, m)
    except FormatError:
        return
    assert objective_from_json(objective_to_json(m, coeffs), m) == coeffs


@FUZZ
@given(
    st.one_of(
        st.fixed_dictionaries(
            {"values": _junk_or(st.lists(_junk_or(RATIONAL_TEXT), min_size=2, max_size=4))}
        ),
        st.just({"values": ["3", "2", "1"]}),
        JSON,
    ).map(json.dumps)
    | st.text(max_size=12)
)
def test_utility_file_total(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "utility.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(
                ["path", "--from", "0>1>2", "--to", "2>1>0", "--utilities-from", path]
            )
    if code == 0:
        assert json.loads(out.getvalue())["result"]["path"]["start"] == "0>1>2"
    else:
        assert code == 3
        assert "error" in json.loads(err.getvalue())
