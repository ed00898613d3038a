import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from sepax.core import Lottery, WeakOrder, enumerate_weak_orders
from sepax.mechanisms import (
    ZOO,
    DuplicateOrderError,
    InvalidLotteryError,
    MalformedRationalError,
    MechanismFormatError,
    MechanismTable,
    MissingOrderError,
    k_sensitive_boost,
    load_mechanism,
    mechanism_from_json,
    mechanism_to_json,
    min_top_dictator,
    random_deterministic_mechanism,
    random_mechanism,
    rank_score,
    save_mechanism,
    top_class_uniform,
    uniform_lottery,
)
from sepax.verify import check_sp_bruteforce
from tests.oracles import (
    ZOO_RULE_ORACLES,
    integer_rows_oracle,
    lotteries_json_oracle,
    lottery_dict_load_file,
    random_deterministic_lotteries_oracle,
    random_lotteries_oracle,
)


def test_uniform_lottery():
    mech = uniform_lottery(3)
    for order in enumerate_weak_orders(3):
        assert mech.lottery(order).probs == (F(1, 3), F(1, 3), F(1, 3))


def test_top_class_uniform_values():
    mech = top_class_uniform(3)
    assert mech.lottery(WeakOrder.parse("0>1>2")).probs == (1, 0, 0)
    assert mech.lottery(WeakOrder.parse("0,2>1")).probs == (F(1, 2), 0, F(1, 2))
    assert mech.lottery(WeakOrder.parse("0,1,2")).probs == (F(1, 3),) * 3


def test_min_top_dictator_values():
    mech = min_top_dictator(3)
    assert mech.lottery(WeakOrder.parse("2>0,1")).probs == (0, 0, 1)
    assert mech.lottery(WeakOrder.parse("1,2>0")).probs == (0, 1, 0)
    assert mech.is_deterministic


def test_rank_score_values():
    mech = rank_score(3)
    assert mech.lottery(WeakOrder.parse("0>1>2")).probs == (F(1, 2), F(1, 3), F(1, 6))
    assert mech.lottery(WeakOrder.parse("0,1>2")).probs == (F(5, 12), F(5, 12), F(1, 6))
    assert mech.lottery(WeakOrder.parse("0,1,2")).probs == (F(1, 3),) * 3


def test_k_sensitive_boost_values():
    # the boost grows with the number of indifference classes K, which is
    # exactly what lets a finer report steal probability
    mech = k_sensitive_boost(3)
    assert mech.lottery(WeakOrder.parse("0>1>2")).probs == (F(3, 4), F(1, 8), F(1, 8))
    assert mech.lottery(WeakOrder.parse("0>1,2")).probs == (F(2, 3), F(1, 6), F(1, 6))
    assert mech.lottery(WeakOrder.parse("0,1>2")).probs == (F(1, 3), F(1, 3), F(1, 3))
    assert mech.lottery(WeakOrder.parse("0,1,2")).probs == (F(1, 3),) * 3


# Verdicts below were produced by the brute-force checker and then frozen.
# k_sensitive_boost is the designed bad citizen from m=3 up; at m=2 the
# boost cannot hurt anyone because there is only one non-trivial profile
# shape, so it comes out strategyproof there.
ZOO_SP_VERDICTS = {
    ("uniform_lottery", 2): True,
    ("uniform_lottery", 3): True,
    ("uniform_lottery", 4): True,
    ("top_class_uniform", 2): True,
    ("top_class_uniform", 3): True,
    ("top_class_uniform", 4): True,
    ("min_top_dictator", 2): True,
    ("min_top_dictator", 3): True,
    ("min_top_dictator", 4): True,
    ("rank_score", 2): True,
    ("rank_score", 3): True,
    ("rank_score", 4): True,
    ("k_sensitive_boost", 2): True,
    ("k_sensitive_boost", 3): False,
    ("k_sensitive_boost", 4): False,
}


@pytest.mark.parametrize("name,m", sorted(ZOO_SP_VERDICTS))
def test_zoo_sp_verdicts(name, m):
    mech = ZOO[name](m)
    violation = check_sp_bruteforce(mech)
    assert (violation is None) == ZOO_SP_VERDICTS[(name, m)]


def test_json_round_trip(tmp_path: Path):
    for name, factory in ZOO.items():
        mech = factory(3)
        blob = mechanism_to_json(mech)
        assert set(blob) == {"m", "entries"}  # wire format carries no name
        again = mechanism_from_json(blob, name=mech.name)
        assert again == mech
        assert again.name == mech.name
        path = tmp_path / f"{name}.json"
        save_mechanism(mech, path)
        assert load_mechanism(path) == mech


def test_save_is_atomic_no_partial_file(tmp_path: Path):
    target = tmp_path / "mech.json"
    save_mechanism(uniform_lottery(2), target)
    before = target.read_text()
    save_mechanism(top_class_uniform(2), target)
    after = target.read_text()
    assert before != after
    assert not list(tmp_path.glob("*.tmp*")) or all(
        p.name == "mech.json" for p in tmp_path.iterdir()
    )


def test_missing_order_error():
    orders = enumerate_weak_orders(2)
    entries = {orders[0]: Lottery.uniform(2)}
    with pytest.raises(MissingOrderError) as err:
        MechanismTable(2, entries, name="partial")
    assert str(err.value) == "no lottery for order '1>0'"
    rows = [(2, (1, 1)), None, (2, (1, 1))]
    with pytest.raises(MissingOrderError) as err:
        MechanismTable.from_rows(2, rows)
    assert str(err.value) == "no lottery for order '1>0'"
    with pytest.raises(MissingOrderError) as err:
        MechanismTable.from_rows(2, rows[:1])
    assert str(err.value) == "no lottery for order '1>0'"
    with pytest.raises(MissingOrderError):
        uniform_lottery(2).lottery(WeakOrder.parse("0>1>2"))


def test_duplicate_order_in_json():
    blob = mechanism_to_json(uniform_lottery(2))
    blob["entries"].append(dict(blob["entries"][0]))
    with pytest.raises(DuplicateOrderError):
        mechanism_from_json(blob)


def test_malformed_rational_in_json():
    blob = mechanism_to_json(uniform_lottery(2))
    blob["entries"][0]["lottery"][0] = "1/0"
    with pytest.raises(MalformedRationalError) as err:
        mechanism_from_json(blob)
    assert "entry 0" in str(err.value)

    blob = mechanism_to_json(uniform_lottery(2))
    blob["entries"][1]["lottery"][1] = "oops"
    with pytest.raises(MalformedRationalError) as err:
        mechanism_from_json(blob)
    assert "entry 1" in str(err.value)


def test_invalid_lottery_in_json():
    blob = mechanism_to_json(uniform_lottery(2))
    blob["entries"][0]["lottery"] = ["1/3", "1/3"]
    with pytest.raises(InvalidLotteryError):
        mechanism_from_json(blob)
    blob = mechanism_to_json(uniform_lottery(2))
    blob["entries"][0]["lottery"] = ["2", "-1"]
    with pytest.raises(InvalidLotteryError):
        mechanism_from_json(blob)


def test_loader_reads_non_canonical_spellings():
    blob = mechanism_to_json(rank_score(3))
    respell = {"0,1>2": "1,0>2", "0>1>2": " 0>1>2 "}
    for entry in blob["entries"]:
        entry["order"] = respell.get(entry["order"], entry["order"])
    assert mechanism_from_json(blob) == rank_score(3)
    # the same order spelled two ways is still one order
    blob["entries"].append({"order": "0,1>2", "lottery": ["1", "0", "0"]})
    with pytest.raises(DuplicateOrderError) as err:
        mechanism_from_json(blob)
    assert str(err.value) == "entry 13: duplicate order '0,1>2'"


@pytest.mark.parametrize(
    "lottery,message",
    [
        (["1/2", "1/3"], "probabilities sum to 5/6, not 1"),
        (["1", "1"], "probabilities sum to 2, not 1"),
        (["2", "-1"], "negative probability"),
        (["-1/2", "3/2"], "negative probability"),
    ],
)
def test_loader_lottery_error_messages(lottery, message):
    blob = mechanism_to_json(uniform_lottery(2))
    blob["entries"][0]["lottery"] = lottery
    with pytest.raises(InvalidLotteryError) as err:
        mechanism_from_json(blob)
    assert str(err.value) == f"entry 0 (order '0>1'): {message}"


def test_json_is_serializable_text():
    blob = mechanism_to_json(rank_score(3))
    text = json.dumps(blob)
    assert mechanism_from_json(json.loads(text)) == rank_score(3)


def test_random_mechanism_reproducible():
    a = random_mechanism(3, random.Random(42))
    b = random_mechanism(3, random.Random(42))
    assert a == b
    c = random_mechanism(3, random.Random(43))
    assert a != c


def test_random_deterministic_mechanism():
    mech = random_deterministic_mechanism(3, random.Random(5))
    assert mech.is_deterministic
    again = random_deterministic_mechanism(3, random.Random(5))
    assert mech == again


def test_equality_ignores_name():
    a = uniform_lottery(2)
    b = MechanismTable(2, dict(a.items()), name="other")
    assert a == b
    assert a != top_class_uniform(2)


def _assert_matches_lotteries(mech, lotteries):
    """The table holds exactly these `Fraction` lotteries, in canonical
    order: as lotteries, as integer rows, and as JSON."""
    orders = enumerate_weak_orders(mech.m)
    assert [mech.lottery(order).probs for order in orders] == lotteries
    assert [lottery.probs for _, lottery in mech.items()] == lotteries
    assert (mech.denominator, mech.rows) == integer_rows_oracle(lotteries)
    assert mechanism_to_json(mech) == lotteries_json_oracle(mech.m, lotteries)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_rules_match_fraction_oracle(name, m):
    rule = ZOO_RULE_ORACLES[name]
    expected = [rule(m, order) for order in enumerate_weak_orders(m)]
    mech = ZOO[name](m)
    _assert_matches_lotteries(mech, expected)
    assert mech.is_deterministic == all(p in (0, 1) for probs in expected for p in probs)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_random_samplers_match_fraction_oracle(m):
    for seed in range(5):
        _assert_matches_lotteries(
            random_mechanism(m, random.Random(seed), weight_cap=3 + seed),
            random_lotteries_oracle(m, random.Random(seed), weight_cap=3 + seed),
        )
        mech = random_deterministic_mechanism(m, random.Random(seed))
        _assert_matches_lotteries(
            mech, random_deterministic_lotteries_oracle(m, random.Random(seed))
        )
        assert mech.is_deterministic


def _respell(blob):
    respell = {"0,1>2": "1,0>2", "0>1>2": " 0>1>2 "}
    for entry in blob["entries"]:
        entry["order"] = respell.get(entry["order"], entry["order"])


def _set_entry(index, **fields):
    def mutate(blob):
        blob["entries"][index].update(fields)
    return mutate


MALFORMED_FILES = {
    "bad_order": _set_entry(0, order="0>>1>2"),
    "order_over_wrong_m": _set_entry(1, order="0>1"),
    "duplicate_spelled_two_ways": lambda blob: blob["entries"].append(
        {"order": "2,0>1", "lottery": ["1", "0", "0"]}
    ),
    "bad_token": _set_entry(2, lottery=["1/2", "1/x", "1/2"]),
    "non_string_token": _set_entry(2, lottery=["1/2", 0.5, "0"]),
    "negative_probability": _set_entry(3, lottery=["2", "-1", "0"]),
    "sum_5_6": _set_entry(4, lottery=["1/2", "1/3", "0"]),
    "sum_2": _set_entry(4, lottery=["1", "1", "0"]),
    "missing_order": lambda blob: blob["entries"].pop(5),
    "respelled_orders": _respell,
    "m_9": lambda blob: blob.update(m=9),
    "short_lottery": _set_entry(6, lottery=["1", "0"]),
    "bad_json": None,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_loader_matches_lottery_dict_oracle(tmp_path: Path, case):
    blob = mechanism_to_json(rank_score(3))
    path = tmp_path / "mech.json"
    if MALFORMED_FILES[case] is None:
        path.write_text(json.dumps(blob)[:-3])
    else:
        MALFORMED_FILES[case](blob)
        path.write_text(json.dumps(blob))
    try:
        expected = lottery_dict_load_file(path)
    except MechanismFormatError as exc:
        with pytest.raises(MechanismFormatError) as err:
            load_mechanism(path)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        return
    assert case == "respelled_orders"
    mech = load_mechanism(path)
    assert dict(mech.items()) == expected
    assert mech == rank_score(3)


def test_construction_rejects_orders_outside_the_domain_and_size_mismatch():
    entries = dict(uniform_lottery(2).items())
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable(2, {**entries, WeakOrder.parse("0>1>2"): Lottery.uniform(3)})
    assert str(err.value) == "entries outside the domain: ['0>1>2']"
    entries[WeakOrder.parse("1>0")] = Lottery.uniform(3)
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable(2, entries)
    assert str(err.value) == "size mismatch at order '1>0'"
    # a short row is caught at construction, not by a later reader
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable.from_rows(2, [(1, (1,)), (1, (1, 0)), (1, (0, 1))])
    assert str(err.value) == "size mismatch at order '0>1'"
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable.from_rows(2, [(1, (1, 0))] * 4)
    assert str(err.value) == "entries outside the domain: ['row 3']"
    # the checks run in a fixed order: missing, outside, size, lottery
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable.from_rows(2, [(1, (2, 0)), (1, (1, 0, 0)), (1, (0, 1))])
    assert str(err.value) == "size mismatch at order '1>0'"
    with pytest.raises(ValueError) as err:
        MechanismTable.from_rows(2, [(1, (1, 0)), (1, (2, 0)), (0, (0, 0))])
    assert str(err.value) == "row [2, 0] over 1 is not a lottery"


def test_rank_score_emit_makes_a_fraction_per_printed_value_at_most(monkeypatch):
    # the table is integers; only the writer makes Fractions, one for each
    # distinct x/D it prints
    made = []
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    blob = mechanism_to_json(rank_score(6))
    monkeypatch.undo()
    printed = {p for entry in blob["entries"] for p in entry["lottery"]}
    assert 0 < len(made) <= len(printed)
