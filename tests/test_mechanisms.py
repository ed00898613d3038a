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
    table = MechanismTable(2, entries, name="partial")
    with pytest.raises(MissingOrderError):
        table.validate()
    with pytest.raises(MissingOrderError):
        table.lottery(orders[1])


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
    a.validate()


def test_random_deterministic_mechanism():
    mech = random_deterministic_mechanism(3, random.Random(5))
    assert mech.is_deterministic
    mech.validate()
    again = random_deterministic_mechanism(3, random.Random(5))
    assert mech == again


def test_equality_ignores_name():
    a = uniform_lottery(2)
    b = MechanismTable(2, dict(a.items()), name="other")
    assert a == b
    assert a != top_class_uniform(2)
