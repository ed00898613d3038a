import json
import os
import random
import stat
from fractions import Fraction as F
from pathlib import Path

import pytest

import sepax.mechanisms as mechanisms
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
    lottery_table,
    random_deterministic_lotteries_oracle,
    random_lotteries_oracle,
    saved_layout_fault,
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


@pytest.mark.parametrize("m", range(1, 7))
def test_saved_zoo_files_round_trip_one_entry_per_line(tmp_path: Path, m):
    for name, factory in sorted(ZOO.items()):
        mech = factory(m)
        path = tmp_path / f"{name}.json"
        save_mechanism(mech, path)
        assert saved_layout_fault(path, mechanism_to_json(mech)) is None
        assert load_mechanism(path) == mech


def test_indented_files_still_load(tmp_path: Path):
    for mech in (k_sensitive_boost(4), random_mechanism(3, random.Random(5))):
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(mechanism_to_json(mech), indent=2) + "\n")
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


@pytest.mark.parametrize(
    "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_saved_file_mode_follows_the_umask(tmp_path: Path, umask, mode):
    # the mode open() would give, not the temporary file's 0600
    path = tmp_path / "mech.json"
    old = os.umask(umask)
    try:
        save_mechanism(uniform_lottery(2), path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_missing_order_error():
    orders = enumerate_weak_orders(2)
    entries = {orders[0]: Lottery.uniform(2)}
    with pytest.raises(MissingOrderError) as err:
        lottery_table(2, entries, name="partial")
    assert str(err.value) == "no lottery for order '1>0'"
    rows = [(2, (1, 1)), None, (2, (1, 1))]
    with pytest.raises(MissingOrderError) as err:
        MechanismTable(2, rows)
    assert str(err.value) == "no lottery for order '1>0'"
    with pytest.raises(MissingOrderError) as err:
        MechanismTable(2, rows[:1])
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
    b = lottery_table(2, dict(a.items()), name="other")
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


@pytest.mark.parametrize("n", range(1, 14))
def test_sampler_draws_equal_randrange(n):
    # the batched sampler behind every seeded table: the values of
    # randrange(n) and randint(0, n - 1), and the generator left where
    # they leave it
    for seed in range(5):
        by_range, by_int, batched = (random.Random(seed) for _ in range(3))
        expected = [by_range.randrange(n) for _ in range(3000)]
        assert [by_int.randint(0, n - 1) for _ in range(3000)] == expected
        assert mechanisms._draws(batched, n, 3000) == expected
        assert batched.getstate() == by_range.getstate() == by_int.getstate()
        assert mechanisms._draws(batched, n, 0) == []
    with pytest.raises(ValueError):
        mechanisms._draws(random.Random(0), 0, 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
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


def _set_entries(lotteries):
    def mutate(blob):
        for index, lottery in lotteries.items():
            blob["entries"][index]["lottery"] = lottery
    return mutate


MALFORMED_FILES = {
    "bad_order": _set_entry(0, order="0>>1>2"),
    "order_over_wrong_m": _set_entry(1, order="0>1"),
    "duplicate_spelled_two_ways": lambda blob: blob["entries"].append(
        {"order": "2,0>1", "lottery": ["1", "0", "0"]}
    ),
    "bad_token": _set_entry(2, lottery=["1/2", "1/x", "1/2"]),
    "non_string_token": _set_entry(2, lottery=["1/2", 0.5, "0"]),
    "unhashable_token": _set_entry(2, lottery=["1/2", [1], "1/2"]),
    "int_token": _set_entry(2, lottery=["1/2", "1/2", 1]),
    "true_token": _set_entry(2, lottery=[True, "0", "0"]),
    "null_token": _set_entry(2, lottery=["1", None, "0"]),
    "bad_token_after_the_scale_grew": _set_entries(
        {9: ["1/7", "6/7", "0"], 11: ["1/2", "1/2", "0x"]}
    ),
    "non_string_before_a_bad_token": _set_entry(2, lottery=[0.5, "1/x", "1/2"]),
    "bad_token_before_a_non_string": _set_entry(2, lottery=["1/x", 0.5, "1/2"]),
    "bad_token_in_two_entries": _set_entries(
        {3: ["1/2", "1/x", "1/2"], 7: ["1/x", "1/2", "1/2"]}
    ),
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


@pytest.mark.parametrize("m", [3, 4])
def test_shuffled_file_with_a_denominator_per_row(tmp_path: Path, m, monkeypatch):
    # every row over its own denominator, wherever the file puts it: the
    # loader fixes the table's scale first, so every row it hands the
    # constructor is over the table's denominator already
    handed = []

    def recording_table(size, rows, name=""):
        rows = list(rows)
        handed.extend(rows)
        return MechanismTable(size, rows, name=name)

    monkeypatch.setattr(mechanisms, "MechanismTable", recording_table)
    rng = random.Random(m)
    lotteries = []
    for i, order in enumerate(enumerate_weak_orders(m)):
        probs = [F(0)] * m
        probs[i % m], probs[(i + 1) % m] = F(1, i + 2), F(i + 1, i + 2)
        lotteries.append(tuple(probs))
    blob = lotteries_json_oracle(m, lotteries)
    for entry in blob["entries"]:  # "0,1>2" becomes " 1,0>2"
        classes = entry["order"].split(">")
        entry["order"] = " " + ">".join(",".join(c.split(",")[::-1]) for c in classes)
    rng.shuffle(blob["entries"])
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(blob))
    expected = lottery_dict_load_file(path)
    mech = load_mechanism(path)
    assert dict(mech.items()) == expected
    assert (mech.denominator, mech.rows) == integer_rows_oracle(lotteries)
    assert len(handed) == len(lotteries)
    assert {den for den, _ in handed} == {mech.denominator}


def test_size_bound_is_refused_before_any_entry_is_checked(monkeypatch):
    # entry 0 is no object, but the table is over the bound: the bound is
    # checked first, with its bits at the first token that passes it
    primes = [p for p in range(1009, 2000) if all(p % q for q in range(2, 45))][:13]
    blob = mechanism_to_json(MechanismTable(3, [(p, (1, 1, p - 2)) for p in primes]))
    blob["entries"][0] = "0>1>2"
    monkeypatch.setattr(mechanisms, "TABLE_MAX_BITS", 13 * 3 * 40)
    with pytest.raises(MechanismFormatError) as err:
        mechanism_from_json(blob)
    assert str(err.value) == (
        "13 rows x 3 entries x 50 bits of common denominator = 1950 bits,"
        " over the bound of 1560"
    )


def test_construction_rejects_orders_outside_the_domain_and_size_mismatch():
    entries = dict(uniform_lottery(2).items())
    entries[WeakOrder.parse("1>0")] = Lottery.uniform(3)
    with pytest.raises(MechanismFormatError) as err:
        lottery_table(2, entries)
    assert str(err.value) == "size mismatch at order '1>0'"
    # a short row is caught at construction, not by a later reader
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable(2, [(1, (1,)), (1, (1, 0)), (1, (0, 1))])
    assert str(err.value) == "size mismatch at order '0>1'"
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable(2, [(1, (1, 0))] * 4)
    assert str(err.value) == "entries outside the domain: ['row 3']"
    # the checks run in a fixed order: missing, outside, size, lottery
    with pytest.raises(MechanismFormatError) as err:
        MechanismTable(2, [(1, (2, 0)), (1, (1, 0, 0)), (1, (0, 1))])
    assert str(err.value) == "size mismatch at order '1>0'"
    with pytest.raises(ValueError) as err:
        MechanismTable(2, [(1, (1, 0)), (1, (2, 0)), (0, (0, 0))])
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
