import random
from fractions import Fraction as F

import pytest

from sepax.core import (
    FormatError,
    Lottery,
    UtilityFn,
    WeakOrder,
    canonical_utility,
    consistent,
    enumerate_weak_orders,
    fosd,
    format_rational,
    order_from_utility,
    ordered_set_partitions,
    parse_rational,
    strictly_consistent,
)
from tests.oracles import fosd_oracle_utilities, weak_order_count


def test_parse_rational():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("3/6") == F(1, 2)
    assert parse_rational("7") == F(7)
    assert parse_rational("-2/4") == F(-1, 2)
    assert parse_rational(" 0 ") == 0


@pytest.mark.parametrize(
    "bad",
    [
        "", "x", "1/0", "1.5", "1/2/3", "1 2", "/3",
        pytest.param("1" + "0" * 5000, id="too_many_digits"),
    ],
)
def test_parse_rational_rejects(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(0)) == "0"
    assert format_rational(F(-3, 9)) == "-1/3"
    # round trip on a spread of values
    for num in range(-8, 9):
        for den in range(1, 9):
            q = F(num, den)
            assert parse_rational(format_rational(q)) == q


def test_weak_order_text_round_trip():
    order = WeakOrder.parse("0,1>2")
    assert order.m == 3
    assert order.classes == ((0, 1), (2,))
    assert order.text == "0,1>2"
    assert WeakOrder.parse("2>1>0").text == "2>1>0"
    assert WeakOrder.parse("1,0>2").text == "0,1>2"  # members stored sorted
    for m in range(1, 5):
        for order in enumerate_weak_orders(m):
            assert WeakOrder.parse(order.text) == order


@pytest.mark.parametrize(
    "bad", ["", "0>>1", "0,0>1", "0>1>1", "a>b", "0,1", "1>2", "0>", ">0"]
)
def test_weak_order_parse_rejects(bad):
    # "0,1" alone is fine; make the sole valid entry explicit
    if bad == "0,1":
        assert WeakOrder.parse(bad).m == 2
        return
    with pytest.raises(FormatError):
        WeakOrder.parse(bad)


def test_weak_order_construction_rejects():
    with pytest.raises(ValueError):
        WeakOrder(3, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        WeakOrder(3, ((0,), (2,)))  # missing 1
    with pytest.raises(ValueError):
        WeakOrder(3, ((1, 0), (2,)))  # unsorted class
    with pytest.raises(ValueError):
        WeakOrder(3, ((0, 1, 2), ()))  # empty class
    with pytest.raises(ValueError):
        WeakOrder(0, ())


def test_enumeration_counts_match_independent_oracle():
    for m in range(1, 7):
        orders = enumerate_weak_orders(m)
        assert len(orders) == weak_order_count(m)
        assert len(set(orders)) == len(orders)


def test_enumeration_canonical_order():
    # first block walks subsets in ascending bitmask order, then recurse
    assert [o.text for o in enumerate_weak_orders(2)] == ["0>1", "1>0", "0,1"]
    m3 = [o.text for o in enumerate_weak_orders(3)]
    assert m3[:6] == ["0>1>2", "0>2>1", "0>1,2", "1>0>2", "1>2>0", "1>0,2"]
    assert m3[-1] == "0,1,2"
    # deterministic across calls
    assert enumerate_weak_orders(3) == enumerate_weak_orders(3)


def test_ordered_set_partitions_of_empty():
    assert list(ordered_set_partitions(())) == [()]


def test_class_of_and_upper_contour():
    order = WeakOrder.parse("0,1>2")
    assert order.class_of(0) == 1
    assert order.class_of(1) == 1
    assert order.class_of(2) == 2
    assert order.upper_contour(0) == {0, 1}
    assert order.upper_contour(2) == {0, 1, 2}
    assert WeakOrder.parse("2>1>0").upper_contour(1) == {1, 2}
    assert order.indifferent(0, 1)
    assert not order.indifferent(0, 2)
    with pytest.raises(ValueError):
        order.class_of(3)


def test_lottery_validation():
    with pytest.raises(ValueError):
        Lottery(3, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        Lottery(2, (F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        Lottery(2, (F(1, 2), F(1, 3)))
    assert Lottery.uniform(3).probs == (F(1, 3), F(1, 3), F(1, 3))
    assert Lottery.unit(3, 1).probs == (0, 1, 0)
    assert Lottery.unit(2, 0).is_deterministic
    assert not Lottery.uniform(2).is_deterministic


def test_lottery_mass():
    lot = Lottery(3, (F(1, 2), F(1, 6), F(1, 3)))
    assert lot.mass([]) == 0
    assert lot.mass(range(3)) == 1
    assert lot.mass([0, 2]) == F(5, 6)
    assert lot.mass([0, 0, 2]) == F(5, 6)  # duplicates count once
    with pytest.raises(ValueError):
        lot.mass([3])


def test_subset_prob():
    lot = Lottery(3, (F(1, 2), F(1, 3), F(1, 6)))
    assert lot.mass({0, 2}) == F(2, 3)
    assert lot.mass(set()) == 0
    assert lot.mass({0, 1, 2}) == 1
    with pytest.raises(ValueError):
        lot.mass({5})


def test_fosd_pinned_example():
    order = WeakOrder.parse("0>1>2")
    x = Lottery(3, (F(1, 2), F(1, 2), F(0)))
    y = Lottery(3, (F(1, 2), F(0), F(1, 2)))
    assert fosd(x, y, order)
    assert not fosd(y, x, order)
    # both dominate each other only when contour masses all tie
    assert fosd(x, x, order)


def test_fosd_is_reflexive_and_class_blind():
    rng = random.Random(1)
    found_tie = False
    for _ in range(200):
        m = rng.randint(1, 5)
        order = rng.choice(enumerate_weak_orders(m))
        weights = [rng.randint(0, 6) for _ in range(m)]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        x = Lottery(m, tuple(F(w, total) for w in weights))
        assert fosd(x, x, order)
        # mass shuffled within one class never breaks mutual dominance
        cls = max(order.classes, key=len)
        if len(cls) >= 2:
            probs = list(x.probs)
            probs[cls[0]], probs[cls[1]] = probs[cls[1]], probs[cls[0]]
            y = Lottery(m, tuple(probs))
            assert fosd(x, y, order) and fosd(y, x, order)
            found_tie = True
    assert found_tie


def test_fosd_mismatched_sizes():
    with pytest.raises(ValueError):
        fosd(Lottery.uniform(2), Lottery.uniform(3), WeakOrder.parse("0>1"))


def test_fosd_agrees_with_utility_route():
    rng = random.Random(7)
    disagreements = 0
    for _ in range(2000):
        m = rng.randint(1, 5)
        order = rng.choice(enumerate_weak_orders(m))

        def draw() -> Lottery:
            weights = [rng.randint(0, 5) for _ in range(m)]
            if not any(weights):
                weights[rng.randrange(m)] = 1
            total = sum(weights)
            return Lottery(m, tuple(F(w, total) for w in weights))

        x, y = draw(), draw()
        if fosd(x, y, order) != fosd_oracle_utilities(x, y, order):
            disagreements += 1
    assert disagreements == 0


def test_consistency():
    order = WeakOrder.parse("0,1>2")
    assert consistent(UtilityFn(3, (F(2), F(2), F(1))), order)
    assert consistent(UtilityFn(3, (F(2), F(2), F(2))), order)  # weak drops ok
    assert not consistent(UtilityFn(3, (F(2), F(1), F(1))), order)
    assert not consistent(UtilityFn(3, (F(1), F(1), F(2))), order)
    assert strictly_consistent(UtilityFn(3, (F(2), F(2), F(1))), order)
    assert not strictly_consistent(UtilityFn(3, (F(2), F(2), F(2))), order)


def test_canonical_utility_and_inverse():
    u = canonical_utility(WeakOrder.parse("0>1>2"))
    assert u.values == (3, 2, 1)
    assert canonical_utility(WeakOrder.parse("0,1,2")).values == (1, 1, 1)
    assert canonical_utility(WeakOrder.parse("1>0,2")).values == (1, 2, 1)
    for m in range(1, 6):
        for order in enumerate_weak_orders(m):
            u = canonical_utility(order)
            assert strictly_consistent(u, order)
            assert order_from_utility(u) == order


def test_order_from_utility_groups_by_value():
    u = UtilityFn(4, (F(1, 2), F(3), F(1, 2), F(0)))
    assert order_from_utility(u).text == "1>0,2>3"


def test_utility_expected_value():
    u = UtilityFn(3, (F(3), F(2), F(1)))
    lot = Lottery(3, (F(1, 2), F(1, 3), F(1, 6)))
    assert u.expected(lot) == F(3, 2) + F(2, 3) + F(1, 6)
    with pytest.raises(ValueError):
        UtilityFn(2, (F(-1), F(0)))
