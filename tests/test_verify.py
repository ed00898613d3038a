import itertools
import random

import pytest

from sepax.core import Lottery, WeakOrder, enumerate_weak_orders
from sepax.axioms import (
    _upper_set_index,
    _upper_set_verdict,
    all_separations,
    enumerate_separations,
    find_violations,
    verify_certificate,
)
from sepax.mechanisms import (
    ZOO,
    MechanismTable,
    k_sensitive_boost,
    min_top_dictator,
    random_deterministic_mechanism,
    rank_score,
    top_class_uniform,
    uniform_lottery,
)
from sepax.verify import (
    NotDeterministicError,
    check_decomposition,
    check_deterministic_decomposition,
    check_relaxed_decomposition,
    check_sp_bruteforce,
    count_constraints,
    fubini_number,
    scan_deterministic_decomposition,
    scan_random_mechanisms,
    verify_sp_violation,
)
from tests.oracles import (
    deterministic_scan_oracle,
    lottery_table,
    replace,
    separation_axiom_oracle,
    sp_pairwise_oracle,
    upper_set_holders_oracle,
    weak_order_count,
)


def test_fubini_numbers():
    assert [fubini_number(m) for m in range(1, 7)] == [1, 3, 13, 75, 541, 4683]
    for m in range(1, 9):
        assert fubini_number(m) == weak_order_count(m)


def test_sp_bruteforce_on_zoo():
    assert check_sp_bruteforce(uniform_lottery(3)) is None
    assert check_sp_bruteforce(top_class_uniform(4)) is None
    assert check_sp_bruteforce(min_top_dictator(3)) is None
    assert check_sp_bruteforce(rank_score(3)) is None


def test_sp_violation_pinned():
    violation = check_sp_bruteforce(k_sensitive_boost(3))
    assert violation.to_json() == {
        "truth": "0>1,2",
        "misreport": "0>1>2",
        "witness_alt": 0,
        "truth_cumulative": "2/3",
        "misreport_cumulative": "3/4",
    }
    violation = check_sp_bruteforce(k_sensitive_boost(4))
    assert violation.to_json() == {
        "truth": "0>1>2,3",
        "misreport": "0>1>2>3",
        "witness_alt": 0,
        "truth_cumulative": "3/4",
        "misreport_cumulative": "4/5",
    }


def test_sp_violation_is_canonical_first():
    # reported violation must be the smallest (truth, misreport) index pair
    mech = k_sensitive_boost(3)
    orders = enumerate_weak_orders(3)
    index = {order: i for i, order in enumerate(orders)}
    found = check_sp_bruteforce(mech)
    found_key = (index[found.truth], index[found.misreport])
    for truth in orders:
        for lie in orders:
            if truth == lie:
                continue
            gap = None
            truth_lot, lie_lot = mech.lottery(truth), mech.lottery(lie)
            running_t = running_l = 0
            for cls in truth.classes:
                running_t += truth_lot.mass(cls)
                running_l += lie_lot.mass(cls)
                if running_l > running_t:
                    gap = cls
                    break
            if gap is not None:
                assert (index[truth], index[lie]) >= found_key


def _assert_kernel_matches_pairwise_oracle(mech):
    violation = check_sp_bruteforce(mech)
    expected = sp_pairwise_oracle(mech)
    assert (None if violation is None else violation.to_json()) == expected, mech.name
    assert violation is None or verify_sp_violation(mech, violation), mech.name
    return expected


def test_integer_kernel_matches_oracles(population):
    # the m=5 zoo's one violator joins the acceptance population
    for mech in population + [k_sensitive_boost(5)]:
        _assert_kernel_matches_pairwise_oracle(mech)
        found = find_violations(mech, all_violations=True)
        oracle = separation_axiom_oracle(mech)
        assert {
            axiom: [cert.to_json() for cert in certs] for axiom, certs in found.items()
        } == oracle, mech.name
        assert _upper_set_verdict(mech) == (not any(oracle.values())), mech.name
        for certs in found.values():
            for cert in certs:
                assert verify_certificate(mech, cert), mech.name


def test_kernel_matches_pairwise_oracle_at_m1_and_m2():
    for m in (1, 2):
        for name, factory in sorted(ZOO.items()):
            _assert_kernel_matches_pairwise_oracle(factory(m))
    for choices in itertools.product(range(2), repeat=3):
        rows = [(1, tuple(int(a == c) for a in range(2))) for c in choices]
        mech = MechanismTable(2, rows, f"det2-{choices}")
        _assert_kernel_matches_pairwise_oracle(mech)
    rows = [(4, (1, 3)), (5, (4, 1)), (2, (1, 1))]
    assert _assert_kernel_matches_pairwise_oracle(MechanismTable(2, rows)) is not None


@pytest.mark.parametrize("m", [3, 4])
def test_kernel_finds_a_deep_first_failing_truth(m):
    # rank_score is SP; giving the last strict order the row of its reverse
    # adds no new row for any other truth, so that order is the first
    # failing truth, deep in the scan
    base = rank_score(m)
    orders = enumerate_weak_orders(m)
    k = max(i for i, order in enumerate(orders) if order.num_classes == m)
    reverse = orders.index(WeakOrder(m, orders[k].classes[::-1]))
    rows = [(base.denominator, row) for row in base.rows]
    rows[k] = rows[reverse]
    expected = _assert_kernel_matches_pairwise_oracle(MechanismTable(m, rows, "deep"))
    assert expected is not None and expected["truth"] == orders[k].text


@pytest.mark.parametrize("m", [3, 4])
def test_kernel_on_one_row_and_a_single_violator(m):
    orders = enumerate_weak_orders(m)
    for k in (0, len(orders) // 2, len(orders) - 1):
        rows = [(m, (1,) * m)] * len(orders)
        rows[k] = (2 * m, (m + 2,) + (1,) * (m - 2) + (0,))
        expected = _assert_kernel_matches_pairwise_oracle(MechanismTable(m, rows))
        assert expected is not None


@pytest.mark.parametrize("m", [3, 4, 5])
def test_kernel_on_random_deterministic_tables(m):
    for seed in range(12 if m < 5 else 4):
        rng = random.Random(seed)
        mech = random_deterministic_mechanism(m, rng, name=f"det-{m}-{seed}")
        _assert_kernel_matches_pairwise_oracle(mech)


@pytest.mark.parametrize("m", range(1, 6))
def test_contour_holders_list_each_upper_contour_set_once(m):
    expected = [[] for _ in range(1 << m)]
    for i, order in enumerate(enumerate_weak_orders(m)):
        masks = {sum(1 << a for a in order.upper_contour(alt)) for alt in range(m)}
        for mask in sorted(masks):
            expected[mask].append(i)
    holders = _upper_set_index(m)[0]
    assert [list(held) for held in holders] == expected
    assert all(list(held) == sorted(set(held)) for held in holders)
    assert sum(map(len, holders)) == sum(
        order.num_classes for order in enumerate_weak_orders(m)
    )


@pytest.mark.parametrize("m", range(1, 6))
def test_weak_holders_follow_their_definition(m):
    holders, weak = _upper_set_index(m)
    assert (holders, weak) == upper_set_holders_oracle(m)
    # a weak holder of S is the coarse order of the separation that splits
    # S's part off, so the pairs number the separations
    assert sum(map(len, weak)) == count_constraints(m).separations_total


def test_verify_sp_violation_rejects_altered_violations():
    mech = k_sensitive_boost(4)
    violation = check_sp_bruteforce(mech)
    assert verify_sp_violation(mech, violation)
    altered = [
        replace(violation, truth_cumulative=violation.truth_cumulative + 1),
        replace(violation, misreport_cumulative=violation.truth_cumulative),
        replace(violation, truth=violation.misreport, misreport=violation.truth),
        replace(violation, misreport=violation.truth),
        # numbers that match the lotteries but show no gap
        replace(
            violation,
            misreport=violation.truth,
            misreport_cumulative=violation.truth_cumulative,
        ),
        replace(violation, witness_alt=mech.m),
        replace(violation, witness_alt=-1),
        replace(violation, witness_alt="0"),
    ]
    for other in altered:
        assert not verify_sp_violation(mech, other), other
    # the same violation read against a table over another m
    assert not verify_sp_violation(k_sensitive_boost(3), violation)


def test_decomposition_report_on_violator():
    report = check_decomposition(k_sensitive_boost(3))
    assert report.statement == "axioms_vs_sp"
    assert report.sp_verdict is False
    assert report.decomposition_verdict is False
    assert report.agreement is True
    assert report.sp_violation is not None
    assert set(report.certificates) == {
        "responsive",
        "upper_invariant",
        "lower_invariant",
    }
    blob = report.to_json()
    assert blob["agreement"] is True
    assert blob["sp_violation"]["truth"] == "0>1,2"


def test_decomposition_report_on_sp_mechanism():
    for mech in (uniform_lottery(3), rank_score(3), top_class_uniform(3)):
        report = check_decomposition(mech)
        assert report.sp_verdict is True
        assert report.decomposition_verdict is True
        assert report.agreement is True
        assert report.sp_violation is None
        assert report.certificates == {}


def test_relaxed_decomposition():
    report = check_relaxed_decomposition(rank_score(3))
    assert report.statement == "relaxed_axioms_vs_sp"
    assert report.agreement is True
    report = check_relaxed_decomposition(k_sensitive_boost(3))
    assert report.agreement is True
    assert report.decomposition_verdict is False


def test_deterministic_decomposition():
    report = check_deterministic_decomposition(min_top_dictator(3))
    assert report.statement == "monotonic_vs_sp_deterministic"
    assert report.sp_verdict is True
    assert report.agreement is True
    with pytest.raises(NotDeterministicError):
        check_deterministic_decomposition(uniform_lottery(3))


def test_all_eight_deterministic_m2_tables():
    orders = enumerate_weak_orders(2)
    agreements = 0
    sp_tables = 0
    for choices in itertools.product(range(2), repeat=3):
        table = lottery_table(
            2,
            {order: Lottery.unit(2, c) for order, c in zip(orders, choices)},
            name=f"det2-{choices}",
        )
        report = check_deterministic_decomposition(table)
        assert report.agreement
        agreements += 1
        sp_tables += report.sp_verdict
    assert agreements == 8
    # constant tables and the two dictatorships are strategyproof;
    # exactly half of the 8 tables survive
    assert sp_tables == 4


def test_count_constraints_closed_forms():
    frozen = {
        2: (3, 6, 2, 2),
        3: (13, 156, 18, 6),
        4: (75, 5550, 158, 14),
        5: (541, 292140, 1530, 30),
        6: (4683, 21925806, 16622, 62),
    }
    for m, row in frozen.items():
        counts = count_constraints(m)
        assert (
            counts.orders,
            counts.ordered_pairs,
            counts.separations_total,
            counts.separations_max_per_order,
        ) == row
    for m in range(1, 11):
        counts = count_constraints(m)
        assert counts.separations_max_per_order == (2**m - 2 if m >= 2 else 0)
        assert counts.ordered_pairs == counts.orders * (counts.orders - 1)


def test_count_constraints_matches_enumeration():
    for m in range(1, 6):
        counts = count_constraints(m)
        assert counts.orders == len(enumerate_weak_orders(m))
        assert counts.separations_total == len(all_separations(m))
        assert counts.separations_max_per_order == max(
            (len(enumerate_separations(o)) for o in enumerate_weak_orders(m)),
            default=0,
        )


def test_scan_random_mechanisms_reproducible():
    a = scan_random_mechanisms(3, 40, seed=11)
    b = scan_random_mechanisms(3, 40, seed=11)
    assert a == b
    assert a.checked == 40
    assert a.all_agree
    assert a.statement == "axioms_vs_sp"
    c = scan_random_mechanisms(3, 40, seed=12)
    assert c.all_agree
    assert (a.sp_count, a.first_disagreement) != (None, "sentinel")


def test_scan_relaxed_statement():
    report = scan_random_mechanisms(3, 25, seed=5, statement="relaxed_axioms_vs_sp")
    assert report.all_agree
    assert report.statement == "relaxed_axioms_vs_sp"
    with pytest.raises(KeyError):
        scan_random_mechanisms(3, 1, seed=5, statement="nonsense")


def test_deterministic_scan_fast_path_matches_generic():
    # cross-checking every table runs each one through the generic
    # checkers too, and any disagreement on either verdict raises
    fast = scan_deterministic_decomposition(3, 300, 77, cross_check=300)
    assert fast.all_agree
    assert fast.checked == fast.cross_checked == 300


@pytest.mark.parametrize("m", [2, 3, 4])
def test_deterministic_scan_matches_randrange_oracle(m):
    # the fast path's counts, and the tables its batched draws make, equal
    # those of one randrange per order and the generic checkers
    for seed in range(3):
        report = scan_deterministic_decomposition(m, 120, seed)
        assert {
            key: getattr(report, key)
            for key in ("checked", "agreements", "sp_count", "first_disagreement")
        } == deterministic_scan_oracle(m, 120, seed)


def test_deterministic_scan_reproducible():
    first = scan_deterministic_decomposition(3, 500, 9, cross_check=10)
    second = scan_deterministic_decomposition(3, 500, 9, cross_check=10)
    assert first == second
    assert first.all_agree
    assert first.cross_checked == 10


def test_deterministic_scan_m2_with_full_cross_check():
    report = scan_deterministic_decomposition(2, 200, 3, cross_check=200)
    assert report.all_agree
    assert report.cross_checked == 200
