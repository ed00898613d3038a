import math
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from sepax.core import (
    Lottery,
    UtilityFn,
    WeakOrder,
    _dominance_gap,
    canonical_utility,
    classes_index,
    enumerate_weak_orders,
    order_from_utility,
    strictly_consistent,
)
from sepax import axioms
from sepax.axioms import (
    _separation_layout,
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
    random_deterministic_mechanism,
    random_mechanism,
    rank_score,
    top_class_uniform,
)
from sepax import paths
from sepax.paths import (
    SPLIT_CHAIN_STYLES,
    _refinement_moves,
    _refinement_walk,
    as_multiway_separation,
    as_refinement,
    as_separation,
    blend_utilities,
    check_refinement_sp,
    enumerate_multiway_separations,
    enumerate_refinements,
    random_strict_utility,
    refinement_path,
    split_chain,
    utility_segment,
)
from sepax.verify import check_sp_bruteforce, verify_sp_violation
from tests.oracles import (
    local_sp_oracle,
    perturbed,
    separation_axiom_oracle,
    sp_pairwise_oracle,
    upper_set_condition_oracle,
    weak_order_count,
)


def wo(text: str) -> WeakOrder:
    return WeakOrder.parse(text)


def test_as_refinement_basics():
    r = as_refinement(wo("0,1>2"), wo("0>1>2"))
    assert r is not None and not r.is_identity
    assert r.blocks == (((0,), (1,)), ((2,),))
    identity = as_refinement(wo("0,1>2"), wo("0,1>2"))
    assert identity is not None and identity.is_identity
    assert as_refinement(wo("0>1>2"), wo("0,1>2")) is None
    assert as_refinement(wo("0,1>2"), wo("1>2>0")) is None
    # two classes refined at once is a refinement but not a multiway split
    r = as_refinement(wo("0,1>2,3"), wo("0>1>2>3"))
    assert r is not None
    assert as_multiway_separation(wo("0,1>2,3"), wo("0>1>2>3")) is None


def test_as_multiway_separation_pinned():
    multi = as_multiway_separation(wo("0,1,2"), wo("0>1>2"))
    assert multi.to_json() == {
        "coarse": "0,1,2",
        "fine": "0>1>2",
        "kappa": 1,
        "parts": [[0], [1], [2]],
    }
    assert multi.arity == 3
    assert as_multiway_separation(wo("0,1,2"), wo("0,1,2")) is None


def test_two_way_multiway_agrees_with_separation():
    for m in (2, 3, 4):
        for coarse in enumerate_weak_orders(m):
            for multi in enumerate_multiway_separations(coarse):
                if multi.arity == 2:
                    sep = as_separation(multi.coarse, multi.fine)
                    assert sep is not None
                    assert (sep.upper_part, sep.lower_part) == multi.parts


def test_enumerate_refinements_counts():
    # refinements of the full-indifference order are exactly all weak orders
    for m in (1, 2, 3, 4):
        flat = WeakOrder(m, (tuple(range(m)),))
        fines = {r.fine for r in enumerate_refinements(flat)}
        assert len(fines) == weak_order_count(m)
    strict = wo("0>1>2")
    assert [r.fine.text for r in enumerate_refinements(strict)] == ["0>1>2"]
    assert [r.is_identity for r in enumerate_refinements(strict)] == [True]


def test_enumerate_multiway_round_trip():
    for m in (2, 3, 4):
        for coarse in enumerate_weak_orders(m):
            for multi in enumerate_multiway_separations(coarse):
                assert multi.arity >= 2
                assert as_multiway_separation(multi.coarse, multi.fine) == multi


def test_split_chain_pinned_examples():
    multi = as_multiway_separation(wo("0,1,2"), wo("0>1>2"))
    top = split_chain(multi, "top_first")
    assert [multi.coarse.text] + [s.fine.text for s in top] == [
        "0,1,2",
        "0>1,2",
        "0>1>2",
    ]
    bottom = split_chain(multi, "bottom_merge")
    assert [multi.coarse.text] + [s.fine.text for s in bottom] == [
        "0,1,2",
        "0,1>2",
        "0>1>2",
    ]
    with pytest.raises(ValueError):
        split_chain(multi, "sideways")


def test_split_chain_exhaustive_small_m():
    for m in (2, 3, 4):
        for coarse in enumerate_weak_orders(m):
            for multi in enumerate_multiway_separations(coarse):
                for style in SPLIT_CHAIN_STYLES:
                    steps = split_chain(multi, style)
                    assert len(steps) == multi.arity - 1
                    assert steps[0].coarse == multi.coarse
                    assert steps[-1].fine == multi.fine
                    for left, right in zip(steps, steps[1:]):
                        assert left.fine == right.coarse
                    for sep in steps:
                        assert as_separation(sep.coarse, sep.fine) == sep


def proper_refinements(coarse: WeakOrder):
    """The refinements of ``coarse`` but the identity."""
    return (r for r in enumerate_refinements(coarse) if not r.is_identity)


@lru_cache(maxsize=8)
def refinement_pairs(m: int) -> tuple[tuple[WeakOrder, WeakOrder], ...]:
    """Every (coarse, fine) refinement pair at size m but the identities,
    in the order the refinement walk tests them."""
    return tuple(
        (move.coarse, move.fine)
        for order in enumerate_weak_orders(m)
        for move in proper_refinements(order)
    )


def local_population() -> list[MechanismTable]:
    """The zoo at m=2..5, seeded random, deterministic and perturbed tables
    at m=3 and m=4, then perturbed tables at m=5."""
    tables = [factory(m) for m in (2, 3, 4, 5) for _, factory in sorted(ZOO.items())]
    rng = random.Random(4242)
    for m, count in ((3, 12), (4, 6)):
        tables += [random_mechanism(m, rng) for _ in range(count)]
        tables += [random_deterministic_mechanism(m, rng) for _ in range(count)]
        tables += [
            perturbed(factory(m), rng)
            for _ in range(count // 3)
            for factory in (rank_score, top_class_uniform)
        ]
    tables += [
        perturbed(factory(5), rng)
        for _ in range(2)
        for factory in (rank_score, top_class_uniform)
    ]
    return tables


def test_local_sp_scans_match_fraction_oracle():
    tables = local_population()
    assert k_sensitive_boost(5) in tables
    for mech in tables:
        violation = check_refinement_sp(mech)
        expected = local_sp_oracle(mech, refinement_pairs(mech.m))
        actual = None if violation is None else violation.to_json()
        assert actual == expected, mech.name
        assert violation is None or verify_sp_violation(mech, violation), mech.name
        assert _upper_set_verdict(mech) == (expected is None), mech.name


def test_upper_set_verdict_matches_oracles(population):
    # the verdict holds iff no refinement pair has a profitable misreport,
    # and iff all four axioms hold on every separation; each population's
    # other oracle is run, and held to the verdict, in
    # test_local_sp_scans_match_fraction_oracle and
    # test_verify.py::test_integer_kernel_matches_oracles
    zoo = [factory(1) for _, factory in sorted(ZOO.items())]
    verdicts = []
    for mech in population + zoo:
        verdicts.append(_upper_set_verdict(mech))
        expected = local_sp_oracle(mech, refinement_pairs(mech.m)) is None
        assert verdicts[-1] == expected, mech.name
    for mech in local_population() + zoo:
        verdicts.append(_upper_set_verdict(mech))
        expected = not any(separation_axiom_oracle(mech).values())
        assert verdicts[-1] == expected, mech.name
    assert 0 < sum(verdicts) < len(verdicts)


def test_upper_set_verdict_on_the_m6_zoo(monkeypatch):
    # the Fraction oracles take seconds per passing m=6 table, so the
    # verdict is held to the integer walks, which the oracles pin at m <= 5,
    # run with the verdict switched off
    tables = [factory(6) for _, factory in sorted(ZOO.items())]
    with monkeypatch.context() as patch:
        patch.setattr(axioms, "_upper_set_verdict", lambda mech: False)
        walks = [
            (not any(find_violations(mech).values()), _refinement_walk(mech) is None)
            for mech in tables
        ]
    verdicts = [_upper_set_verdict(mech) for mech in tables]
    assert [(v, v) for v in verdicts] == walks
    assert verdicts == [name != "k_sensitive_boost" for name in sorted(ZOO)]


def one_part_broken(m: int, rng: random.Random):
    """Tables that break exactly one part of the upper-set condition, as
    (table, part), from `uniform_lottery(m)` with one row moved by 1/(2m):
    - "a": a strict order moves it from its last alternative to its first,
      so it puts more mass than the other holders on each of its upper
      sets, and it weakly holds no set;
    - "b": an order with a class of two or more moves it, inside that
      class, from the class's last member to its first, so its upper sets
      keep their mass, and it puts more than the holders do on each set
      it weakly holds with that class's first member but not its last."""
    orders = enumerate_weak_orders(m)
    strict = [i for i, order in enumerate(orders) if order.num_classes == m]
    tied = [i for i, order in enumerate(orders) if order.num_classes < m]
    for part, picks in (("a", strict), ("b", tied)):
        for i in (picks[0], *rng.sample(picks[1:-1], 2), picks[-1]):
            classes = orders[i].classes
            if part == "a":
                gain, loss = classes[0][0], classes[-1][0]
            else:
                cls = rng.choice([cls for cls in classes if len(cls) > 1])
                gain, loss = cls[0], cls[-1]
            row = [2] * m
            row[gain] += 1
            row[loss] -= 1
            rows = [(m, (1,) * m)] * len(orders)
            rows[i] = (2 * m, tuple(row))
            yield MechanismTable(m, rows, name=f"{part}-{m}-{orders[i].text}"), part


def test_tables_breaking_one_part_fall_back_to_the_walks():
    rng = random.Random(31)
    for m in (3, 4):
        for mech, part in one_part_broken(m, rng):
            expected = (part == "b", part == "a")
            assert upper_set_condition_oracle(mech) == expected, mech.name
            assert _upper_set_verdict(mech) is False, mech.name
            found = find_violations(mech, all_violations=True)
            assert any(found.values()), mech.name
            assert {
                axiom: [cert.to_json() for cert in certs]
                for axiom, certs in found.items()
            } == separation_axiom_oracle(mech), mech.name
            for certs in found.values():
                for cert in certs:
                    assert verify_certificate(mech, cert), mech.name
            for violation, expected in (
                (check_refinement_sp(mech), local_sp_oracle(mech, refinement_pairs(m))),
                (check_sp_bruteforce(mech), sp_pairwise_oracle(mech)),
            ):
                assert violation is not None, mech.name
                assert violation.to_json() == expected, mech.name
                assert verify_sp_violation(mech, violation), mech.name


def test_move_layouts_match_public_enumerators():
    for m in range(1, 7):
        orders = enumerate_weak_orders(m)
        index = {order: i for i, order in enumerate(orders)}
        seps = [sep for order in orders for sep in enumerate_separations(order)]
        assert list(all_separations(m)) == seps
        assert list(_separation_layout(m)) == [
            (index[s.coarse], index[s.fine], s.kappa - 1, s.upper_part, s.lower_part)
            for s in seps
        ]
        # all_separations shares the canonical order instances
        for sep, (ci, fi, *_) in zip(all_separations(m), _separation_layout(m)):
            assert sep.coarse is orders[ci] and sep.fine is orders[fi]


def test_refinement_scan_tests_each_pair_both_ways(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _dominance_gap(*args)

    monkeypatch.setattr(paths, "_dominance_gap", counting)
    assert paths._refinement_walk(rank_score(6)) is None
    # each order has the product of its classes' Fubini numbers as
    # refinements, the identity among them
    pairs = sum(
        math.prod(weak_order_count(len(cls)) for cls in order.classes) - 1
        for order in enumerate_weak_orders(6)
    )
    assert pairs == 61922
    assert calls == 2 * pairs


def test_refinement_scan_stops_at_first_failing_order(monkeypatch):
    rng = random.Random(17)
    tables = [k_sensitive_boost(m) for m in (3, 4, 5)]
    tables += [perturbed(factory(4), rng) for factory in (rank_score, top_class_uniform)]
    for mech in tables:
        calls = 0

        def counting(classes):
            nonlocal calls
            calls += 1
            return _refinement_moves(classes)

        monkeypatch.setattr(paths, "_refinement_moves", counting)
        violation = check_refinement_sp(mech)
        assert violation is not None, mech.name
        # a refinement pair's coarse order has fewer classes than its fine one
        coarse = min(
            violation.truth, violation.misreport, key=lambda order: order.num_classes
        )
        c = classes_index(mech.m)[coarse.classes]
        assert c > 0 and calls == c + 1, mech.name


def test_local_sp_scans_on_zoo():
    for mech in (rank_score(3), top_class_uniform(4)):
        assert check_refinement_sp(mech) is None
    bad = k_sensitive_boost(3)
    violation = check_refinement_sp(bad)
    assert violation is not None
    truth_lot = bad.lottery(violation.truth)
    lie_lot = bad.lottery(violation.misreport)
    upper = violation.truth.upper_contour(violation.witness_alt)
    assert truth_lot.mass(upper) == violation.truth_cumulative
    assert lie_lot.mass(upper) == violation.misreport_cumulative
    assert violation.misreport_cumulative > violation.truth_cumulative


def test_blend_utilities():
    u = UtilityFn(2, (F(1), F(0)))
    v = UtilityFn(2, (F(0), F(1)))
    mid = blend_utilities(u, v, F(1, 2))
    assert mid.values == (F(1, 2), F(1, 2))
    assert blend_utilities(u, v, F(0)).values == u.values
    assert blend_utilities(u, v, F(1)).values == v.values


def test_mixed_sizes_raise_the_shared_message():
    u2 = UtilityFn(2, (F(1), F(0)))
    u3 = canonical_utility(wo("0>1>2"))
    o2, o3 = wo("0>1"), wo("0,1>2")
    for call in (
        lambda: u2.expected(Lottery.uniform(3)),
        lambda: blend_utilities(u2, u3, F(1, 2)),
        lambda: utility_segment(u3, u2),
        lambda: as_refinement(o2, o3),
        lambda: as_separation(o3, o2),
        lambda: as_multiway_separation(o2, o3),
        lambda: refinement_path(o3, o2),
    ):
        with pytest.raises(ValueError, match=r"^mixed problem sizes: \[2, 3\]$"):
            call()


def test_utility_segment_pinned():
    seg = utility_segment(
        canonical_utility(wo("0>1>2")), canonical_utility(wo("2>1>0"))
    )
    assert seg.breakpoints == (F(1, 2),)
    seg = utility_segment(
        canonical_utility(wo("0>1")), canonical_utility(wo("0>1"))
    )
    assert seg.breakpoints == ()
    with pytest.raises(ValueError):
        utility_segment(canonical_utility(wo("0>1")), canonical_utility(wo("0>1>2")))


def test_refinement_path_pinned_examples():
    p = refinement_path(wo("0>1"), wo("1>0"))
    assert [o.text for o in p.orders] == ["0>1", "0,1", "1>0"]
    assert p.alphas == [F(0), F(1, 2), F(3, 4)]
    assert [d for d, _ in p.steps()] == ["coarsen", "refine"]

    p = refinement_path(wo("0>1>2"), wo("2>1>0"))
    assert [o.text for o in p.orders] == ["0>1>2", "0,1,2", "2>1>0"]

    p = refinement_path(wo("0,1"), wo("0>1"))
    assert [o.text for o in p.orders] == ["0,1", "0>1"]
    assert [d for d, _ in p.steps()] == ["refine"]

    p = refinement_path(wo("0>1"), wo("0>1"))
    assert [o.text for o in p.orders] == ["0>1"]
    assert p.steps() == []


def test_refinement_path_rejects_inconsistent_utilities():
    with pytest.raises(ValueError):
        refinement_path(wo("0>1"), wo("1>0"), u=canonical_utility(wo("1>0")))
    with pytest.raises(ValueError):
        refinement_path(
            wo("0>1"), wo("1>0"), v=UtilityFn(2, (F(1), F(1)))
        )


def test_refinement_path_random_property():
    rng = random.Random(314)
    orders4 = enumerate_weak_orders(4)
    for _ in range(200):
        start, end = rng.choice(orders4), rng.choice(orders4)
        u = random_strict_utility(start, rng)
        v = random_strict_utility(end, rng)
        assert strictly_consistent(u, start)
        assert strictly_consistent(v, end)
        path = refinement_path(start, end, u=u, v=v)
        assert path.orders[0] == start and path.orders[-1] == end
        assert path.alphas[0] == 0
        assert all(a < b for a, b in zip(path.alphas, path.alphas[1:]))
        for order, alpha in zip(path.orders, path.alphas):
            assert order_from_utility(blend_utilities(u, v, alpha)) == order
        for left, right in zip(path.orders, path.orders[1:]):
            assert left != right
        path.steps()  # raises if some adjacent pair is not a refinement


def test_path_telescopes_for_sp_mechanism():
    # a strategyproof table loses expected utility at every step away from
    # the truth, measured with the blended utility that induces the step's
    # left order
    mech = rank_score(3)
    rng = random.Random(99)
    orders = enumerate_weak_orders(3)
    for _ in range(60):
        start, end = rng.choice(orders), rng.choice(orders)
        u = random_strict_utility(start, rng)
        v = random_strict_utility(end, rng)
        path = refinement_path(start, end, u=u, v=v)
        for i in range(len(path.orders) - 1):
            blend = blend_utilities(u, v, path.alphas[i])
            here = blend.expected(mech.lottery(path.orders[i]))
            there = blend.expected(mech.lottery(path.orders[i + 1]))
            assert here >= there


def test_random_strict_utility_reproducible():
    order = wo("1>0,2>3")
    a = random_strict_utility(order, random.Random(4))
    b = random_strict_utility(order, random.Random(4))
    assert a.values == b.values
    assert strictly_consistent(a, order)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_utilities_match_a_per_class_reference(seed):
    # one draw per class, in class order, from one shared stream: the
    # canonical level K - k (0-based k) plus a jitter in 24ths
    rng, reference = random.Random(seed), random.Random(seed)
    for m in range(1, 5):
        for order in enumerate_weak_orders(m):
            K = order.num_classes
            canonical, jittered = [None] * m, [None] * m
            for k, cls in enumerate(order.classes):
                jitter = F(reference.randrange(24), 24)
                for alt in cls:
                    canonical[alt] = F(K - k)
                    jittered[alt] = F(K - k) + jitter
            assert canonical_utility(order).values == tuple(canonical)
            assert random_strict_utility(order, rng).values == tuple(jittered)
