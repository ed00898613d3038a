import random
from fractions import Fraction as F

import pytest

from sepax.core import Lottery, WeakOrder, enumerate_weak_orders
from sepax.axioms import (
    AXIOMS,
    all_separations,
    check_all_axioms,
    enumerate_separations,
    find_violations,
    verify_certificate,
)
from sepax.mechanisms import (
    MechanismTable,
    k_sensitive_boost,
    random_deterministic_mechanism,
    random_mechanism,
    rank_score,
    top_class_uniform,
    uniform_lottery,
)
from sepax.paths import as_separation
from tests.oracles import (
    lottery_table,
    perturbed,
    replace,
    separation_axiom_oracle,
    split_count,
)


def wo(text: str) -> WeakOrder:
    return WeakOrder.parse(text)


def direct_violator() -> MechanismTable:
    """Best-response mass on alternative 0 is flat across the split even
    though the split moved mass between 1 and 2, so the change is not
    driven by the splitting agent's own part."""
    entries = dict(top_class_uniform(3).items())
    entries[wo("0,1>2")] = Lottery(3, (F(1, 2), F(1, 3), F(1, 6)))
    entries[wo("0>1>2")] = Lottery(3, (F(1, 2), F(5, 12), F(1, 12)))
    return lottery_table(3, entries, name="direct_violator")


def test_as_separation_pinned_example():
    sep = as_separation(wo("0,1>2"), wo("0>1>2"))
    assert sep is not None
    assert sep.kappa == 1
    assert sep.upper_part == (0,)
    assert sep.lower_part == (1,)
    assert sep.to_json() == {
        "coarse": "0,1>2",
        "fine": "0>1>2",
        "kappa": 1,
        "M1": [0],
        "M2": [1],
    }


def test_as_separation_rejects():
    # wrong direction, identity, unrelated orders, and a two-step split
    assert as_separation(wo("0>1>2"), wo("0,1>2")) is None
    assert as_separation(wo("0,1>2"), wo("0,1>2")) is None
    assert as_separation(wo("0,1>2"), wo("2>0>1")) is None
    assert as_separation(wo("0,1,2"), wo("0>1>2")) is None
    assert as_separation(wo("0,1>2"), wo("1>0>2")) is not None
    # split must respect the untouched tail
    assert as_separation(wo("0,1>2"), wo("0>2>1")) is None


def test_enumerate_separations_per_order():
    for m in range(1, 6):
        for order in enumerate_weak_orders(m):
            seps = enumerate_separations(order)
            assert len(seps) == split_count([len(c) for c in order.classes])
            for sep in seps:
                assert sep.coarse == order
                assert as_separation(sep.coarse, sep.fine) == sep
            assert len(set((s.kappa, s.upper_part) for s in seps)) == len(seps)


def test_all_separations_totals():
    assert len(all_separations(2)) == 2
    assert len(all_separations(3)) == 18
    assert len(all_separations(4)) == 158


def test_all_separations_matches_pairwise_scan():
    for m in (2, 3, 4):
        seps = set(all_separations(m))
        orders = enumerate_weak_orders(m)
        brute = set()
        for a in orders:
            for b in orders:
                s = as_separation(a, b)
                if s is not None:
                    brute.add(s)
        assert seps == brute


def test_uniform_passes_everything():
    report = check_all_axioms(uniform_lottery(3))
    assert report.verdicts == {
        "responsive": True,
        "direct": True,
        "upper_invariant": True,
        "lower_invariant": True,
        "monotonic": True,
    }
    assert all(not certs for certs in report.certificates.values())


def test_boost_mechanism_certificates():
    report = check_all_axioms(k_sensitive_boost(3))
    assert report.verdicts == {
        "responsive": False,
        "direct": True,
        "upper_invariant": False,
        "lower_invariant": False,
        "monotonic": False,
    }
    resp = report.certificates["responsive"][0]
    assert resp.to_json() == {
        "axiom": "responsive",
        "coarse": "0>1,2",
        "fine": "0>1>2",
        "kappa": 2,
        "M1": [1],
        "M2": [2],
        "k": 2,
        "witness": "upper_part",
        "lhs": "1/6",
        "rhs": "1/8",
    }
    upper = report.certificates["upper_invariant"][0]
    assert upper.to_json() == {
        "axiom": "upper_invariant",
        "coarse": "0>1,2",
        "fine": "0>1>2",
        "kappa": 2,
        "M1": [1],
        "M2": [2],
        "k": 1,
        "witness": "class",
        "lhs": "2/3",
        "rhs": "3/4",
    }
    lower = report.certificates["lower_invariant"][0]
    assert lower.separation.coarse.text == "0,1>2"
    assert (lower.lhs, lower.rhs) == (F(1, 3), F(1, 8))
    for certs in report.certificates.values():
        for cert in certs:
            assert verify_certificate(k_sensitive_boost(3), cert)


def test_direct_violator_certificates():
    mech = direct_violator()
    report = check_all_axioms(mech)
    assert report.verdicts["direct"] is False
    cert = report.certificates["direct"][0]
    assert cert.separation.coarse.text == "0,1>2"
    assert cert.separation.fine.text == "0>1>2"
    assert cert.witness == "upper_part"
    assert cert.lhs == cert.rhs == F(1, 2)
    low = report.certificates["lower_invariant"][0]
    assert (low.lhs, low.rhs) == (F(1, 6), F(1, 12))
    assert verify_certificate(mech, cert)
    assert verify_certificate(mech, low)


# Tables uniform but at the orders named, each failing one clause of the
# scan's pass test at every separation that fails it: the classes above
# the split class keep their masses, those below keep theirs, and the
# upper part does not lose mass. Value: the axioms the table violates.
ONE_CLAUSE_TABLES = {
    # invariance holds, but 0 has 1/2 at "0,1>2" and 1/3 at "0>1>2"
    "responsive": ({"0,1>2": (F(1, 2), F(1, 6), F(1, 3))}, {"responsive"}),
    # only 0, ranked above the split class {1, 2}, changes mass; each
    # fine order gives its lower part 1/3 back, so responsive fails too
    "upper_invariant": (
        {"0>1,2": (F(2, 3), F(1, 6), F(1, 6))},
        {"upper_invariant", "responsive"},
    ),
    # only 2, ranked below the split class {0, 1}, changes mass; 0 keeps
    # its 1/3 and 1 gains what 2 lost, so direct and responsive fail too
    "lower_invariant": (
        {"0>1>2": (F(1, 3), F(1, 2), F(1, 6))},
        {"lower_invariant", "direct", "responsive"},
    ),
    # 0 gains mass from 2 at "0>1>2": each of its two separations moves a
    # class outside the split one while a part keeps its mass
    "direct": (
        {"0>1>2": (F(1, 2), F(1, 3), F(1, 6))},
        {"upper_invariant", "lower_invariant", "direct"},
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_CLAUSE_TABLES))
def test_pass_test_clauses_against_axiom_oracle(name):
    changed, violated = ONE_CLAUSE_TABLES[name]
    entries = dict(uniform_lottery(3).items())
    entries.update((wo(text), Lottery(3, probs)) for text, probs in changed.items())
    mech = lottery_table(3, entries, name=name)
    found = find_violations(mech, all_violations=True)
    assert {axiom for axiom, certs in found.items() if certs} == violated
    assert {
        axiom: [cert.to_json() for cert in certs] for axiom, certs in found.items()
    } == separation_axiom_oracle(mech)
    for certs in found.values():
        assert all(verify_certificate(mech, cert) for cert in certs)


def _failing_tables():
    yield direct_violator()
    for m in (3, 4, 5):
        yield k_sensitive_boost(m)
        yield random_mechanism(m, random.Random(m))
        yield random_deterministic_mechanism(m, random.Random(m))
        yield perturbed(rank_score(m), random.Random(m))


@pytest.mark.parametrize(
    "mech", _failing_tables(), ids=lambda mech: f"{mech.name}-{mech.m}"
)
def test_first_only_walk_matches_axiom_oracle(mech):
    # without all_violations each axiom reports the oracle's first failure,
    # also once the walk has stopped testing the axioms already found
    found = find_violations(mech)
    expected = separation_axiom_oracle(mech)
    assert any(found.values())
    for axiom in AXIOMS:
        assert [cert.to_json() for cert in found[axiom]] == expected[axiom][:1]


# a random table stops the first-only walk early, a perturbed SP table
# late; each full walk of a random m=6 table costs about 0.3 s
@pytest.mark.parametrize(
    "mech",
    [random_mechanism(6, random.Random(0)), perturbed(rank_score(6), random.Random(6))],
    ids=lambda mech: mech.name,
)
def test_first_only_walk_is_head_of_full_walk_m6(mech):
    # the first-only walk builds an order's class masses when it first
    # reads them, the full walk reads every order: the same certificates
    found = find_violations(mech)
    everything = find_violations(mech, all_violations=True)
    assert any(found.values())
    for axiom in AXIOMS:
        assert found[axiom] == everything[axiom][:1]


def _walk_tables():
    # random tables whose direct failure comes after the other three
    # axioms' first failures (seed 0 at m=5 and 6, seed 1 at m=4), so the
    # first-only walk finds it on the direct-only tail, and random tables
    # whose direct failure comes first; k_sensitive_boost never fails
    # direct, and its tail runs to the end past separations whose parts
    # both keep their mass
    for m in (4, 5, 6):
        for seed in (0, 1):
            yield random_mechanism(m, random.Random(seed), name=f"random-{seed}")
        yield k_sensitive_boost(m)
        yield perturbed(rank_score(m), random.Random(m))
        yield random_deterministic_mechanism(m, random.Random(m))


@pytest.mark.parametrize("mech", _walk_tables(), ids=lambda mech: f"{mech.name}-{mech.m}")
def test_first_only_certificates_head_the_full_walk(mech):
    found = find_violations(mech)
    everything = find_violations(mech, all_violations=True)
    assert any(found.values())
    for axiom in AXIOMS:
        assert found[axiom] == everything[axiom][:1]
    if mech.m < 6:
        assert {
            axiom: [cert.to_json() for cert in certs] for axiom, certs in everything.items()
        } == separation_axiom_oracle(mech)


def test_direct_is_found_on_the_tail_at_each_size():
    # the tables above do reach the direct-only tail with direct still open
    for m, seed in ((4, 1), (5, 0), (6, 0)):
        found = find_violations(random_mechanism(m, random.Random(seed)))
        first = {axiom: certs[0].separation_index for axiom, certs in found.items()}
        assert first["direct"] > max(
            first[axiom] for axiom in AXIOMS if axiom != "direct"
        )


# the first-only certificates of random_mechanism(7, Random(0)), as the walk
# that built every order's class masses up front reported them
M7_RANDOM_FIRST_CERTIFICATES = {
    "responsive": (1, {
        "coarse": "0>1>2>3>4>5,6", "fine": "0>1>2>3>4>6>5", "kappa": 6,
        "M1": [6], "M2": [5], "k": 6, "witness": "upper_part",
        "lhs": "9/38", "rhs": "3/46",
    }),
    "direct": (92, {
        "coarse": "0>1>2>6>3,5>4", "fine": "0>1>2>6>3>5>4", "kappa": 5,
        "M1": [3], "M2": [5], "k": 5, "witness": "lower_part",
        "lhs": "0", "rhs": "0",
    }),
    "upper_invariant": (0, {
        "coarse": "0>1>2>3>4>5,6", "fine": "0>1>2>3>4>5>6", "kappa": 6,
        "M1": [5], "M2": [6], "k": 1, "witness": "class",
        "lhs": "4/19", "rhs": "6/43",
    }),
    "lower_invariant": (4, {
        "coarse": "0>1>2>3>4,5>6", "fine": "0>1>2>3>4>5>6", "kappa": 5,
        "M1": [4], "M2": [5], "k": 6, "witness": "class",
        "lhs": "0", "rhs": "7/43",
    }),
}


def test_first_only_walk_m7_random_table():
    mech = random_mechanism(7, random.Random(0))
    found = find_violations(mech)
    for axiom, (index, fields) in M7_RANDOM_FIRST_CERTIFICATES.items():
        [cert] = found[axiom]
        assert cert.separation_index == index
        assert cert.to_json() == {"axiom": axiom, **fields}
        assert verify_certificate(mech, cert)


def test_monotonic_prefers_earliest_separation():
    # monotonic is responsive and direct together; its earliest failure is
    # the lowest separation index over both, responsive first on a tie
    report = check_all_axioms(k_sensitive_boost(3))
    assert report.verdicts["monotonic"] is False
    assert report.verdicts["direct"] is True
    mech = direct_violator()
    found = find_violations(mech)
    ranked = [
        (c.separation_index, prio, c)
        for prio, axiom in enumerate(("responsive", "direct"))
        for c in found[axiom]
    ]
    earliest = min(ranked, key=lambda item: item[:2])[2]
    assert (earliest.axiom, earliest.separation_index) == ("responsive", 0)
    assert found["direct"][0].separation_index == 4
    assert check_all_axioms(mech).verdicts["monotonic"] is False


def test_individual_checkers_match_report():
    for mech in (k_sensitive_boost(3), direct_violator(), uniform_lottery(3)):
        report = check_all_axioms(mech)
        found = find_violations(mech)
        for axiom in AXIOMS:
            certs = found[axiom]
            assert (not certs) == report.verdicts[axiom]
            assert certs == report.certificates[axiom]


def test_verify_certificate_rejects_tampering():
    mech = k_sensitive_boost(3)
    cert = find_violations(mech)["responsive"][0]
    assert verify_certificate(mech, cert)
    assert not verify_certificate(mech, replace(cert, lhs=F(1, 7)))
    assert not verify_certificate(mech, replace(cert, rhs=cert.lhs))
    assert not verify_certificate(mech, replace(cert, axiom="direct"))
    assert not verify_certificate(mech, replace(cert, witness="lower_part"))
    swapped = replace(
        cert, separation=replace(cert.separation, upper_part=(2,), lower_part=(1,))
    )
    assert not verify_certificate(mech, swapped)
    # a true certificate from one mechanism need not verify on another
    assert not verify_certificate(uniform_lottery(3), cert)
    # nor on a table of another problem size, by either of its orders
    assert not verify_certificate(k_sensitive_boost(4), cert)
    foreign = replace(cert, separation=replace(cert.separation, fine=wo("0>1>2>3")))
    assert not verify_certificate(mech, foreign)


def test_verify_certificate_rejects_a_moved_split_or_another_fine_order():
    orders = enumerate_weak_orders(3)
    for mech in (k_sensitive_boost(3), random_mechanism(3, random.Random(0))):
        certs = [
            cert
            for found in find_violations(mech, all_violations=True).values()
            for cert in found
        ]
        assert certs
        for cert in certs:
            sep = cert.separation
            assert verify_certificate(mech, cert)
            for kappa in range(1, sep.coarse.num_classes + 1):
                if kappa != sep.kappa:
                    moved = replace(cert, separation=replace(sep, kappa=kappa))
                    assert not verify_certificate(mech, moved)
            for fine in orders:
                if fine != sep.fine:
                    swapped = replace(cert, separation=replace(sep, fine=fine))
                    assert not verify_certificate(mech, swapped)


def test_invariance_k_bounds():
    mech = k_sensitive_boost(3)
    found = find_violations(mech)
    up, low = found["upper_invariant"][0], found["lower_invariant"][0]
    assert up.k < up.separation.kappa
    assert low.k > low.separation.kappa


def test_all_violations_flag():
    few = find_violations(k_sensitive_boost(3))
    many = find_violations(k_sensitive_boost(3), all_violations=True)
    assert len(few["responsive"]) == 1
    assert len(many["responsive"]) > 1
    assert many["responsive"][0] == few["responsive"][0]
    indices = [c.separation_index for c in many["responsive"]]
    assert indices == sorted(indices)


def test_certificate_witness_set():
    mech = k_sensitive_boost(3)
    found = find_violations(mech)
    resp, up = found["responsive"][0], found["upper_invariant"][0]
    assert resp.witness_set() == resp.separation.upper_part
    assert up.witness_set() == up.separation.coarse.classes[up.k - 1]
    with pytest.raises(ValueError):
        replace(resp, witness="nonsense").witness_set()
    # a class outside 1..K must not wrap around to one counted from the end
    for cert in (resp, up):
        K = cert.separation.coarse.num_classes
        for k in (0, -1, K + 1):
            with pytest.raises(ValueError):
                replace(cert, k=k).witness_set()


def test_verify_certificate_rejects_out_of_range_witnesses():
    # k=0 must not reach the last coarse class from the end, or a genuine
    # lower-invariance failure at k == K passes as an upper one at k=0
    relabelled = 0
    for mech in (k_sensitive_boost(3), direct_violator()):
        found = find_violations(mech, all_violations=True)
        for cert in found["lower_invariant"]:
            K = cert.separation.coarse.num_classes
            if cert.k != K:
                continue
            assert verify_certificate(mech, cert)
            forged = replace(cert, axiom="upper_invariant", k=0)
            assert not verify_certificate(mech, forged)
            relabelled += 1
        for certs in found.values():
            for cert in certs:
                K = cert.separation.coarse.num_classes
                for k in (0, -1, K + 1):
                    assert not verify_certificate(mech, replace(cert, k=k))
                assert not verify_certificate(mech, replace(cert, witness="bogus"))
                if cert.witness != "class":
                    for k in range(1, K + 1):
                        if k != cert.separation.kappa:
                            assert not verify_certificate(mech, replace(cert, k=k))
    assert relabelled > 0
