import dataclasses
from fractions import Fraction as F

import pytest

from sepax.core import Lottery, WeakOrder, enumerate_weak_orders
from sepax.axioms import (
    AXIOMS,
    Certificate,
    all_separations,
    as_separation,
    check_all_axioms,
    enumerate_separations,
    find_violations,
    verify_certificate,
)
from sepax.mechanisms import (
    MechanismTable,
    k_sensitive_boost,
    top_class_uniform,
    uniform_lottery,
)
from tests.oracles import split_count


def wo(text: str) -> WeakOrder:
    return WeakOrder.parse(text)


def direct_violator() -> MechanismTable:
    """Best-response mass on alternative 0 is flat across the split even
    though the split moved mass between 1 and 2, so the change is not
    driven by the splitting agent's own part."""
    entries = dict(top_class_uniform(3).items())
    entries[wo("0,1>2")] = Lottery(3, (F(1, 2), F(1, 3), F(1, 6)))
    entries[wo("0>1>2")] = Lottery(3, (F(1, 2), F(5, 12), F(1, 12)))
    return MechanismTable(3, entries, name="direct_violator")


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


def test_monotonic_prefers_earliest_separation():
    # monotonic is responsive and direct together; its earliest failure is
    # the lowest separation index over both, responsive first on a tie
    report = check_all_axioms(k_sensitive_boost(3))
    assert report.verdicts["monotonic"] is False
    assert report.verdicts["direct"] is True
    mech = direct_violator()
    found = find_violations(mech, ("responsive", "direct"))
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
        for axiom in AXIOMS:
            certs = find_violations(mech, (axiom,))[axiom]
            assert (not certs) == report.verdicts[axiom]
            assert certs == report.certificates[axiom]


def test_verify_certificate_rejects_tampering():
    mech = k_sensitive_boost(3)
    cert = find_violations(mech, ("responsive",))["responsive"][0]
    assert verify_certificate(mech, cert)
    assert not verify_certificate(mech, dataclasses.replace(cert, lhs=F(1, 7)))
    assert not verify_certificate(mech, dataclasses.replace(cert, rhs=cert.lhs))
    assert not verify_certificate(mech, dataclasses.replace(cert, axiom="direct"))
    assert not verify_certificate(
        mech, dataclasses.replace(cert, witness="lower_part")
    )
    swapped = dataclasses.replace(
        cert,
        separation=dataclasses.replace(
            cert.separation, upper_part=(2,), lower_part=(1,)
        ),
    )
    assert not verify_certificate(mech, swapped)
    # a true certificate from one mechanism need not verify on another
    assert not verify_certificate(uniform_lottery(3), cert)


def test_invariance_k_bounds():
    mech = k_sensitive_boost(3)
    found = find_violations(mech, ("upper_invariant", "lower_invariant"))
    up, low = found["upper_invariant"][0], found["lower_invariant"][0]
    assert up.k < up.separation.kappa
    assert low.k > low.separation.kappa


def test_all_violations_flag():
    few = find_violations(k_sensitive_boost(3), ("responsive",))
    many = find_violations(
        k_sensitive_boost(3), ("responsive",), all_violations=True
    )
    assert len(few["responsive"]) == 1
    assert len(many["responsive"]) > 1
    assert many["responsive"][0] == few["responsive"][0]
    indices = [c.separation_index for c in many["responsive"]]
    assert indices == sorted(indices)


def test_find_violations_rejects_unknown_axiom():
    with pytest.raises(ValueError):
        find_violations(uniform_lottery(2), ("sneaky",))


def test_certificate_witness_set():
    mech = k_sensitive_boost(3)
    found = find_violations(mech, ("responsive", "upper_invariant"))
    resp, up = found["responsive"][0], found["upper_invariant"][0]
    assert resp.witness_set() == resp.separation.upper_part
    assert up.witness_set() == up.separation.coarse.classes[up.k - 1]
    with pytest.raises(ValueError):
        dataclasses.replace(resp, witness="nonsense").witness_set()
    # a class outside 1..K must not wrap around to one counted from the end
    for cert in (resp, up):
        K = cert.separation.coarse.num_classes
        for k in (0, -1, K + 1):
            with pytest.raises(ValueError):
                dataclasses.replace(cert, k=k).witness_set()


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
            forged = dataclasses.replace(cert, axiom="upper_invariant", k=0)
            assert not verify_certificate(mech, forged)
            relabelled += 1
        for certs in found.values():
            for cert in certs:
                K = cert.separation.coarse.num_classes
                for k in (0, -1, K + 1):
                    assert not verify_certificate(mech, dataclasses.replace(cert, k=k))
                assert not verify_certificate(
                    mech, dataclasses.replace(cert, witness="bogus")
                )
                if cert.witness != "class":
                    for k in range(1, K + 1):
                        if k != cert.separation.kappa:
                            assert not verify_certificate(
                                mech, dataclasses.replace(cert, k=k)
                            )
    assert relabelled > 0
