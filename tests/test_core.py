import json
import pickle
import random
from fractions import Fraction as F

import pytest

from sepax.axioms import AxiomReport, Certificate, Separation
from sepax.core import (
    ENUMERATION_MAX_M,
    FormatError,
    FrozenRecord,
    Lottery,
    Record,
    UtilityFn,
    WeakOrder,
    canonical_utility,
    classes_index,
    classes_text,
    consistent,
    enumerate_weak_orders,
    fosd,
    format_rational,
    json_value,
    order_classes,
    order_from_utility,
    order_texts,
    ordered_set_partitions,
    parse_rational,
    strictly_consistent,
)
from sepax.lp import Constraint, LinearProgram, LPSolution
from sepax.mechanisms import uniform_lottery
from sepax.paths import MultiwaySeparation, PathResult, Refinement, UtilitySegment
from sepax.verify import ConstraintCounts, EquivalenceReport, ScanReport, SPViolation
from tests.oracles import fosd_oracle_utilities, weak_order_count, weak_order_fault_oracle


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


def test_json_value():
    # 5,000 digits, past the interpreter's 4,300-digit limit on str(int)
    digits = "1" + "0" * 4998 + "7"
    for value, expected in (
        (F(3, 6), "1/2"),
        (F(-2), "-2"),
        (F(10**4999 + 7, 3), f"{digits}/3"),
        (True, True),
        (0, 0),
        (None, None),
        ("x", "x"),
        (((1, 2), (F(1, 3),), ()), [[1, 2], ["1/3"], []]),
        ([F(1), (0,)], ["1", [0]]),
        (
            {"a": F(1, 2), "b": False, 3: (WeakOrder.parse("1>0"),)},
            {"a": "1/2", "b": False, 3: ["1>0"]},
        ),
        (WeakOrder.parse("0,1>2"), "0,1>2"),
    ):
        encoded = json_value(value)
        assert encoded == expected and type(encoded) is type(expected)


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


def _outcome(build) -> tuple[str, str] | None:
    try:
        build()
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _oracle_build(m, classes) -> None:
    message = weak_order_fault_oracle(m, classes)
    if message is not None:
        raise ValueError(message)


def _construction_cases():
    for m in range(1, 4):
        for order in enumerate_weak_orders(m):
            c = order.classes
            yield m, c
            yield m + 1, c
            yield m - 1, c
            yield m, list(c)
            yield m, tuple(list(cls) for cls in c)
            yield m, c + ((),)
            yield m, ((),) + c
            yield m, tuple(cls[::-1] for cls in c)
            yield m, c[:-1]
            yield m, c + ((0,),)
            yield m, c + ((m,),)
            yield m, c[:1] + c
            yield m, tuple(tuple(a + 1 for a in cls) for cls in c)
            yield m, tuple(tuple(map(float, cls)) for cls in c)
            yield m, tuple(tuple(map(str, cls)) for cls in c)
            yield m, tuple(cls + cls[-1:] for cls in c)
    yield 2, ((False, True),)
    yield 2, ((0,), (True,))
    yield 2, ((0, "1"),)
    yield 2, ((0,), ("a",))
    yield 2, ((0, 1j),)
    yield 2, (([0], [1]),)
    yield 2, ("01",)
    yield 1, "0"
    yield 2.0, ((0,), (1,))
    yield 3, ((0, 2), (1,), ())


def test_weak_order_construction_matches_class_by_class_check():
    # the whole-order test may only speed acceptance: every input keeps the
    # outcome, exception type and message of the class-by-class check
    for m, classes in _construction_cases():
        expected = _outcome(lambda: _oracle_build(m, classes))
        assert _outcome(lambda: WeakOrder(m, classes)) == expected, (m, classes)


def test_weak_order_construction_reads_one_shot_classes_once():
    for m, classes in ((1, ((0,), ())), (2, ((0,), (1,))), (2, ((1,), (0, 1)))):
        expected = _outcome(lambda: _oracle_build(m, iter(classes)))
        assert _outcome(lambda: WeakOrder(m, iter(classes))) == expected, classes


def test_weak_order_stores_accepted_classes_as_tuples():
    parsed = WeakOrder.parse("0>1")
    table = uniform_lottery(2)
    for classes in ([[0], [1]], ([0], [1]), [(0,), (1,)]):
        order = WeakOrder(2, classes)
        assert order.classes == ((0,), (1,)) and order == parsed
        assert hash(order) == hash(parsed)
        assert table.lottery(order) == table.lottery(parsed)
    for classes in ([[0], [1]], ((0,), (1,))):
        assert WeakOrder(2, iter(classes)).classes == ((0,), (1,))


def test_order_classes_is_the_canonical_domain():
    for m in range(1, ENUMERATION_MAX_M + 1):
        domain = order_classes(m)
        assert len(domain) == weak_order_count(m)
        index = classes_index(m)
        texts = order_texts(m)
        orders = enumerate_weak_orders(m)
        assert len(index) == len(texts) == len(orders) == len(domain)
        for i, classes in enumerate(domain):
            order = WeakOrder(m, classes)  # passes validation
            assert order == orders[i] and orders[i].classes is classes
            assert index[classes] == i
            assert texts[i] == order.text == classes_text(classes)
    assert order_classes(3) is order_classes(3)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least one alternative"):
            order_classes(bad)


@pytest.mark.parametrize("m", range(1, ENUMERATION_MAX_M + 1))
def test_checked_order_equals_the_validated_one(m):
    # _checked runs no check, so on every canonical class tuple it must
    # build the very order the checking constructor builds
    for classes in order_classes(m):
        fast, checked = WeakOrder._checked(m, classes), WeakOrder(m, classes)
        assert type(fast) is WeakOrder and fast == checked
        assert hash(fast) == hash(checked)
        assert fast.text == checked.text
        assert fast._class_index == checked._class_index
        assert repr(fast) == repr(checked)
    with pytest.raises(AttributeError, match="cannot assign"):
        fast.m = m


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
    with pytest.raises(ValueError, match=r"^alternative 3 out of range for m=3$"):
        order.class_of(3)
    with pytest.raises(ValueError, match=r"^alternative -1 out of range for m=3$"):
        order.upper_contour(-1)


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
    for alt in (-1, 3):
        with pytest.raises(ValueError, match=rf"^alternative {alt} out of range for m=3$"):
            Lottery.unit(3, alt)


def test_lottery_mass():
    lot = Lottery(3, (F(1, 2), F(1, 6), F(1, 3)))
    assert lot.mass([]) == 0
    assert lot.mass(range(3)) == 1
    assert lot.mass([0, 2]) == F(5, 6)
    assert lot.mass([0, 0, 2]) == F(5, 6)  # duplicates count once
    with pytest.raises(ValueError, match=r"^alternative 3 out of range for m=3$"):
        lot.mass([3])


def test_subset_prob():
    lot = Lottery(3, (F(1, 2), F(1, 3), F(1, 6)))
    assert lot.mass({0, 2}) == F(2, 3)
    assert lot.mass(set()) == 0
    assert lot.mass({0, 1, 2}) == 1
    with pytest.raises(ValueError, match=r"^alternative 5 out of range for m=3$"):
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


def _record_samples() -> dict[str, tuple[type, bool, dict]]:
    """Per record class: the class, whether it is frozen, and one sample's
    field values by name, in field order."""
    wo = WeakOrder.parse
    sep = Separation(wo("0,1"), wo("0>1"), 1, (0,), (1,))
    u, v = UtilityFn(2, (F(1), F(0))), UtilityFn(2, (F(0), F(1)))
    con = Constraint("c", {0: F(1)}, "<=", F(1))
    samples = [
        (WeakOrder, True, {"m": 2, "classes": ((0,), (1,))}),
        (Lottery, True, {"m": 2, "probs": (F(1), F(0))}),
        (UtilityFn, True, {"m": 2, "values": (F(1), F(0))}),
        (Separation, True, {
            "coarse": wo("0,1"), "fine": wo("0>1"), "kappa": 1,
            "upper_part": (0,), "lower_part": (1,),
        }),
        (Certificate, True, {
            "axiom": "responsive", "separation": sep, "witness": "upper_part",
            "k": 1, "lhs": F(1, 2), "rhs": F(0), "separation_index": 0,
        }),
        (SPViolation, True, {
            "truth": wo("0>1"), "misreport": wo("1>0"), "witness_alt": 0,
            "truth_cumulative": F(0), "misreport_cumulative": F(1),
        }),
        (ConstraintCounts, True, {
            "m": 2, "orders": 3, "ordered_pairs": 6, "separations_total": 2,
            "separations_max_per_order": 2,
        }),
        (MultiwaySeparation, True, {
            "coarse": wo("0,1,2"), "fine": wo("0>1>2"), "kappa": 1,
            "parts": ((0,), (1,), (2,)),
        }),
        (Refinement, True, {
            "coarse": wo("0,1"), "fine": wo("0>1"), "blocks": (((0,), (1,)),),
        }),
        (UtilitySegment, True, {"start": u, "end": v, "breakpoints": (F(1, 2),)}),
        (AxiomReport, False, {
            "mechanism": "t", "m": 2, "verdicts": {"responsive": False},
            "certificates": {"responsive": []},
        }),
        (Constraint, False, {
            "name": "c", "coeffs": {0: F(1)}, "relation": "<=", "rhs": F(1),
        }),
        (LinearProgram, False, {
            "variables": ["x"], "constraints": [con], "objective": {0: F(1)},
        }),
        (LPSolution, False, {
            "status": "optimal", "assignment": {"x": F(1)}, "objective_value": F(1),
        }),
        (PathResult, False, {
            "start": wo("0>1"), "end": wo("1>0"),
            "segment": UtilitySegment(u, v, (F(1, 2),)),
            "orders": [wo("0>1"), wo("0,1"), wo("1>0")],
            "alphas": [F(0), F(1, 2), F(1)],
        }),
        (EquivalenceReport, False, {
            "statement": "theorem1", "mechanism": "t", "m": 2, "sp_verdict": True,
            "axiom_verdicts": {"responsive": True}, "decomposition_verdict": True,
            "agreement": True, "sp_violation": None, "certificates": {},
        }),
        (ScanReport, False, {
            "statement": "axioms_vs_sp", "m": 3, "checked": 10, "agreements": 10,
            "sp_count": 4, "first_disagreement": None, "cross_checked": 0,
        }),
    ]
    return {cls.__name__: (cls, frozen, fields) for cls, frozen, fields in samples}


RECORD_NAMES = sorted(_record_samples())


def test_every_record_class_is_pinned():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub.__name__)
            todo.append(sub)
    assert found - {"FrozenRecord"} == set(RECORD_NAMES)
    assert sum(frozen for _, frozen, _ in _record_samples().values()) == 10


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_keeps_dataclass_behaviour(name):
    cls, frozen, fields = _record_samples()[name]
    values = list(fields.values())
    record, by_keyword = cls(*values), cls(**fields)
    assert [getattr(record, f) for f in fields] == values
    assert record == by_keyword and not record != by_keyword
    assert record != object()
    assert pickle.loads(pickle.dumps(record)) == record
    if name == "WeakOrder":
        assert repr(record) == "WeakOrder('0>1')" and str(record) == "0>1"
    else:
        body = ", ".join(f"{f}={v!r}" for f, v in fields.items())
        assert repr(record) == f"{name}({body})"
    first = next(iter(fields))
    assert issubclass(cls, FrozenRecord) == frozen
    if frozen:
        assert hash(record) == hash(by_keyword)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, fields[f])
        with pytest.raises(AttributeError):
            delattr(record, first)
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, first, fields[first])
        assert record == by_keyword


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_constructor_refuses_bad_calls(name):
    cls, _, fields = _record_samples()[name]
    values = list(fields.values())
    first = next(iter(fields))
    # one value too many, an unknown name, a field given both ways, and the
    # first field, which has no default, left out
    for args, named in (
        (values + [None], {}),
        (values, {"no_such_field": None}),
        (values, {first: values[0]}),
        ((), {f: v for f, v in fields.items() if f != first}),
    ):
        with pytest.raises(TypeError):
            cls(*args, **named)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_encodes_to_json(name):
    cls, _, fields = _record_samples()[name]
    data = cls(**fields).to_json()
    json.dumps(data)
    if "to_json" not in cls.__dict__:
        assert list(data) == list(fields) == list(cls._fields)


def test_records_of_different_classes_are_unequal():
    assert Lottery(2, (1, 0)) != UtilityFn(2, (1, 0))
    assert not Lottery(2, (1, 0)) == UtilityFn(2, (1, 0))


def test_record_defaults():
    solution = LPSolution("infeasible")
    assert (solution.assignment, solution.objective_value) == ({}, None)
    assert repr(solution) == (
        "LPSolution(status='infeasible', assignment={}, objective_value=None)"
    )
    scan = ScanReport("axioms_vs_sp", 3, 1, 1, 0)
    assert (scan.first_disagreement, scan.cross_checked) == (None, 0)
    report = EquivalenceReport("theorem1", "t", 2, True, {}, True, True)
    assert (report.sp_violation, report.certificates) == (None, {})
    lp = LinearProgram(["x"])
    assert (lp.constraints, lp.objective) == ([], {})
    # each instance gets its own default dict or list
    for default in (
        lambda: LPSolution("infeasible").assignment,
        lambda: EquivalenceReport("theorem1", "t", 2, True, {}, True, True).certificates,
        lambda: LinearProgram(["x"]).constraints,
        lambda: LinearProgram(["x"]).objective,
    ):
        assert default() is not default()
