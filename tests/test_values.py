import math
import random
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from njexl import StructuredError, bind, create_context, evaluate
from njexl.errors import NjexlError
from njexl.stdlib import FakeClock
from njexl.values import (
    _EXACT,
    BigInt,
    XMap,
    XSet,
    arith,
    canonical_key,
    cardinality,
    classify_decimal_literal,
    enumerate_value,
    membership,
    order_compare,
    project,
    stringify,
    sub_collection,
    truthiness,
    values_equal,
)

from conftest import FIXTURES, Capture, run_cli, run_source


def make_map(*pairs):
    m = XMap()
    for k, v in pairs:
        m.set(k, v)
    return m


# --- arithmetic ---------------------------------------------------------------


def test_fold_concat_identity():
    acc = ""
    for piece in ["a", "b"]:
        acc = arith("+", acc, piece)
    assert acc == "ab"


def test_additive_identity():
    for x in (0, 17, -3, 2.5, Decimal("1.25"), BigInt(9)):
        assert values_equal(arith("+", 0, x), x)


def test_int_overflow_promotes():
    result = arith("*", 2**62, 4)
    assert result == 18446744073709551616
    assert isinstance(result, BigInt) or not (-(2**63) <= result < 2**63)


def test_no_wraparound_near_boundary():
    top = 2**63 - 1
    assert arith("+", top, 1) == 2**63
    assert arith("-", -(2**63), 1) == -(2**63) - 1


def test_int_division_truncates_toward_zero():
    assert arith("/", 7, 2) == 3
    assert arith("/", -7, 2) == -3
    assert arith("%", 7, 2) == 1
    assert arith("%", -7, 2) == -1
    # the division identity holds with truncation
    for a in (-9, -1, 1, 14):
        for b in (-4, -2, 3, 5):
            assert arith("+", arith("*", arith("/", a, b), b), arith("%", a, b)) == a


def test_bigint_division_promotes_to_decimal():
    out = arith("/", BigInt(7), BigInt(2))
    assert isinstance(out, Decimal)
    assert out == Decimal("3.5")
    exact = arith("/", BigInt(8), BigInt(2))
    assert exact == 4 and isinstance(exact, BigInt)


def test_divide_by_zero():
    with pytest.raises(NjexlError) as err:
        arith("/", 1, 0)
    assert err.value.kind == "DivideByZero"
    with pytest.raises(NjexlError):
        arith("%", 1, 0)
    with pytest.raises(NjexlError):
        arith("/", Decimal(1), Decimal(0))


def test_string_concat_stringifies_other_side():
    assert arith("+", "n=", 42) == "n=42"
    assert arith("+", 1, "x") == "1x"
    assert arith("+", "", None) == "null"


def test_list_and_set_append():
    xs = [1, 2]
    assert arith("+", xs, 3) is xs and xs == [1, 2, 3]
    xs2 = arith("+", [1], [2, 3])
    assert xs2 == [1, [2, 3]]
    s = XSet([1])
    arith("+", s, 1)
    arith("+", s, 2)
    assert sorted(s) == [1, 2]


def test_plus_on_a_list_or_set_grows_it_in_place():
    """`+` appends to the left list or adds to the left set and returns that
    same collection: no copy, in compiled code as in arith."""
    value, _, scope = run_source("a = [1]\nb = a + 2\nb")
    assert value == [1, 2] and scope.bindings["a"] is scope.bindings["b"] is value
    value, _, scope = run_source("s = set(1)\nt = s + 2\nt")
    assert sorted(value) == [1, 2] and scope.bindings["s"] is value
    with pytest.raises(NjexlError) as err:
        run_source("x = 2 + [1]")
    assert (err.value.kind, err.value.message, err.value.line, err.value.col) == (
        "TypeError", "cannot apply + to int and list", 1, 5
    )


def test_type_error_for_non_numeric():
    with pytest.raises(NjexlError) as err:
        arith("-", "a", 1)
    assert err.value.kind == "TypeError"


def test_decimal_exact_addition_keeps_digits():
    a = Decimal("0.100101000017181881881888188981313873444111")
    out = arith("+", a, Decimal("1"))
    assert str(out) == "1.100101000017181881881888188981313873444111"


def test_mixed_float_decimal_uses_shortest_repr_bridge():
    out = arith("+", 0.1, Decimal("0.2"))
    assert out == Decimal("0.3")


# each raised a host exception (InternalError) before the tower used IEEE contexts
@pytest.mark.parametrize(
    "source, kind, text",
    [
        ("(1.0/0) % 1", float, "nan"),
        ("DEC(1.0/0) % 1", Decimal, "NaN"),
        ("0 + DEC(1.0/0)", Decimal, "Infinity"),
        ("DEC('1') + 1.0/0", Decimal, "Infinity"),
        ("DEC(1.0/0) - DEC(1.0/0)", Decimal, "NaN"),
        ("DEC('1e100') % 3", Decimal, "1"),
        ("DEC('1e999999') * 10", Decimal, "1.0E+1000000"),
    ],
)
def test_non_finite_and_huge_operands_give_ieee_values(source, kind, text):
    value = evaluate(create_context(), source)
    assert type(value) is kind, value
    assert str(value) == text


# x = 10^400 does not fit a float: next to a float it is +-Infinity, as IEEE
# conversion gives it (it was InternalError: OverflowError, with no position)
_HUGE = "lfold{ _$_ * 10 }([0:400], INT(1))"


@pytest.mark.parametrize(
    "source, text",
    [
        (f"x = {_HUGE}\nx + 1.5", "inf"),
        (f"x = {_HUGE}\n1.5 + x", "inf"),
        (f"x = {_HUGE}\nx - 1.5", "inf"),
        (f"x = {_HUGE}\n1.5 - x", "-inf"),
        (f"x = {_HUGE}\nx * 1.5", "inf"),
        (f"x = {_HUGE}\n1.5 * x", "inf"),
        (f"x = {_HUGE}\n(0 - x) * 1.5", "-inf"),
        (f"x = {_HUGE}\nx * 0.0", "nan"),
        (f"x = {_HUGE}\nx / 1.5", "inf"),
        (f"x = {_HUGE}\n1.5 / x", "0.0"),
        (f"x = {_HUGE}\n1.5 / (0 - x)", "-0.0"),
        (f"x = {_HUGE}\nx % 1.5", "nan"),
        (f"x = {_HUGE}\n1.5 % x", "1.5"),
    ],
)
def test_int_past_the_float_range_is_infinite_next_to_a_float(source, text):
    value = evaluate(create_context(), source)
    assert type(value) is float, value
    assert str(value) == text


def _decimals(low):
    """Finite DECs of either sign with coefficients from low up to 25 digits."""
    return st.builds(
        lambda sign, coefficient, exponent: Decimal((sign, tuple(map(int, str(coefficient))), exponent)),
        st.integers(0, 1), st.integers(low, 10**25), st.integers(-30, 30),
    )


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_decimals(0), _decimals(1))
def test_decimal_remainder_across_exponent_gaps_matches_the_exact_context(a, b):
    got, want = arith("%", a, b), _EXACT.remainder(a, b)
    assert type(got) is type(want) is Decimal
    assert str(got) == str(want)


def test_decimal_remainder_past_the_int_text_limit_is_exact():
    # a 4,898-digit remainder: more digits than Python turns an int into text
    dividend, divisor = Decimal("7E+5003"), Decimal("1234567" * 700)
    got = arith("%", dividend, divisor)
    assert got.as_tuple() == _EXACT.remainder(dividend, divisor).as_tuple()


def test_decimal_remainder_of_a_huge_exponent_is_fast():
    started = time.perf_counter()
    value = evaluate(create_context(), "DEC('1e1000000000') % 3")
    assert time.perf_counter() - started < 0.1
    assert type(value) is Decimal and str(value) == "1"


def test_decimal_remainder_is_exact_past_the_division_precision():
    dividend = Decimal("1." + "0" * 70 + "1")
    assert arith("%", dividend, Decimal(10)) == dividend


# the independent oracle: plain host arithmetic per tier, exact via Fraction;
# inexact division verified as correct rounding against the exact quotient
def _tier(v):
    if isinstance(v, Decimal):
        return 3
    if isinstance(v, float):
        return 2
    if isinstance(v, BigInt) or not -(2**63) <= v <= 2**63 - 1:
        return 1
    return 0


def _as_fraction(v):
    return Fraction(Decimal(repr(v)) if isinstance(v, float) else v)


def _oracle(op, a, b):
    """Return ('exact', value) or ('rounded', exact quotient as Fraction)."""
    t = max(_tier(a), _tier(b))
    if t == 3:
        fa, fb = _as_fraction(a), _as_fraction(b)
        if op == "+":
            return "exact", fa + fb
        if op == "-":
            return "exact", fa - fb
        if op == "*":
            return "exact", fa * fb
        if op == "/":
            return "rounded", fa / fb
        return "rounded", None  # remainder bound-checked separately below
    if t == 2:
        fa, fb = float(a), float(b)
        if op in "+-*":
            return "exact", {"+": fa + fb, "-": fa - fb, "*": fa * fb}[op]
        return "exact", fa / fb if op == "/" else math.fmod(fa, fb)
    ia, ib = int(a), int(b)
    if op == "+":
        return "exact", ia + ib
    if op == "-":
        return "exact", ia - ib
    if op == "*":
        return "exact", ia * ib
    q = abs(ia) // abs(ib)
    q = -q if (ia < 0) != (ib < 0) else q
    if op == "/":
        if t == 1 and ia % ib != 0:
            return "rounded", Fraction(ia, ib)
        return "exact", q
    return "exact", ia - q * ib


def _ulp(decimal_value):
    return Fraction(1, 1) * Fraction(10) ** decimal_value.as_tuple().exponent


def _random_operand(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return rng.randrange(-100, 100)
    if pick == 1:
        return rng.randrange(-(2**64), 2**64)
    if pick == 2:
        return BigInt(rng.randrange(-(10**30), 10**30))
    if pick == 3:
        return rng.uniform(-1e6, 1e6)
    if pick == 4:
        return Decimal(rng.randrange(-(10**20), 10**20)) / Decimal(10**6)
    return rng.randrange(-5, 5)


def check_arith_against_oracle(cases, seed):
    rng = random.Random(seed)
    checked = 0
    while checked < cases:
        a, b = _random_operand(rng), _random_operand(rng)
        op = rng.choice("+-*/%")
        if op in "/%":
            if b == 0 or (isinstance(b, float) and b == 0.0):
                continue
            if isinstance(b, Decimal) and b.is_zero():
                continue
        kind, expected = _oracle(op, a, b)
        got = arith(op, a, b)
        if kind == "exact":
            if isinstance(expected, float):
                assert (got == expected) or (math.isnan(expected) and math.isnan(got)), (op, a, b)
            else:
                assert Fraction(got) == Fraction(expected), (op, a, b)
        elif expected is not None:
            # correctly rounded decimal: within half an ulp of the true quotient
            assert isinstance(got, Decimal), (op, a, b)
            assert abs(Fraction(got) - expected) <= _ulp(got) / 2, (op, a, b)
        else:
            # decimal remainder: |r| < |b| and (a - r) divisible by b exactly
            assert isinstance(got, Decimal), (op, a, b)
            fa, fb, fr = _as_fraction(a), _as_fraction(b), Fraction(got)
            assert abs(fr) < abs(fb), (op, a, b)
            assert (fa - fr) / fb == (fa - fr) // fb or abs((fa - fr) / fb - round((fa - fr) / fb)) == 0
        checked += 1
    return checked


def test_arith_matches_oracle_bulk():
    assert check_arith_against_oracle(4000, seed=101) == 4000


def test_constructed_exact_division():
    rng = random.Random(103)
    for _ in range(300):
        q = Decimal(rng.randrange(-(10**12), 10**12)) / Decimal(10**4)
        b = Decimal(rng.randrange(1, 10**8))
        a = arith("*", q, b)
        assert values_equal(arith("/", a, b), q)


# --- equality ------------------------------------------------------------------


def test_permutation_equality():
    assert values_equal([1, 2], [2, 1])
    assert not values_equal([1, 1, 2], [1, 2, 2])
    assert values_equal([1, [2, 3]], [[3, 2], 1])


def test_numeric_equality_across_tags():
    assert values_equal(1, 1.0)
    assert values_equal(1, Decimal("1"))
    assert values_equal(0.5, Decimal("0.5"))
    assert values_equal(BigInt(7), 7)
    assert not values_equal(True, 1)
    assert not values_equal(False, 0)


def test_one_equals_one_point_oh_equals_dec_one_in_every_container():
    ones = (1, 1.0, Decimal("1"), Decimal("1.000"), BigInt(1))
    wraps = (
        lambda x: x,
        lambda x: [x],
        lambda x: [[x], 2],
        lambda x: XSet([x, 2]),
        lambda x: make_map((x, "v")),
        lambda x: make_map(("k", x)),
        lambda x: (x, [x]),
    )
    for wrap in wraps:
        for a in ones:
            for b in ones:
                assert values_equal(wrap(a), wrap(b)), (wrap(a), wrap(b))
                assert canonical_key(wrap(a)) == canonical_key(wrap(b))
                assert hash(canonical_key(wrap(a))) == hash(canonical_key(wrap(b)))
    assert len(XSet(ones)) == 1
    assert membership(1.0, [1]) and membership(Decimal("1"), XSet([1.0]))
    assert sub_collection([1.0, Decimal(2)], [2, 1, 3])


def test_integral_floats_equal_their_decimal_spelling():
    for f in (0.0, -0.0, 3.0, -7.0, 2.0**53, -(2.0**53), 2.0**53 + 2, 1e22, 1e300, -1e300):
        assert values_equal(f, Decimal(repr(f))), f
        assert not values_equal(f, f * 2 + 1), f
    assert values_equal(1e300, Decimal("1E+300")) and not values_equal(1e300, int(1e300))
    assert values_equal(2.0**53, 2**53) and values_equal(0.1, Decimal("0.1"))


def test_lists_of_different_lengths_are_unequal_without_keys(monkeypatch):
    def no_keys(v, _seen=None):
        raise AssertionError("a key was built")

    monkeypatch.setattr("njexl.values.canonical_key", no_keys)
    assert not values_equal([1, 2], [1, 2, 3])
    assert not values_equal([], [[]])


def test_collection_tag_mismatch_is_unequal():
    assert not values_equal([1], XSet([1]))
    assert not values_equal(make_map((1, 2)), [(1, 2)])


def test_null_equals_only_null():
    assert values_equal(None, None)
    for other in (0, False, "", [], XSet()):
        assert not values_equal(None, other)


def test_map_and_set_equality():
    assert values_equal(XSet([1, 2]), XSet([2, 1, 1]))
    assert values_equal(make_map((1, "a"), (2, "b")), make_map((2, "b"), (1, "a")))
    assert not values_equal(make_map((1, "a")), make_map((1, "b")))
    assert not values_equal(make_map((1, "a")), make_map((1, "a"), (2, "b")))


def _multiset_oracle(a, b):
    return sorted(a) == sorted(b)


def test_multiset_equality_matches_sort_oracle():
    rng = random.Random(5)
    for _ in range(1000):
        a = [rng.randrange(4) for _ in range(rng.randrange(6))]
        b = [rng.randrange(4) for _ in range(rng.randrange(6))]
        if rng.random() < 0.4:
            b = a[:]
            rng.shuffle(b)
        assert values_equal(a, b) == _multiset_oracle(a, b)


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([Decimal("0.5"), Decimal(2)]),
    st.sampled_from(["", "a", "b"]),
)
_value = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.builds(lambda xs: XSet(xs), st.lists(inner, max_size=3)),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_value)
def test_equals_reflexive(v):
    assert values_equal(v, v)


@settings(max_examples=300, deadline=None)
@given(_value, _value)
def test_equals_symmetric(a, b):
    assert values_equal(a, b) == values_equal(b, a)


@settings(max_examples=300, deadline=None)
@given(_value, _value, _value)
def test_equals_transitive(a, b, c):
    if values_equal(a, b) and values_equal(b, c):
        assert values_equal(a, c)


def test_nan_is_self_equal_for_reflexivity():
    assert values_equal(float("nan"), float("nan"))
    assert not values_equal(float("nan"), 0.0)


def test_range_equality_by_progression():
    assert values_equal(range(0, 3), range(0, 3, 1))
    assert values_equal(range(0, 0), range(5, 5))  # both empty
    assert not values_equal(range(0, 3), range(0, 4))
    assert not values_equal(range(0, 3), [0, 1, 2])  # mixed tags stay unequal


# --- sub-collection -------------------------------------------------------------


def test_filter_output_is_contained():
    full = [1, 2, 3, 4, 5, 6]
    evens = [x for x in full if x % 2 == 0]
    assert sub_collection(evens, full)


def test_sub_collection_reflexive():
    for xs in ([], [1], [1, 1, 2], ["a", "b"]):
        assert sub_collection(xs, xs)


def test_sub_multiset_counts():
    assert not sub_collection([2, 2], [1, 2])
    assert sub_collection([2, 2], [2, 1, 2])


def test_sub_collection_sets_and_maps():
    assert sub_collection(XSet([1]), XSet([1, 2]))
    assert not sub_collection(XSet([3]), XSet([1, 2]))
    assert sub_collection(make_map((1, "a")), make_map((1, "a"), (2, "b")))
    assert not sub_collection(make_map((1, "x")), make_map((1, "a"), (2, "b")))


def test_sub_collection_mismatched_tags():
    with pytest.raises(NjexlError):
        sub_collection([1], XSet([1]))


def test_sub_collection_partial_order_laws():
    rng = random.Random(13)
    for _ in range(500):
        a = [rng.randrange(4) for _ in range(rng.randrange(5))]
        b = a + [rng.randrange(4) for _ in range(rng.randrange(4))]
        c = b + [rng.randrange(4) for _ in range(rng.randrange(4))]
        rng.shuffle(b)
        rng.shuffle(c)
        assert sub_collection(a, a)
        assert sub_collection(a, b) and sub_collection(b, c)
        assert sub_collection(a, c)
    for _ in range(300):
        a = [rng.randrange(3) for _ in range(rng.randrange(5))]
        b = [rng.randrange(3) for _ in range(rng.randrange(5))]
        if sub_collection(a, b) and sub_collection(b, a):
            assert values_equal(a, b)


# --- membership ------------------------------------------------------------------


def test_membership_examples():
    fb = make_map((0, "FizzBuzz"), (3, "Fizz"), (5, "Buzz"))
    assert membership(3, fb)
    assert not membership(4, fb)
    assert not membership("anything", [])
    assert not membership(7, range(0, 10, 2))
    assert membership(6, range(0, 10, 2))
    assert membership("ord", "word")
    assert membership(2.0, [1, 2, 3])


def test_membership_scan_oracle():
    rng = random.Random(17)
    for _ in range(1000):
        c = [rng.randrange(6) for _ in range(rng.randrange(8))]
        x = rng.randrange(8)
        assert membership(x, c) == any(values_equal(x, e) for e in c)


def test_range_hits_match_the_progression_formula():
    def formula(r, x):
        inside = r.start <= x < r.stop if r.step > 0 else r.stop < x <= r.start
        return inside and (x - r.start) % r.step == 0

    for start in range(-7, 8):
        for end in range(-7, 8):
            for step in (1, 2, 3, -1, -2, -3):
                r = range(start, end, step)
                assert all(membership(x, r) == formula(r, x) for x in range(-10, 11))
    wide = range(-(2**70), 2**70, 3)
    for x in (-(2**70), -(2**70) + 1, -(2**70) + 3, 2**70 - 1, 2**70, 0, 1, 2):
        assert membership(x, wide) == formula(wide, x)


def test_membership_non_container():
    with pytest.raises(NjexlError):
        membership(1, 5)


# --- cardinality / projection -----------------------------------------------------


def test_cardinality_examples():
    assert cardinality("word") == 4
    assert cardinality([]) == 0
    assert cardinality(range(0, 7, 2)) == 4
    assert cardinality((1, 2)) == 2
    assert cardinality(make_map((1, 2))) == 1
    with pytest.raises(NjexlError):
        cardinality(None)
    with pytest.raises(NjexlError):
        cardinality(12)


def test_cardinality_matches_enumeration_oracle():
    rng = random.Random(19)
    for _ in range(300):
        kind = rng.randrange(4)
        if kind == 0:
            v = [rng.randrange(5) for _ in range(rng.randrange(7))]
        elif kind == 1:
            v = XSet(rng.randrange(5) for _ in range(rng.randrange(7)))
        elif kind == 2:
            v = range(rng.randrange(-5, 5), rng.randrange(-5, 15), rng.choice([1, 2, 3, -1]))
        else:
            v = "".join(rng.choice("ab") for _ in range(rng.randrange(7)))
        assert cardinality(v) == sum(1 for _ in enumerate_value(v))


def test_projection():
    assert project(("a", "bb"), 1) == "bb"
    assert project([5], 0) == 5
    assert project("word", 2) == "r"
    with pytest.raises(NjexlError) as err:
        project([1], 1)
    assert err.value.kind == "IndexError"
    with pytest.raises(NjexlError):
        project(5, 0)


# --- truthiness / ordering ----------------------------------------------------------


def test_truthiness_table():
    falsy = [None, False, 0, 0.0, Decimal("0"), Decimal("0.00")]
    truthy = [True, 1, -1, 0.5, "", "x", [], [0], XSet(), make_map(), range(0, 0)]
    assert not any(truthiness(v) for v in falsy)
    assert all(truthiness(v) for v in truthy)


def test_order_compare():
    assert order_compare(1, 2) < 0
    assert order_compare(2.5, Decimal("2.5")) == 0
    assert order_compare("b", "a") > 0
    assert order_compare(False, True) < 0
    with pytest.raises(NjexlError):
        order_compare(1, "1")


# --- literals, promotion, text forms --------------------------------------------------


def test_decimal_literal_classification():
    assert isinstance(classify_decimal_literal("0.1"), float)
    assert isinstance(classify_decimal_literal("1e5"), float)
    long_literal = "0.100101000017181881881888188981313873444111"
    d = classify_decimal_literal(long_literal)
    assert isinstance(d, Decimal)
    assert str(d) == long_literal


def test_promotion_round_trips():
    big = BigInt(10**30)
    assert BigInt(int(str(big))) == big
    d = Decimal("1.3000")
    assert Decimal(str(d)) == d and str(Decimal(str(d))) == str(d)


def test_stringify_forms():
    cases = [
        (None, "null"),
        (True, "true"),
        (False, "false"),
        (42, "42"),
        (3.5, "3.5"),
        (Decimal("0.10"), "0.10"),
        ("text", "text"),
        ([1, "a"], "[1, a]"),
        (XSet([1, 2]), "{1, 2}"),
        (make_map((0, False), (1, True)), "{0 : false, 1 : true}"),
        ((1, "b"), "(1, b)"),
        (range(0, 5), "[0:5]"),
        (range(0, 5, 2), "[0:5:2]"),
    ]
    for value, want in cases:
        assert stringify(value) == want


def test_canonical_key_rejects_cycles():
    xs = []
    xs.append(xs)
    with pytest.raises(NjexlError):
        canonical_key(xs)


@pytest.mark.parametrize(
    "case, col",
    [
        ("t = l == l", 5),
        ("t = l != l", 5),
        ("t = 1 + (l @ [l])", 10),
        ("ok = [l] <= [l]", 6),
        ("xs = set(l)", 6),
        ("m = {}; m[l] = 1", 9),
        ("s = set(1) + l", 5),
        ("t = 3 @ [1, l]", 5),
        ("t = l @ set(1)", 5),
    ],
)
def test_a_cyclic_value_fails_at_the_operation_that_keys_it(case, col):
    with pytest.raises(NjexlError) as err:
        run_source("l = [1, 2]; l[0] = l\n" + case)
    got = (err.value.kind, err.value.message, err.value.line, err.value.col)
    assert got == ("TypeError", "cyclic value has no identity", 2, col)


def test_stringify_marks_cycles_instead_of_recursing():
    xs = [1]
    xs.append(xs)
    assert stringify(xs) == "[1, [...]]"


def test_a_shared_value_is_not_a_cycle():
    shared = [1]
    assert stringify([shared, shared]) == "[[1], [1]]"
    assert stringify(make_map((0, shared), (1, shared))) == "{0 : [1], 1 : [1]}"
    assert canonical_key([shared, [shared]]) == canonical_key([[1], [[1]]])
    xs = [1]
    xs.append([xs])
    assert stringify([shared, xs, shared]) == "[[1], [1, [[...]]], [1]]"
    with pytest.raises(NjexlError):
        canonical_key([shared, xs])


_DEEP_LIST = "lfold{ [_$_] }([0:%d], [])"  # nested depth + 1 lists deep


def test_a_20000_deep_list_prints_and_compares():
    # built by a fold, and written as a literal that is compiled and run
    for deep in (_DEEP_LIST % 20_000, "[" * 20_001 + "]" * 20_001):
        code, out, err = run_cli(["--eval", deep])
        assert (code, out, err) == (0, "[" * 20_001 + "]" * 20_001 + "\n", "")
        assert run_source("l = %s\nl == l" % deep)[0] is True


def test_cycle_guards_take_memory_linear_in_depth():
    # on CPython 3.11 tracemalloc walks the whole Python stack on every
    # allocation, so a traced 20,000-deep run takes minutes: the bound is
    # pinned at 2,000 deep, where guards copied at every level peaked at 88 MB
    run_source("1")  # start the worker before tracing
    tracemalloc.start()
    try:
        assert run_source("l = %s\nl == l" % (_DEEP_LIST % 2_000))[0] is True
        assert run_cli(["--eval", _DEEP_LIST % 2_000])[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_ints_past_the_str_digit_limit_print_in_full():
    text, out, _ = run_source("x = lfold{ _$_ * 2 }([0:15000], 1)\nprint(x)\n'' + x")
    assert out == text + "\n"
    assert len(text) == 4516 and Decimal(text) == Decimal(2**15000)
    assert stringify(-BigInt(2**15000)) == "-" + text


def test_set_dedup_counts_equivalence_classes():
    rng = random.Random(23)
    for _ in range(200):
        raw = [rng.choice([0, 1, 1.0, Decimal(1), "a", None, True]) for _ in range(rng.randrange(9))]
        classes = Counter(canonical_key(v) for v in raw)
        assert len(XSet(raw)) == len(classes)


# --- the value model through evaluate ---------------------------------------------

_IMPORT = "import 'java.lang.Integer' as I\n"
_FAIL = StructuredError
_DATE = "date('2024-02-29', 'yyyy-MM-dd')"
# guest programs and what evaluate gives for each: tags in messages, text
# forms, equality, pairs, ranges and iterators, and how they cross to the host
VALUE_MODEL = [
    ("-minmax([1, 2])", _FAIL("TypeError", "cannot negate pair", 1, 1)),
    ("-[0:3]", _FAIL("TypeError", "cannot negate range", 1, 1)),
    ("-lines(f)", _FAIL("TypeError", "cannot negate iterator", 1, 1)),
    ("-size", _FAIL("TypeError", "cannot negate builtin", 1, 1)),
    (_IMPORT + "-I", _FAIL("TypeError", "cannot negate module", 2, 1)),
    ("#(v, :e) = 1 / 0\n-e", _FAIL("TypeError", "cannot negate error", 2, 1)),
    ("-date('2024-02-29', 'yyyy-MM-dd')", _FAIL("TypeError", "cannot negate date", 1, 1)),
    ("-date('2024-02-29 12:30:00', 'yyyy-MM-dd HH:mm:ss')",
     _FAIL("TypeError", "cannot negate datetime", 1, 1)),
    ("#|lines(f)|", _FAIL("TypeError", "iterator has no size", 1, 1)),
    ("'' + lines(f)", "iterator"),
    ("'' + [0:5:2]", "[0:5:2]"),
    ("'' + [0:5]", "[0:5]"),
    ("'' + minmax([3, 1, 2])", "(1, 3)"),
    (_IMPORT + "'' + I", "module(java.lang.Integer)"),
    ("minmax([3, 1, 2]) == minmax([1, 3])", True),
    ("minmax([1, 2]) == [1, 2]", False),
    ("[0:0] == [5:5]", True),
    ("[0:1:1] == [0:1:2]", False),
    ("[0:3] == [0:3].list()", False),
    ("m = {minmax([2, 1]) : 'a'}\nm[minmax([1, 2])]", "a"),
    ("set(minmax([1, 2]), minmax([2, 1]), minmax([1, 3]))", {(1, 2), (1, 3)}),
    ("list{ $.0 + $.1 }({1 : 2, 3 : 4})", [3, 7]),
    ("list{ $ }({1 : 2})", [(1, 2)]),
    ("s = 0\nfor (p : {1 : 2, 3 : 4}) { s += p.0 * p.1 }\ns", 14),
    ("#(a, b) = minmax([3, 1, 2])\n[a, b]", [1, 3]),
    ("#(t, v) = #clock{ 7 }\n[t, v]", [10, 7]),
    ("#clock{ 7 }", (10, 7)),
    ("minmax{ size($.0) < size($.1) }(lines(f))", ("a", "cccc")),
    ("#|minmax([1, 2])|", 2),
    ("minmax([1, 2]).1", 2),
    ("p = minmax([1, 2])\np.2", _FAIL("IndexError", "pair index 2 out of range", 2, 1)),
    ("#|[0:1180591620717411303424:3]|", 393530540239137101142),
    ("#|[5:0:-2]|", 3),
    ("4 @ [0:10:2]", True),
    ("885443715538058477568 @ [0:1180591620717411303424:3]", True),  # 3 * 2**68
    ("885443715538058477569 @ [0:1180591620717411303424:3]", False),
    # NaN and the infinities, float or DEC, are in no range, as they are in no list
    ("1.0/0.0 @ [0:5]", False),
    ("-1.0/0.0 @ [0:5]", False),
    ("0.0/0.0 @ [0:5]", False),
    ("DEC(1.0/0.0) @ [0:5]", False),
    ("DEC(-1.0/0.0) @ [0:5]", False),
    ("DEC(0.0/0.0) @ [0:5]", False),
    ("1.0/0.0 @ [1, 2]", False),
    ("DEC('1e400') @ [0:5]", False),
    ("def f(x){ x @ [0:5] }\nlist{ f($) }([1.0/0.0, -1.0/0.0, 0.0/0.0, DEC(1.0/0.0), 2.0])",
     [False, False, False, False, True]),
    ("list{ $ @ [0:5] }([DEC(-1.0/0.0), DEC(0.0/0.0), DEC(2)])", [False, False, True]),
    ("[0:5:0]", _FAIL("TypeError", "range step must not be zero", 1, 1)),
    ("h", (1, [2])),
    ("r", range(0, 10, 3)),
    ("[0:10:3]", range(0, 10, 3)),
    ("r.list()", [0, 3, 6, 9]),
    ("lines(f)", ["bb", "cccc", "a", "ddd"]),
    ("#(a, b) = 5", _FAIL("DestructureError", "cannot split int into 2 values", 1, 1)),
    ("-INT(5) + null", _FAIL("TypeError", "cannot apply + to INT and null", 1, 1)),
    (f"#|set({_DATE}, {_DATE})|", 1),
    ("#(a, :e1) = 1 / 0\n#(b, :e2) = 2 / 0\ne1 == e2", True),
    (f"{_DATE} < date('2024-02-29 12:30:00', 'yyyy-MM-dd HH:mm:ss')",
     _FAIL("TypeError", "cannot order date and datetime", 1, 1)),
    ("{1:2} @ {1:2}", False),
    # negation keeps every digit of a DEC, as + - * do
    ("-DEC('1.234567890123456789012345678901234')",
     Decimal("-1.234567890123456789012345678901234")),
    ("x = DEC('1.234567890123456789012345678901234') ; -x == DEC('0') - x", True),
    # a literal past float's range is a DEC, not an infinity
    ("1e999", Decimal("1E+999")),
    ("1e999 + null", _FAIL("TypeError", "cannot apply + to DEC and null", 1, 1)),
]


@pytest.mark.parametrize("source, want", VALUE_MODEL)
def test_value_model_through_evaluate(source, want):
    ctx = create_context(out=Capture(), err=Capture(), clock=FakeClock(10))
    bind(ctx, "f", str(FIXTURES / "lines.txt"))
    bind(ctx, "r", range(0, 10, 3))
    held = [2]
    bind(ctx, "h", (1, held))
    held.append(3)  # the guest keeps its own copy
    got = evaluate(ctx, source)
    assert (got, type(got)) == (want, type(want))
