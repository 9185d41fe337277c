"""The exact-type fast paths of the value layer and the host bridge agree with
the general paths they short-cut (tests/value_oracle.py holds those as they
were): same value, same exact type, same error kind and message."""

import copy
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import value_oracle as old
from njexl import StructuredError, bind, create_context, evaluate
from njexl import embed, values
from njexl.embed import _MAX_BRIDGE_DEPTH, ConversionError
from njexl.errors import NjexlError
from njexl.values import INT_MAX, INT_MIN, BigInt, arith, order_compare, tag

from conftest import Capture

_ints = st.one_of(
    st.integers(-6, 6),
    st.integers(INT_MAX - 3, INT_MAX + 3),
    st.integers(INT_MIN - 3, INT_MIN + 3),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**31), 2**31),
)
_scalars = st.one_of(
    _ints,
    _ints.map(BigInt),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.0**53, 2.0**53 + 2, 1e300, 0.1]),
    st.decimals(allow_nan=True, allow_infinity=True, places=None),
    st.sampled_from([Decimal("1"), Decimal("1.0"), Decimal("-0"), Decimal("1E+300")]),
    st.text(max_size=4),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=8)


def outcome(fn, *args):
    """('ok', result) or ('error', exception type, what the error says)."""
    try:
        return ("ok", fn(*args))
    except NjexlError as exc:
        return ("error", NjexlError, (exc.kind, exc.message, exc.line, exc.col))
    except (ArithmeticError, TypeError, ValueError, InvalidOperation) as exc:
        return ("error", type(exc), str(exc))


def same(a, b):
    """Equal and of the same exact type all the way down (NaN equals NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple, values.Pair)):
        a, b = list(a), list(b)
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, Decimal):
        return str(a) == str(b)  # digits and exponent, NaN included
    return a == b


def agree(new_fn, old_fn, *args):
    """Both implementations, each on its own deep copy of args, give the same
    outcome; arguments that the operation mutates must end up the same too."""
    new_args, old_args = copy.deepcopy(args), copy.deepcopy(args)
    got, want = outcome(new_fn, *new_args), outcome(old_fn, *old_args)
    assert got[0] == want[0], (args, got, want)
    if got[0] == "ok":
        assert same(got[1], want[1]), (args, got, want)
    else:
        assert got[1:] == want[1:], (args, got, want)
    assert same(list(new_args), list(old_args)), args


def _integral_fractions_as_ints(key):
    """A canonical key with each integral Fraction written as the int it equals:
    an integral float's key now holds the int, where it held Fraction(n, 1)."""
    if isinstance(key, tuple):
        return tuple(_integral_fractions_as_ints(part) for part in key)
    if type(key) is Fraction and key.denominator == 1:
        return key.numerator
    return key


@settings(max_examples=250, deadline=None)
@given(st.sampled_from("+-*/%"), _values, _values)
def test_arith_agrees(op, a, b):
    agree(values.arith, old.arith, op, a, b)


@settings(max_examples=250, deadline=None)
@given(_values, _values)
def test_order_compare_agrees(a, b):
    agree(values.order_compare, old.order_compare, a, b)


@settings(max_examples=250, deadline=None)
@given(_values)
def test_canonical_key_agrees(v):
    got, want = outcome(values.canonical_key, v), outcome(old.canonical_key, v)
    assert got[0] == want[0], (v, got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    assert got[1] == want[1] and hash(got[1]) == hash(want[1]), v
    assert same(_integral_fractions_as_ints(got[1]), _integral_fractions_as_ints(want[1])), v


@settings(max_examples=250, deadline=None)
@given(_values, _values)
def test_values_equal_agrees(a, b):
    agree(values.values_equal, lambda x, y: old.canonical_key(x) == old.canonical_key(y), a, b)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_stringify_and_truthiness_agree(v):
    agree(values.stringify, old.stringify, v)
    agree(values.truthiness, old.truthiness, v)


@settings(max_examples=200, deadline=None)
@given(_values, st.one_of(_ints, st.booleans(), _ints.map(BigInt), st.floats(), st.text(max_size=1)))
def test_project_agrees(v, i):
    agree(values.project, old.project, v, i)


_host = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner)),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_host, st.sampled_from([0, 1, _MAX_BRIDGE_DEPTH - 2, _MAX_BRIDGE_DEPTH - 1,
                               _MAX_BRIDGE_DEPTH, _MAX_BRIDGE_DEPTH + 1]))
def test_bridge_agrees(value, depth):
    agree(embed._to_value, old._to_value, value, depth)  # ConversionError is a ValueError
    agree(embed._from_value, old._from_value, old._to_value(value, 0), depth)


@pytest.mark.parametrize("depth", [_MAX_BRIDGE_DEPTH - 1, _MAX_BRIDGE_DEPTH, _MAX_BRIDGE_DEPTH + 1])
def test_flat_lists_at_the_depth_cap(depth):
    for value in ([1, "a"], [], [True], [BigInt(3)]):
        agree(embed._to_value, old._to_value, value, depth)
        agree(embed._from_value, old._from_value, value, depth)
    with pytest.raises(ConversionError, match="nested too deeply"):
        embed._to_value([1], _MAX_BRIDGE_DEPTH)


# --- pinned cases -------------------------------------------------------------


def test_int_max_plus_one_widens_to_int_tag():
    result = arith("+", INT_MAX, 1)
    assert type(result) is BigInt and result == 2**63 and tag(result) == "INT"
    assert type(arith("-", INT_MIN, 1)) is BigInt
    assert type(arith("*", 2**32, 2**32)) is BigInt
    assert type(arith("+", INT_MAX - 1, 1)) is int


def test_explicit_int_tag_survives_small_arithmetic():
    for op in "+-*":
        result = arith(op, BigInt(5), 1)
        assert type(result) is BigInt and tag(result) == "INT"
        result = arith(op, 1, BigInt(5))
        assert type(result) is BigInt


def test_bool_is_not_a_number():
    with pytest.raises(NjexlError) as err:
        arith("+", True, 1)
    assert (err.value.kind, err.value.message) == ("TypeError", "cannot apply + to bool and int")
    assert evaluate(create_context(out=Capture()), "true + 1") == StructuredError(
        "TypeError", "cannot apply + to bool and int", 1, 1
    )


def test_host_bound_wide_ints_stay_int_tagged():
    ctx = create_context(out=Capture())
    bind(ctx, "a", 2**70)
    bind(ctx, "b", -(2**70))
    assert evaluate(ctx, "c = a + b\nc") == 0
    assert type(ctx.scope.bindings["c"]) is BigInt


def test_ordering_errors_keep_their_messages():
    cases = [
        ((math.nan, 1), "NaN is unordered"),
        ((1, Decimal("NaN")), "NaN is unordered"),
        ((1, "a"), "cannot order int and str"),
        (("a", 1.5), "cannot order str and float"),
        ((True, 1), "cannot order bool and int"),
        ((BigInt(1), "a"), "cannot order INT and str"),
    ]
    for (a, b), message in cases:
        with pytest.raises(NjexlError) as err:
            order_compare(a, b)
        assert (err.value.kind, err.value.message) == ("TypeError", message)
    ctx = create_context(out=Capture())
    assert evaluate(ctx, "1 < 'a'") == StructuredError("TypeError", "cannot order int and str", 1, 1)
    for source, message in (("[1] < 2", "list and int"), ("'a' >= ['a']", "str and list")):
        assert evaluate(ctx, source) == StructuredError(
            "TypeError", f"cannot order {message} with {source.split()[1]}", 1, 1
        )
