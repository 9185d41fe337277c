"""Pinned cases for the exact-type fast paths of the value layer and the host
bridge: where a fast path ends, the general path gives the same value, exact
type, error kind and message as before the fast paths."""

import math
from decimal import Decimal

import pytest

from njexl import StructuredError, bind, create_context, embed, evaluate
from njexl.embed import _MAX_BRIDGE_DEPTH, ConversionError
from njexl.errors import NjexlError
from njexl.values import INT_MAX, INT_MIN, BigInt, arith, order_compare, tag

from conftest import Capture


@pytest.mark.parametrize("depth", [_MAX_BRIDGE_DEPTH - 1, _MAX_BRIDGE_DEPTH, _MAX_BRIDGE_DEPTH + 1])
def test_flat_lists_at_the_depth_cap(depth):
    """Below the cap a flat list crosses with its element types (an INT-tagged
    BigInt leaves as a plain int); at the cap each element is one level too
    deep, so only the empty list crosses; past it nothing does."""
    cases = [([1, "a"], [int, str], [int, str]), ([True], [bool], [bool]),
             ([BigInt(3)], [BigInt], [int]), ([], [], [])]
    for value, to_types, from_types in cases:
        for convert, types in ((embed._to_value, to_types), (embed._from_value, from_types)):
            if depth < _MAX_BRIDGE_DEPTH or (depth == _MAX_BRIDGE_DEPTH and not value):
                got = convert(value, depth)
                assert got == value and [type(v) for v in got] == types
            else:
                with pytest.raises(ConversionError, match="nested too deeply"):
                    convert(value, depth)


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
