"""Pinned cases for the exact-type fast paths of the value layer and the host
bridge: where a fast path ends, the general path gives the same value, exact
type, error kind and message as before the fast paths."""

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from njexl import StructuredError, bind, create_context, embed, evaluate, get
from njexl.embed import _MAX_BRIDGE_DEPTH, ConversionError
from njexl.errors import NjexlError
from njexl.values import INT_MAX, INT_MIN, BigInt, XMap, XSet, arith, order_compare, tag

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


class _Text(str):
    """A str subclass: host data the bridge copies the slow way."""


class _Rows(list):
    """A list subclass: host data the bridge copies the slow way."""


_LEAVES = st.one_of(
    st.integers(-(2**70), 2**70), st.text(max_size=3), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.integers(-5, 5).map(BigInt), st.text(max_size=2).map(_Text),
)
_HOST = st.recursive(
    st.one_of(_LEAVES, st.just(b"x")),  # bytes cannot cross
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(st.lists(_LEAVES, max_size=4), max_size=4),
        st.lists(inner, max_size=3).map(_Rows), st.tuples(inner, inner),
        st.lists(inner, max_size=3).map(tuple), st.frozensets(st.integers(0, 9), max_size=3),
        st.dictionaries(st.text(max_size=2), inner, max_size=3),
    ),
    max_leaves=12,
)
_GUEST = st.recursive(
    _LEAVES.filter(lambda v: type(v) is not _Text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(st.lists(_LEAVES, max_size=4), max_size=4),
        st.tuples(inner, inner),
    ),
    max_leaves=12,
)


def _nested(value, levels):
    for _ in range(levels):
        value = [value]
    return value


def _shape(value):
    """value with the exact type of every part, for comparing copies."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_shape(v) for v in value])
    if isinstance(value, XMap):
        return ("XMap", [(_shape(k), _shape(v)) for k, v in value.items()])
    if isinstance(value, (XSet, set, frozenset)):
        return (type(value).__name__, sorted(map(repr, value)))
    if isinstance(value, dict):
        return ("dict", [(_shape(k), _shape(v)) for k, v in value.items()])
    return (type(value).__name__, repr(value))


def _lists(value, found):
    """The ids of the lists in value, added to found."""
    if isinstance(value, list):
        found.add(id(value))
    if isinstance(value, (list, tuple)):
        for item in value:
            _lists(item, found)
    return found


def _both_ways(convert, value, monkeypatch):
    """convert(value, 0) with the one-pass copy and without it: each a shape or an error."""
    got = []
    for plain_copy in (embed._plain_copy, lambda value, depth: None):
        monkeypatch.setattr(embed, "_plain_copy", plain_copy)
        try:
            out = convert(value, 0)
            assert not _lists(out, set()) & _lists(value, set())  # a deep copy
            got.append(("value", _shape(out)))
        except ConversionError as exc:
            got.append(("error", str(exc)))
    return got


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_HOST, st.integers(56, 66))
def test_host_data_crosses_as_the_element_by_element_copy_gives(value, levels):
    with pytest.MonkeyPatch.context() as monkeypatch:
        fast, slow = _both_ways(embed._to_value, _nested(value, levels), monkeypatch)
    assert fast == slow


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_GUEST, st.integers(56, 66))
def test_script_data_leaves_as_the_element_by_element_copy_gives(value, levels):
    with pytest.MonkeyPatch.context() as monkeypatch:
        fast, slow = _both_ways(embed._from_value, _nested(value, levels), monkeypatch)
    assert fast == slow


@pytest.mark.parametrize("levels", range(60, 67))
def test_tables_near_the_depth_cap_cross_as_the_element_by_element_copy_gives(levels):
    for value in ([[1, "a"], [2]], [1, "a"], []):
        for convert in (embed._to_value, embed._from_value):
            with pytest.MonkeyPatch.context() as monkeypatch:
                fast, slow = _both_ways(convert, _nested(value, levels), monkeypatch)
            assert fast == slow


def test_plain_tables_and_lists_are_copied_both_ways():
    ctx = create_context(out=Capture())
    table, flat = [[1, "a"], [2, "b"]], [1, "a", 2]
    bind(ctx, "t", table)
    bind(ctx, "l", flat)
    table[0].append(99)  # the host's data, changed after bind
    flat.append(99)
    want = [[[1, "a"], [2, "b"]], [1, "a", 2]]
    assert evaluate(ctx, "[t, l]") == want
    table, flat = get(ctx, "t"), get(ctx, "l")
    table[1].append(98)  # the data get returned, changed
    flat.append(98)
    assert evaluate(ctx, "[t, l]") == want
