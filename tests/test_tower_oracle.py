"""Differential check: the numeric tower against tests/tower_oracle.py.

`arith` and the int/INT/float/DEC builtins must give what the code they
replaced gives: the same value of the same exact type with the same text
(repr, so a decimal's str() and a float's sign of zero count), or the same
error kind, message, line and column.  Inputs where the oracle raised a
host exception are left out: the tower now answers those with IEEE values,
which tests/test_values.py pins.  The new code must never raise one on
this domain.
"""

import copy
import math
from decimal import Decimal
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from njexl.errors import NjexlError
from njexl.stdlib import BUILTINS
from njexl.values import INT_MAX, INT_MIN, BigInt, arith

import tower_oracle

LINE, COL = 3, 7
NODE = SimpleNamespace(line=LINE, col=COL)

_decimals = st.builds(
    lambda sign, digits, exponent: Decimal((sign, tuple(digits), exponent)),
    st.integers(0, 1),
    st.lists(st.integers(0, 9), min_size=1, max_size=25),
    st.integers(-40, 40),
)
_special = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("Infinity"),
     Decimal("-Infinity"), Decimal("-0"), Decimal("0E-5")]
)
_numbers = st.one_of(
    _special,
    st.integers(-100, 100),
    st.integers(INT_MIN - 8, INT_MIN + 8),
    st.integers(INT_MAX - 8, INT_MAX + 8),
    st.integers(-(2**70), 2**70),
    st.integers(-(10**30), 10**30).map(BigInt),
    st.floats(),
    _decimals,
)
_scalars = st.one_of(_numbers, st.booleans(), st.text(max_size=4), st.none())
_operands = st.one_of(_scalars, st.lists(_scalars, max_size=3))


def _shape(v):
    if isinstance(v, list):
        return list, tuple(_shape(e) for e in v)
    return type(v), repr(v)


def _outcome(fn, *args):
    """('value', shape), ('error', kind, message, line, col), or None when
    fn raised a host exception."""
    try:
        return "value", _shape(fn(*args))
    except NjexlError as err:
        return "error", err.kind, err.message, err.line, err.col
    except Exception:  # noqa: BLE001 - the oracle's host exceptions are left out
        return None


def _check_arith(op, a, b):
    old = _outcome(tower_oracle.arith, op, copy.deepcopy(a), copy.deepcopy(b), LINE, COL)
    new = _outcome(arith, op, copy.deepcopy(a), copy.deepcopy(b), LINE, COL)
    assert new is not None, (op, a, b)
    if old is not None:
        assert new == old, (op, a, b)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.sampled_from("+-*/%"), _operands, _operands)
def test_arith_agrees_with_the_oracle(op, a, b):
    _check_arith(op, a, b)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.sampled_from("+-*/%"), _numbers, _numbers)
def test_numeric_arith_agrees_with_the_oracle(op, a, b):
    _check_arith(op, a, b)


_ORACLE_BODIES = {
    "int": tower_oracle.b_int,
    "INT": tower_oracle.b_int,
    "float": tower_oracle.b_float,
    "DEC": tower_oracle.b_dec,
}

_number_texts = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", " ", "\t", "  "]),
    st.sampled_from(["", "+", "-", "--", "+-"]),
    st.sampled_from(["", "0", "7", "12", "007", "123456789012345678901234567890"]),
    st.sampled_from(["", ".", ".5", ".25", ".0"]),
    st.sampled_from(["", "e3", "E-2", "e+400", "e", "e999999999"]),
    st.sampled_from(["", " ", "x", "_1", "\n"]),
)
_texts = st.one_of(_number_texts, st.text(alphabet=" +-.eE0123456789x_", max_size=12), st.text(max_size=4))


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(_ORACLE_BODIES)),
    st.one_of(_texts, _operands),
    st.one_of(st.just(()), st.tuples(st.sampled_from([None, -1, "fallback"]))),
)
def test_conversions_agree_with_the_oracle(name, value, fallback):
    args = [value, *fallback]
    old = _outcome(_ORACLE_BODIES[name], None, None, list(args), None, NODE, name)
    new = _outcome(BUILTINS[name].fn, None, None, list(args), {}, None, NODE)
    assert new is not None, (name, args)
    if old is not None:
        assert new == old, (name, args)
