"""The numeric tower as it was before one operator table and two fixed
decimal contexts replaced it.

A differential oracle for tests/test_tower_oracle.py, kept for one change
only.  Below the imports: the arithmetic section of src/njexl/values.py
(`_dec_digits` through `_arith_dec`) and the conversions of
src/njexl/stdlib.py (`_INT_RE` through `b_dec`), copied verbatim, except
that the `@_builtin(...)` registrations are left off, so the four bodies
are plain functions with the builtin signature.  `_fail` is stdlib's own.
"""

import math
import re
from decimal import Decimal, InvalidOperation, localcontext

from njexl.errors import NjexlError
from njexl.values import (
    DEC_DIV_PRECISION,
    BigInt,
    XSet,
    float_to_decimal,
    int_result,
    is_big,
    is_numeric,
    stringify,
    tag,
)


def _fail(node, kind, message):
    raise NjexlError(kind, message, getattr(node, "line", None), getattr(node, "col", None))


def _dec_digits(d):
    return len(d.as_tuple().digits)


def _dec_exact(op, a, b):
    """+,-,* on decimals with enough precision to stay exact."""
    if op == "*":
        prec = _dec_digits(a) + _dec_digits(b) + 2
    else:
        ta, tb = a.as_tuple(), b.as_tuple()
        hi = max(len(ta.digits) + ta.exponent, len(tb.digits) + tb.exponent)
        lo = min(ta.exponent, tb.exponent)
        prec = hi - lo + 2
    with localcontext() as cx:
        cx.prec = max(prec, 28)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        return a * b


def _as_decimal(v):
    if isinstance(v, Decimal):
        return v
    if isinstance(v, float):
        return float_to_decimal(v)
    return Decimal(int(v))


def _trunc_div(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def arith(op, a, b, line=None, col=None):
    """Evaluate a numeric or collection-extending binary +,-,*,/,%."""
    if op == "+":
        if isinstance(a, list):
            a.append(b)
            return a
        if isinstance(a, XSet):
            a.add(b, line, col)
            return a
        if isinstance(a, str) or isinstance(b, str):
            return stringify(a) + stringify(b)
    if not (is_numeric(a) and is_numeric(b)):
        raise NjexlError(
            "TypeError", f"cannot apply {op} to {tag(a)} and {tag(b)}", line, col
        )

    if isinstance(a, Decimal) or isinstance(b, Decimal):
        return _arith_dec(op, _as_decimal(a), _as_decimal(b), line, col)
    if isinstance(a, float) or isinstance(b, float):
        return _arith_float(op, float(a), float(b))
    big = is_big(a) or is_big(b)
    return _arith_int(op, a, b, big, line, col)


def _arith_int(op, a, b, big, line, col):
    if op == "+":
        r = a + b
    elif op == "-":
        r = a - b
    elif op == "*":
        r = a * b
    elif op == "/":
        if b == 0:
            raise NjexlError("DivideByZero", "integer division by zero", line, col)
        if big and a % b != 0:
            return _arith_dec("/", Decimal(a), Decimal(b), line, col)
        r = _trunc_div(a, b)
    else:
        if b == 0:
            raise NjexlError("DivideByZero", "integer remainder by zero", line, col)
        r = a - _trunc_div(a, b) * b
    return BigInt(r) if big else int_result(r)


def _arith_float(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            if a == 0.0 or math.isnan(a):
                return math.nan
            return math.copysign(math.inf, a) * math.copysign(1.0, b)
        return a / b
    if b == 0.0:
        return math.nan
    return math.fmod(a, b)


def _arith_dec(op, a, b, line, col):
    if op in "+-*":
        return _dec_exact(op, a, b)
    if b.is_zero():
        raise NjexlError(
            "DivideByZero",
            "decimal division by zero" if op == "/" else "decimal remainder by zero",
            line,
            col,
        )
    with localcontext() as cx:
        cx.prec = DEC_DIV_PRECISION
        if op == "/":
            return a / b
        return a % b


# conversions


_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _parse_with(pattern, text):
    text = text.strip()
    if not pattern.fullmatch(text):
        raise ValueError(text)
    return text


def _to_int(value):
    if isinstance(value, str):
        return int(_parse_with(_INT_RE, value))
    if isinstance(value, bool) or not is_numeric(value):
        raise ValueError(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(value)
        return int(value)
    return int(value)


def _convert(node, name, args, converter):
    try:
        return converter(args[0])
    except (ValueError, ArithmeticError, InvalidOperation):
        if len(args) == 2:
            return args[1]
        _fail(node, "NumberFormatError", f"cannot read {stringify(args[0])!r} as {name}")


def b_int(interp, scope, args, block, node, name):
    """Parse decimal integer text or truncate a number toward zero; INT's
    result always carries the arbitrary-precision tag."""
    tagged = BigInt if name == "INT" else int_result
    return _convert(node, name, args, lambda v: tagged(_to_int(v)))


def b_float(interp, scope, args, block, node, name):
    def conv(v):
        if isinstance(v, str):
            return float(_parse_with(_FLOAT_RE, v))
        if isinstance(v, bool) or not is_numeric(v):
            raise ValueError(v)
        return float(v)

    return _convert(node, name, args, conv)


def b_dec(interp, scope, args, block, node, name):
    def conv(v):
        if isinstance(v, str):
            return Decimal(_parse_with(_FLOAT_RE, v))
        if isinstance(v, bool) or not is_numeric(v):
            raise ValueError(v)
        if isinstance(v, float):
            return float_to_decimal(v)
        if isinstance(v, Decimal):
            return v
        return Decimal(int(v))

    return _convert(node, name, args, conv)
