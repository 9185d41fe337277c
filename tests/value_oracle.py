"""The value operations as they were before their exact-type fast paths.

A differential oracle for tests/test_value_fast_paths.py, kept for one
change only: arith, order_compare, canonical_key, stringify, project and
truthiness from njexl/values.py, and _to_value and _from_value from
njexl/embed.py, copied verbatim.  The helpers they call, which the fast
paths left alone, are imported from njexl itself.
"""

import datetime
import math
from decimal import Decimal

from njexl.embed import _MAX_BRIDGE_DEPTH, ConversionError, StructuredError, _as_host_key
from njexl.errors import NjexlError
from njexl.values import (
    _DATE_TYPES,
    ErrorValue,
    Function,
    LazySeq,
    Module,
    NativeFunction,
    Pair,
    Range,
    XMap,
    XSet,
    _arith_dec,
    _arith_float,
    _arith_int,
    _as_decimal,
    _exact_value,
    is_big,
    is_int_tier,
    is_numeric,
    tag,
)


def canonical_key(v, _seen=None):
    """Hashable, totally-comparable-within-tag key defining value equality."""
    if v is None:
        return ("null",)
    if isinstance(v, bool):
        return ("bool", v)
    if isinstance(v, int):
        return ("num", v)
    if isinstance(v, float):
        if math.isnan(v):
            return ("nan",)
        if math.isinf(v):
            return ("inf", 1 if v > 0 else -1)
        return ("num", _exact_value(v))
    if isinstance(v, Decimal):
        if v.is_nan():
            return ("nan",)
        if v.is_infinite():
            return ("inf", 1 if v > 0 else -1)
        return ("num", _exact_value(v))
    if isinstance(v, str):
        return ("str", v)
    if isinstance(v, _DATE_TYPES):
        return ("date", v.isoformat())
    if isinstance(v, ErrorValue):
        return ("error", (v.kind, v.message))
    if isinstance(v, Range):
        if v.length() == 0:
            return ("range", ())
        return ("range", (v.start, v.step, v.length()))
    if isinstance(v, Pair):
        return ("pair", (canonical_key(v.first, _seen), canonical_key(v.second, _seen)))
    if isinstance(v, (list, XSet, XMap)):
        if _seen is None:
            _seen = set()
        if id(v) in _seen:
            raise NjexlError("TypeError", "cyclic value has no identity")
        _seen = _seen | {id(v)}
        if isinstance(v, list):
            return ("list", tuple(sorted(canonical_key(e, _seen) for e in v)))
        if isinstance(v, XSet):
            return ("set", tuple(sorted(canonical_key(e, _seen) for e in v)))
        pairs = sorted(
            (canonical_key(k, _seen), canonical_key(val, _seen)) for k, val in v.items()
        )
        return ("map", tuple(pairs))
    # functions, builtins, modules, iterators compare by identity
    return ("obj", id(v))


def order_compare(a, b, line=None, col=None):
    """Total order over comparable tags; -1/0/1. Incomparable tags raise."""
    if is_numeric(a) and is_numeric(b):
        for v in (a, b):
            if isinstance(v, float) and math.isnan(v):
                raise NjexlError("TypeError", "NaN is unordered", line, col)
            if isinstance(v, Decimal) and v.is_nan():
                raise NjexlError("TypeError", "NaN is unordered", line, col)
        x, y = _exact_value(a), _exact_value(b)
        return (x > y) - (x < y)
    if isinstance(a, str) and isinstance(b, str):
        return (a > b) - (a < b)
    if isinstance(a, bool) and isinstance(b, bool):
        return (a > b) - (a < b)
    if isinstance(a, _DATE_TYPES) and isinstance(b, _DATE_TYPES):
        if isinstance(a, datetime.datetime) != isinstance(b, datetime.datetime):
            raise NjexlError("TypeError", "cannot order date and datetime", line, col)
        return (a > b) - (a < b)
    raise NjexlError("TypeError", f"cannot order {tag(a)} and {tag(b)}", line, col)


def truthiness(v):
    """False for null, false, and numeric zero; everything else is true."""
    if v is None or v is False:
        return False
    if v is True:
        return True
    if is_numeric(v):
        if isinstance(v, Decimal):
            return not v.is_zero()
        return v != 0
    return True


def project(v, i, line=None, col=None):
    """Positional component access for pairs, lists, and strings."""
    if not is_int_tier(i):
        raise NjexlError("TypeError", f"index must be an integer, got {tag(i)}", line, col)
    if isinstance(v, Pair):
        if i == 0:
            return v.first
        if i == 1:
            return v.second
        raise NjexlError("IndexError", f"pair index {i} out of range", line, col)
    if isinstance(v, list):
        if 0 <= i < len(v):
            return v[i]
        raise NjexlError("IndexError", f"list index {i} out of range {len(v)}", line, col)
    if isinstance(v, str):
        if 0 <= i < len(v):
            return v[i]
        raise NjexlError("IndexError", f"string index {i} out of range {len(v)}", line, col)
    raise NjexlError("TypeError", f"{tag(v)} is not indexable", line, col)


def arith(op, a, b, line=None, col=None):
    """Evaluate a numeric or collection-extending binary +,-,*,/,%."""
    if op == "+":
        if isinstance(a, list):
            a.append(b)
            return a
        if isinstance(a, XSet):
            a.add(b)
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


def stringify(v, _seen=None):
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return repr(v)
    if isinstance(v, Decimal):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, Range):
        if v.step == 1:
            return f"[{v.start}:{v.end}]"
        return f"[{v.start}:{v.end}:{v.step}]"
    if isinstance(v, (list, XSet, XMap)):
        if _seen is None:
            _seen = set()
        if id(v) in _seen:
            return "[...]" if isinstance(v, list) else "{...}"
        _seen = _seen | {id(v)}
        if isinstance(v, list):
            return "[" + ", ".join(stringify(e, _seen) for e in v) + "]"
        if isinstance(v, XSet):
            return "{" + ", ".join(stringify(e, _seen) for e in v) + "}"
        entries = (f"{stringify(k, _seen)} : {stringify(val, _seen)}" for k, val in v.items())
        return "{" + ", ".join(entries) + "}"
    if isinstance(v, Pair):
        return f"({stringify(v.first, _seen)}, {stringify(v.second, _seen)})"
    if isinstance(v, LazySeq):
        return "iterator"
    if isinstance(v, Function):
        name = v.name or ""
        return f"def {name}({', '.join(v.params)})"
    if isinstance(v, NativeFunction):
        return f"builtin({v.name})"
    if isinstance(v, Module):
        return f"module({v.path})"
    if isinstance(v, ErrorValue):
        return f"{v.kind}: {v.message}"
    if isinstance(v, _DATE_TYPES):
        return v.isoformat()
    return str(v)


def _to_value(value, depth):
    if depth > _MAX_BRIDGE_DEPTH:
        raise ConversionError("host data nested too deeply")
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float, Decimal)):
        return value
    if isinstance(value, (datetime.datetime, datetime.date)):
        return value
    if isinstance(value, tuple) and len(value) == 2:
        return Pair(_to_value(value[0], depth + 1), _to_value(value[1], depth + 1))
    if isinstance(value, range):
        return Range(value.start, value.stop, value.step)
    if isinstance(value, (list, tuple)):
        return [_to_value(v, depth + 1) for v in value]
    if isinstance(value, (set, frozenset)):
        return XSet(_to_value(v, depth + 1) for v in value)
    if isinstance(value, dict):
        out = XMap()
        for k, v in value.items():
            out.set(_to_value(k, depth + 1), _to_value(v, depth + 1))
        return out
    raise ConversionError(f"cannot bridge host {type(value).__name__} into a script value")


def _from_value(value, depth):
    if depth > _MAX_BRIDGE_DEPTH:
        raise ConversionError("script data nested too deeply")
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float, Decimal)):
        return int(value) if isinstance(value, int) else value
    if isinstance(value, (datetime.datetime, datetime.date)):
        return value
    if isinstance(value, Pair):
        return (_from_value(value.first, depth + 1), _from_value(value.second, depth + 1))
    if isinstance(value, Range):
        return range(value.start, value.end, value.step)
    if isinstance(value, list):
        return [_from_value(v, depth + 1) for v in value]
    if isinstance(value, XSet):
        try:
            return {_from_value(v, depth + 1) for v in value}
        except TypeError:
            raise ConversionError("set contains unhashable host elements") from None
    if isinstance(value, XMap):
        return {
            _as_host_key(_from_value(k, depth + 1)): _from_value(v, depth + 1)
            for k, v in value.items()
        }
    if isinstance(value, LazySeq):
        return [_from_value(v, depth + 1) for v in value]
    if isinstance(value, ErrorValue):
        return StructuredError(value.kind, value.message)
    raise ConversionError(f"cannot bridge a {type(value).__name__} value back to the host")
