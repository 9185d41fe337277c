"""Runtime value model: numeric tower, collection algebra, ordering, text forms.

Python scalars stand in directly for guest scalars (None, bool, int, float,
str).  Two tags need their own carriers: BigInt (surface name INT) is an int
subclass so an explicitly widened integer stays widened, and BigDec (surface
name DEC) is decimal.Decimal.  A plain int outside the signed 64-bit range
counts as BigInt as well; arithmetic that overflows 64 bits widens instead of
wrapping.  Python's own types carry the rest: a pair (from minmax, #clock
and map iteration) is a 2-tuple, a range a range, and an iterator (from
lines()) a Python iterator.

Equality is value-based across numeric tags (1 == 1.0 == DEC('1')), multiset
oriented on lists, and reflexive for every value.  All of it is routed through
one canonical-key function so that sets, map keys, equality, and multiset
containment can never disagree with each other.
"""

import datetime
import math
import operator
from collections import Counter
from collections.abc import Iterator
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction

from .errors import NjexlError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1
# The int lane of a compiled + - * / %, in both tiers: plain ints a and b with
# low <= a <= INT_MAX and low < b <= INT_MAX, low from this table (/ and %
# need a >= 0 < b, where floor division truncates), and a result within
# INT_MIN..INT_MAX.  Every other input goes through arith().
INT_LANE_LOW = {"+": INT_MIN, "-": INT_MIN, "*": INT_MIN, "/": 0, "%": 0}
# an integral float no larger than this in size has a repr that spells int(f)
_FLOAT_EXACT_INT = 2**53

# digits kept by inexact BigDec division
DEC_DIV_PRECISION = 64


class BigInt(int):
    """Arbitrary-precision integer tag (surface type INT)."""

    __slots__ = ()


class XSet:
    """Insertion-order set deduplicating by guest value equality."""

    __slots__ = ("_items",)

    def __init__(self, values=()):
        self._items = {}
        for v in values:
            self.add(v)

    def add(self, value, line=None, col=None):
        k = canonical_key(value, line, col)
        if k not in self._items:
            self._items[k] = value

    def contains(self, value, line=None, col=None):
        return canonical_key(value, line, col) in self._items

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items.values())


class XMap:
    """Insertion-order map keyed by guest value equality; keys must be immutable."""

    __slots__ = ("_items",)

    def __init__(self):
        self._items = {}

    def set(self, key, value, line=None, col=None):
        self._items[map_key(key, line, col)] = (key, value)

    def get(self, key):
        hit = self._items.get(map_key(key))
        return hit if hit is None else hit[1]

    def has(self, key):
        try:
            return map_key(key) in self._items
        except NjexlError:
            return False

    def items(self):
        return iter(self._items.values())

    def __len__(self):
        return len(self._items)


class Function:
    __slots__ = ("node", "scope")

    def __init__(self, node, scope):
        self.node = node  # the ast.FuncDef: name, params, body and the body's tier state
        self.scope = scope


class NativeFunction:
    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


class Module:
    __slots__ = ("path", "bindings")

    def __init__(self, path, bindings):
        self.path = path
        self.bindings = bindings


class ErrorValue:
    """A caught error as a first-class value (fields kind/message/cause)."""

    __slots__ = ("kind", "message", "cause")

    def __init__(self, kind, message, cause=None):
        self.kind = kind
        self.message = message
        self.cause = cause


_DATE_TYPES = (datetime.datetime, datetime.date)


def tag(v):
    """Human-readable type tag used in error messages."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, BigInt):
        return "INT"
    if isinstance(v, int):
        return "int" if INT_MIN <= v <= INT_MAX else "INT"
    if isinstance(v, float):
        return "float"
    if isinstance(v, Decimal):
        return "DEC"
    if isinstance(v, str):
        return "str"
    if isinstance(v, range):
        return "range"
    if isinstance(v, list):
        return "list"
    if isinstance(v, XSet):
        return "set"
    if isinstance(v, XMap):
        return "map"
    if isinstance(v, tuple):
        return "pair"
    if isinstance(v, Function):
        return "function"
    if isinstance(v, NativeFunction):
        return "builtin"
    if isinstance(v, Module):
        return "module"
    if isinstance(v, ErrorValue):
        return "error"
    if isinstance(v, datetime.datetime):
        return "datetime"
    if isinstance(v, datetime.date):
        return "date"
    if isinstance(v, Iterator):
        return "iterator"
    return type(v).__name__


def is_numeric(v):
    return isinstance(v, (int, float, Decimal)) and not isinstance(v, bool)


def is_int_tier(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_big(v):
    return isinstance(v, BigInt) or (
        is_int_tier(v) and not INT_MIN <= v <= INT_MAX
    )


def int_result(x):
    """Tag an exact integer result: stays Int while it fits 64 bits."""
    if INT_MIN <= x <= INT_MAX:
        return int(x)
    return BigInt(x)


def classify_decimal_literal(text):
    """Literal with '.'/exponent: Float when repr keeps every digit, else BigDec."""
    f = float(text)
    if math.isinf(f):
        return Decimal(text)
    if Decimal(repr(f)) == Decimal(text):
        return f
    return Decimal(text)


def float_to_decimal(f):
    """Bridge a Float into the decimal world via its shortest round-trip form."""
    return Decimal(repr(f))


def _exact_value(v):
    """Exact rational for cross-tag numeric equality/order (floats via repr)."""
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if math.isinf(v):
            return v
        return Fraction(float_to_decimal(v))
    if v.is_infinite():
        return math.inf if v > 0 else -math.inf
    return Fraction(v)


def canonical_key(v, line=None, col=None, _seen=None):
    """Hashable, totally-comparable-within-tag key defining value equality.
    A cyclic value has none: it raises a TypeError at line and col."""
    if isinstance(v, str):
        return ("str", v)
    if isinstance(v, int):
        return ("num", v) if type(v) is not bool else ("bool", v)
    if v is None:
        return ("null",)
    if isinstance(v, float):
        if math.isnan(v):
            return ("nan",)
        if math.isinf(v):
            return ("inf", 1 if v > 0 else -1)
        if v.is_integer() and -_FLOAT_EXACT_INT <= v <= _FLOAT_EXACT_INT:
            return ("num", int(v))
        return ("num", _exact_value(v))
    if isinstance(v, Decimal):
        if v.is_nan():
            return ("nan",)
        if v.is_infinite():
            return ("inf", 1 if v > 0 else -1)
        return ("num", _exact_value(v))
    if isinstance(v, _DATE_TYPES):
        return ("date", v.isoformat())
    if isinstance(v, ErrorValue):
        return ("error", (v.kind, v.message))
    if isinstance(v, range):
        return ("range", (v.start, v.step, range_length(v)) if v else ())
    if isinstance(v, tuple):
        return ("pair", tuple(canonical_key(e, line, col, _seen) for e in v))
    if isinstance(v, (list, XSet, XMap)):
        if _seen is None:
            _seen = set()
        if id(v) in _seen:
            raise NjexlError("TypeError", "cyclic value has no identity", line, col)
        _seen.add(id(v))  # _seen holds v's ancestors only: a shared value is no cycle
        if isinstance(v, list):
            key = ("list", tuple(sorted(canonical_key(e, line, col, _seen) for e in v)))
        elif isinstance(v, XSet):
            key = ("set", tuple(sorted(canonical_key(e, line, col, _seen) for e in v)))
        else:
            pairs = (
                (canonical_key(k, line, col, _seen), canonical_key(val, line, col, _seen))
                for k, val in v.items()
            )
            key = ("map", tuple(sorted(pairs)))
        _seen.discard(id(v))
        return key
    # functions, builtins, modules, iterators compare by identity
    return ("obj", id(v))


_KEYABLE = {"null", "bool", "num", "nan", "inf", "str", "date"}


def _keyable(k):
    if k[0] in _KEYABLE:
        return True
    if k[0] == "pair":
        return _keyable(k[1][0]) and _keyable(k[1][1])
    return False


def map_key(v, line=None, col=None):
    """Canonical key for map use; rejects mutable values as keys."""
    k = canonical_key(v, line, col)
    if _keyable(k):
        return k
    raise NjexlError("TypeError", f"{tag(v)} cannot be a map key", line, col)


def native_kind(items):
    """int when every element of list items is a plain int, str when every one
    is a plain str, else None: such lists compare by Python's own == and <."""
    kinds = set(map(type, items))
    return kinds.pop() if kinds == {int} or kinds == {str} else None


def values_equal(a, b, line=None, col=None):
    if type(a) is list and type(b) is list:
        if len(a) != len(b):
            return False  # multisets of different sizes: no key needed
        kind = native_kind(a)
        if kind is not None and native_kind(b) is kind:
            return sorted(a) == sorted(b)
    return canonical_key(a, line, col) == canonical_key(b, line, col)


def order_compare(a, b, line=None, col=None):
    """Total order over comparable tags; -1/0/1. Incomparable tags raise."""
    kind = type(a)
    if kind is type(b) and (kind is int or kind is str):
        return (a > b) - (a < b)
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
    if v is True:
        return True
    if v is None or v is False:
        return False
    if is_numeric(v):
        if isinstance(v, Decimal):
            return not v.is_zero()
        return v != 0
    return True


def _counts(values, line, col):
    return Counter(canonical_key(e, line, col) for e in values)


def sub_collection(a, b, line=None, col=None):
    """Containment: multiset on lists, subset on sets, submap on maps."""
    if isinstance(a, list) and isinstance(b, list):
        kind = native_kind(a)
        if kind is not None and native_kind(b) is kind:
            need, have = Counter(a), Counter(b)
        else:
            need, have = _counts(a, line, col), _counts(b, line, col)
        return all(have[k] >= n for k, n in need.items())
    if isinstance(a, XSet) and isinstance(b, XSet):
        return all(b.contains(e) for e in a)
    if isinstance(a, XMap) and isinstance(b, XMap):
        for k, v in a.items():
            if not b.has(k):
                return False
            if not values_equal(b.get(k), v):
                return False
        return True
    raise NjexlError(
        "TypeError", f"cannot test containment between {tag(a)} and {tag(b)}", line, col
    )


def range_length(r):
    """len(r), also past sys.maxsize, where len() raises OverflowError."""
    return (r[-1] - r[0]) // r.step + 1 if r else 0


def is_collection(v):
    return isinstance(v, (list, XSet, XMap))


def membership(x, c, line=None, col=None):
    """The @ operator: element of list/set, key of map, substring, range hit."""
    if isinstance(c, list):
        kx = canonical_key(x, line, col)
        return any(canonical_key(e, line, col) == kx for e in c)
    if isinstance(c, XSet):
        return c.contains(x, line, col)
    if isinstance(c, XMap):
        return c.has(x)
    if isinstance(c, str):
        return isinstance(x, str) and x in c
    if isinstance(c, range):
        if not is_numeric(x):
            return False
        exact = _exact_value(x)
        if isinstance(exact, Fraction) and exact.denominator != 1:
            return False
        return int(exact) in c
    raise NjexlError("TypeError", f"{tag(c)} is not a container", line, col)


def cardinality(v, line=None, col=None):
    if isinstance(v, (str, list, XSet, XMap, tuple)):
        return len(v)
    if isinstance(v, range):
        return range_length(v)
    raise NjexlError("TypeError", f"{tag(v)} has no size", line, col)


def project(v, i, line=None, col=None):
    """Positional component access for pairs, lists, and strings."""
    if not is_int_tier(i):
        raise NjexlError("TypeError", f"index must be an integer, got {tag(i)}", line, col)
    if isinstance(v, tuple):
        if 0 <= i < len(v):
            return v[i]
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


def enumerate_value(v, line=None, col=None):
    """Iteration order used by for-loops and the higher-order builtins."""
    if isinstance(v, (list, XSet, range, str, tuple, Iterator)):
        return iter(v)
    if isinstance(v, XMap):  # a snapshot: the loop may write the map
        return iter(list(v.items()))
    raise NjexlError("TypeError", f"{tag(v)} is not iterable", line, col)


# ---------------------------------------------------------------------------
# arithmetic


# Decimal contexts, built once and without traps: an infinite or NaN operand
# gives the IEEE result instead of raising.  Their flags are written and never
# read, so every thread may share them.  + - * % are exact at any exponent;
# / keeps DEC_DIV_PRECISION digits in the default exponent range.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])
_DIVIDE = Context(prec=DEC_DIV_PRECISION, traps=[])
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _dec_remainder(a, b):
    """a % b on DECs, exact.  When a's exponent exceeds b's, the remainder is
    taken on the coefficients through pow(10, gap, m): aligning a to b would
    need a coefficient as long as the exponent gap."""
    sign, digits, exp = a.as_tuple()
    if not (a.is_finite() and b.is_finite()) or exp <= b.as_tuple().exponent:
        return _EXACT.remainder(a, b)
    _, divisor, low = b.as_tuple()
    m = int(Decimal((0, divisor, 0)))
    r = int(Decimal((0, digits, 0))) * pow(10, exp - low, m) % m
    return Decimal((sign, Decimal(r).as_tuple().digits, low))


_DEC_OPS = {"+": _EXACT.add, "-": _EXACT.subtract, "*": _EXACT.multiply}
_DEC_OPS.update({"/": _DIVIDE.divide, "%": _dec_remainder})


def as_decimal(v):
    """A DEC of a number (a float through its shortest form), or of decimal text."""
    if isinstance(v, Decimal):
        return v
    if isinstance(v, float):
        return float_to_decimal(v)
    return Decimal(v)


def _as_float(v):
    """A number as a float: an int outside the float range is +-Infinity, as
    in IEEE conversion (and Java's BigInteger.doubleValue)."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _trunc_div(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _by_zero(kind, op, line, col):
    what = "division" if op == "/" else "remainder"
    return NjexlError("DivideByZero", f"{kind} {what} by zero", line, col)


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
        a, b = as_decimal(a), as_decimal(b)
        if op in "/%" and b.is_zero():
            raise _by_zero("decimal", op, line, col)
        return _DEC_OPS[op](a, b)
    if isinstance(a, float) or isinstance(b, float):
        a, b = _as_float(a), _as_float(b)
        if op in _OPS:
            return _OPS[op](a, b)
        if op == "%":  # IEEE: NaN for a zero divisor or an infinite dividend
            return math.nan if b == 0.0 or math.isinf(a) else math.fmod(a, b)
        if b != 0.0:
            return a / b
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    big = is_big(a) or is_big(b)
    if op in _OPS:
        r = _OPS[op](a, b)
    elif b == 0:
        raise _by_zero("integer", op, line, col)
    elif op == "%":
        r = a - _trunc_div(a, b) * b
    elif big and a % b != 0:
        return _DIVIDE.divide(Decimal(a), Decimal(b))
    else:
        r = _trunc_div(a, b)
    return BigInt(r) if big else int_result(r)


def negate(v, line=None, col=None):
    if isinstance(v, BigInt):
        return BigInt(-v)
    if is_int_tier(v):
        return int_result(-v)
    if isinstance(v, (float, Decimal)):
        return -v
    raise NjexlError("TypeError", f"cannot negate {tag(v)}", line, col)


# ---------------------------------------------------------------------------
# canonical text form (shared by print, the REPL, and string concatenation)


def stringify(v, _seen=None):
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        if type(v) is bool:
            return "true" if v else "false"
        try:
            return str(v)
        except ValueError:  # past the interpreter's int-to-str digit limit; exact
            return str(Decimal(v))
    if v is None:
        return "null"
    if isinstance(v, float):
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return repr(v)
    if isinstance(v, Decimal):
        return str(v)
    if isinstance(v, range):
        if v.step == 1:
            return f"[{v.start}:{v.stop}]"
        return f"[{v.start}:{v.stop}:{v.step}]"
    if isinstance(v, (list, XSet, XMap)):
        if _seen is None:
            _seen = set()
        if id(v) in _seen:
            return "[...]" if isinstance(v, list) else "{...}"
        _seen.add(id(v))  # _seen holds v's ancestors only: a shared value is no cycle
        if isinstance(v, list):
            text = "[" + ", ".join(stringify(e, _seen) for e in v) + "]"
        elif isinstance(v, XSet):
            text = "{" + ", ".join(stringify(e, _seen) for e in v) + "}"
        else:
            entries = (f"{stringify(k, _seen)} : {stringify(val, _seen)}" for k, val in v.items())
            text = "{" + ", ".join(entries) + "}"
        _seen.discard(id(v))
        return text
    if isinstance(v, tuple):
        return "(" + ", ".join(stringify(e, _seen) for e in v) + ")"
    if isinstance(v, Function):
        return f"def {v.node.name or ''}({', '.join(v.node.params)})"
    if isinstance(v, NativeFunction):
        return f"builtin({v.name})"
    if isinstance(v, Module):
        return f"module({v.path})"
    if isinstance(v, ErrorValue):
        return f"{v.kind}: {v.message}"
    if isinstance(v, _DATE_TYPES):
        return v.isoformat()
    if isinstance(v, Iterator):
        return "iterator"
    return str(v)
