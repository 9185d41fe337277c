"""Differential properties of the exact-type fast lanes.

Lane A: a compiled operator answers same-type plain int or str operands
itself, and + a str and a plain int in the 64-bit range.  For every such
operator, the compiled `a OP b` (operands bound as names, or the right one
written as a literal) must give what the value function it falls back to
gives: the same value of the same exact type, or the same error kind,
message, line and column.  Each source runs in both tiers: as tier-0
closures over a program body, and as tier-1 code that codegen.generate makes
at once for the same statements as a function body.

Lane B: list equality, containment, membership, blockless sorts and
blockless minmax compare all-plain-int or all-plain-str lists by Python's own
== and <.  Each must agree with the canonical-key or comparator path over
mixed, homogeneous and cyclic lists.
"""

import copy
import math
import operator
from collections import Counter
from decimal import Decimal
from functools import cache, cmp_to_key, partial

from hypothesis import given, settings
from hypothesis import strategies as st

from njexl import ast, interpreter
from njexl.codegen import generate
from njexl.errors import NjexlError
from njexl.interpreter import Interp, Scope, _index_get, compile_body, new_global_scope
from njexl.stdlib import default_io
from njexl.values import (
    INT_MAX,
    INT_MIN,
    BigInt,
    XSet,
    arith,
    canonical_key,
    is_collection,
    membership,
    order_compare,
    sub_collection,
    tag,
    values_equal,
)

from conftest import Capture, parse_source, to_src

_ints = st.one_of(
    st.integers(-6, 6),
    st.integers(INT_MIN - 3, INT_MIN + 3),
    st.integers(INT_MAX - 3, INT_MAX + 3),
    st.sampled_from([2**31, 2**32 + 1, -(2**32), 2**62, -(2**62), 3 * 2**62]),
)
_scalars = st.one_of(
    _ints,
    st.booleans(),
    st.builds(BigInt, _ints),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(
        [Decimal(1), Decimal("0.5"), Decimal("-3"), Decimal("NaN"), Decimal("Infinity")]
    ),
    st.text(alphabet="abé", max_size=3),
    st.none(),
)


def _cyclic(items):
    items = list(items)
    items.append(items)
    return items


_lists = st.one_of(
    st.lists(_ints, max_size=5),
    st.lists(st.integers(0, 3), max_size=5),
    st.lists(st.text(alphabet="ab", max_size=2), max_size=5),
    st.lists(st.one_of(st.integers(0, 2), st.booleans()), max_size=4),
    st.lists(st.booleans(), max_size=4),
    st.lists(st.sampled_from([0.0, 1.0, 2.0, math.nan]), max_size=4),
    st.lists(_scalars, max_size=4),
    st.builds(_cyclic, st.lists(st.integers(0, 3), max_size=3)),
)
_values = st.one_of(
    _scalars,
    _lists,
    st.tuples(_scalars, _scalars),
    st.builds(XSet, st.lists(st.integers(0, 3), max_size=3)),
)


def _shape(v, seen=()):
    """Exact-type structure of a result: NaN equals NaN, a cycle is marked."""
    if isinstance(v, (list, XSet)):
        if id(v) in seen:
            return "cycle"
        return (type(v), tuple(_shape(e, seen + (id(v),)) for e in v))
    if isinstance(v, tuple):
        return (tuple, _shape(v[0], seen), _shape(v[1], seen))
    if isinstance(v, (float, Decimal)) and v != v:
        return (type(v), "NaN")
    return (type(v), v)


def _outcome(thunk):
    try:
        return ("value", _shape(thunk()))
    except NjexlError as err:
        return ("error", err.kind, err.message, err.line, err.col)
    except (ArithmeticError, TypeError, ValueError) as exc:  # the tower's host faults, as is
        return ("raised", type(exc), str(exc))


def _literal_source(v):
    """Source text that parses to a Literal holding v, or None."""
    if v is None:
        return "null"
    if isinstance(v, bool) or (isinstance(v, str) and "\\" not in v):
        return to_src(v)
    if type(v) is int and 0 <= v < 10**4300:  # a longer literal is a NumberFormatError
        return str(v)
    if isinstance(v, (float, Decimal)) and math.isfinite(v) and not str(v).startswith("-"):
        return str(v)
    return None


@cache
def _compile(source, params):
    """The source's tier-0 code as a program body, its tier-1 code as the body
    of a function taking params, and its first statement."""
    program = parse_source(source)
    body = ast.FuncDef(program.line, program.col, None, list(params), program.body)
    tier_1 = generate(body, vars(interpreter))
    assert tier_1 is not None, source
    return compile_body(program.body), tier_1, program.body[0]


def _compiled(source, **names):
    """((tier-0 outcome, tier-1 outcome), node) of source run with names bound:
    in tier 0 in the global frame, in tier 1 in a function's frame.  Each tier
    gets its own deep copy of each value."""
    tier_0, tier_1, node = _compile(source, tuple(names))
    interp = Interp(default_io(out=Capture(), err=Capture()))
    scope = new_global_scope()
    scope.bindings.update({name: copy.deepcopy(v) for name, v in names.items()})
    got = _outcome(lambda: tier_0(interp, scope))
    frame = Scope(new_global_scope(), {name: copy.deepcopy(v) for name, v in names.items()})
    return (got, _outcome(lambda: tier_1(interp, frame))), node


def _order(op):
    test = getattr(operator, {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}.get(op, op))

    def generic(a, b, line, col):
        if is_collection(a) or is_collection(b):
            if op in ("<=", "le") and is_collection(a) and is_collection(b):
                return sub_collection(a, b, line, col)
            message = f"cannot order {tag(a)} and {tag(b)} with {op}"
            raise NjexlError("TypeError", message, line, col)
        return test(order_compare(a, b, line, col), 0)

    return generic


# each operator with a compiled lane, and the value function it falls back to
_GENERIC = {
    "==": values_equal,
    "eq": values_equal,
    "!=": lambda a, b, line, col: not values_equal(a, b, line, col),
    "@": membership,
    **{op: partial(arith, op) for op in "+-*/%"},
    **{op: _order(op) for op in ("<", "<=", ">", ">=", "lt", "le", "gt", "ge")},
}


def _check_binary(op, a, b):
    got, node = _compiled(f"a {op} b", a=a, b=b)
    a2, b2 = copy.deepcopy(a), copy.deepcopy(b)
    assert got == (_outcome(lambda: _GENERIC[op](a2, b2, node.line, node.col)),) * 2, (op, a, b)
    text = _literal_source(b)
    if text is not None:
        got, node = _compiled(f"a {op} {text}", a=a)
        assert isinstance(node.right, ast.Literal)
        const = node.right.value
        want = _outcome(lambda: _GENERIC[op](copy.deepcopy(a), const, node.line, node.col))
        assert got == (want, want), (op, a, text)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_GENERIC)), _values, _values)
def test_a_compiled_operator_agrees_with_its_value_function(op, a, b):
    _check_binary(op, a, b)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_GENERIC)), st.one_of(_ints, st.text(alphabet="ab", max_size=2)),
       st.one_of(_ints, st.text(alphabet="ab", max_size=2)))
def test_a_compiled_operator_agrees_on_plain_ints_and_strs(op, a, b):
    """The lanes' own domain, drawn densely: same-type pairs near the 64-bit edges."""
    _check_binary(op, a, b)


# where exact type decides: int against bool, BigInt, float and Decimal of the
# same value, either side of the 64-bit edges, NaN, and str against str
_EDGES = [0, 1, 2, -1, True, False, 1.0, 0.0, math.nan, -math.inf, BigInt(1), Decimal(1),
          Decimal("NaN"), "1", "a", "", None, INT_MAX, INT_MAX + 1, INT_MIN, INT_MIN - 1, 2**62]
_EDGE_LISTS = [[], [1], [True], [1.0], [BigInt(1)], [Decimal(1)], ["1"], ["a", "b"], ["b", "a"],
               [1, 2], [2, 1], [1, True], [True, 1], [1, 1], [math.nan], ["a", 1], _cyclic([1])]


def test_every_operator_agrees_on_the_type_edges():
    for op in _GENERIC:
        for a in _EDGES:
            for b in _EDGES:
                _check_binary(op, a, b)
    for op in ("==", "!=", "<=", "@", "+"):
        for a in _EDGE_LISTS + _EDGES[:6]:
            for b in _EDGE_LISTS:
                _check_binary(op, a, b)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.one_of(_lists, _values), st.one_of(_ints, _values))
def test_compiled_indexing_agrees_with_the_generic_read(v, i):
    text = _literal_source(i)
    for source in ["v[i]"] + ([f"v[{text}]"] if text else []):
        got, node = _compiled(source, v=v, i=i)
        key = i if isinstance(node.index, ast.Identifier) else node.index.value
        assert got == (_outcome(lambda: _index_get(v, key, node)),) * 2, (source, v, i)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_values, _values)
def test_compiled_plus_assign_agrees_with_arith(x, y):
    """x += y in the frame binding x, and from a child frame (eval's)."""
    for source in ("x += y\nx", "eval('x += y')\nx"):
        got, _ = _compiled(source, x=x, y=y)
        x2, y2 = copy.deepcopy(x), copy.deepcopy(y)
        assert got == (_outcome(lambda: arith("+", x2, y2, 1, 1)),) * 2, (source, x, y)


# + on a str and anything: the str/int concatenation lane takes a plain int
# in the 64-bit range only; bool, INT, ints past either edge, one too long for
# str(), NaN, null and a list (which appends) go through arith()
_CONCAT_PARTNERS = [0, -7, INT_MAX, INT_MIN, 2**63, -(2**63), 2**63 + 1, -(2**63) - 1,
                    10**4300, -(10**4300), True, False, BigInt(5), BigInt(2**70), math.nan,
                    1.5, Decimal("2.5"), None, [1], ["a"], "", "b"]


def _check_concat(s, x):
    for a, b in ((s, x), (x, s)):
        _check_binary("+", a, b)
        got, _ = _compiled("a += b\na", a=a, b=b)
        a2, b2 = copy.deepcopy(a), copy.deepcopy(b)
        assert got == (_outcome(lambda: arith("+", a2, b2, 1, 1)),) * 2, (a, b)


def test_str_and_int_concatenate_as_arith_does_in_both_tiers():
    for s in ("", "x#", "é"):
        for x in _CONCAT_PARTNERS:
            _check_concat(s, x)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.text(alphabet="ab#", max_size=3), st.one_of(_ints, _scalars, _lists))
def test_concatenation_lane_agrees_with_arith(s, x):
    _check_concat(s, x)


# --- lane B: the canonical-key and comparator paths it replaces -------------------


def _equal_by_keys(a, b, line, col):
    if type(a) is list and type(b) is list and len(a) != len(b):
        return False
    return canonical_key(a, line, col) == canonical_key(b, line, col)


def _contained_by_keys(a, b, line, col):
    need = Counter(canonical_key(e, line, col) for e in a)
    have = Counter(canonical_key(e, line, col) for e in b)
    return all(have[k] >= n for k, n in need.items())


def _member_by_keys(x, c, line, col):
    kx = canonical_key(x, line, col)
    return any(canonical_key(e, line, col) == kx for e in c)


def _sorted_by_comparator(items, descending, line, col):
    cmp = partial(order_compare, line=line, col=col)
    return sorted(items, key=cmp_to_key(cmp), reverse=descending)


def _minmax_by_comparator(items, line, col):
    if not items:
        raise NjexlError("EmptyCollection", "minmax of an empty collection", line, col)
    lowest = highest = items[0]
    for item in items[1:]:
        if order_compare(item, lowest, line, col) < 0:
            lowest = item
        if order_compare(highest, item, line, col) < 0:
            highest = item
    return lowest, highest


def _check_lists(a, b, x):
    for other in (b, list(reversed(a))):
        for lane, generic in ((values_equal, _equal_by_keys), (sub_collection, _contained_by_keys)):
            want = _outcome(lambda: generic(a, other, 2, 3))
            assert _outcome(lambda: lane(a, other, 2, 3)) == want, (lane, a, other)
    for c in (a, b):
        got, node = _compiled("x @ c", x=x, c=c)
        assert got == (_outcome(lambda: _member_by_keys(x, c, node.line, node.col)),) * 2, (x, c)


def _check_sorts(items):
    for name in ("sorta", "sortd"):
        got, node = _compiled(f"{name}(l)", l=items)
        want = _outcome(lambda: _sorted_by_comparator(items, name == "sortd", node.line, node.col))
        assert got == (want, want), (name, items)
    got, node = _compiled("minmax(l)", l=items)
    assert got == (_outcome(lambda: _minmax_by_comparator(items, node.line, node.col)),) * 2, items


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lists, _lists, st.one_of(_ints, st.text(alphabet="ab", max_size=2), _scalars))
def test_list_lanes_agree_with_the_canonical_key_path(a, b, x):
    _check_lists(a, b, x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lists)
def test_blockless_sorts_and_minmax_agree_with_the_comparator(items):
    _check_sorts(items)


def test_list_lanes_agree_on_the_type_edges():
    for a in _EDGE_LISTS:
        for b in _EDGE_LISTS:
            for x in _EDGES[:6]:
                _check_lists(a, b, x)
        _check_sorts(a)
