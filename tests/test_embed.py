import random
import string
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from njexl import ConversionError, StructuredError, bind, create_context, evaluate, get
from njexl import interpreter
from njexl.lexer import KEYWORDS
from njexl.values import BigInt
from njexl.stdlib import FakeClock

from conftest import Capture

# read at import, before --tier-up-at can patch it for a test
FUNCTION_TIER_UP_AT = interpreter.FUNCTION_TIER_UP_AT


def fresh(**kw):
    return create_context(out=Capture(), err=Capture(), **kw)


def test_contexts_are_isolated():
    a = fresh()
    b = fresh()
    bind(a, "x", 1)
    assert evaluate(a, "x") == 1
    result = evaluate(b, "x")
    assert isinstance(result, StructuredError) and result.kind == "NameError"


def test_context_retains_globals_between_evaluations():
    ctx = fresh()
    evaluate(ctx, "total = 0")
    for i in range(5):
        evaluate(ctx, f"total = total + {i}")
    assert evaluate(ctx, "total") == 10


def test_output_sink_capture():
    out = Capture()
    ctx = create_context(out=out, err=Capture())
    evaluate(ctx, "print('hello', 42)")
    assert out.getvalue() == "hello 42\n"


def test_clock_injection():
    ctx = fresh(clock=FakeClock(123))
    assert evaluate(ctx, "#clock{ 1 }.0") == 123


def test_bind_and_sort_round_trip():
    ctx = fresh()
    bind(ctx, "l", [3, 1, 2])
    assert evaluate(ctx, "sorta(l)") == [1, 2, 3]


def test_null_and_scalars():
    ctx = fresh()
    assert evaluate(ctx, "null") is None
    assert evaluate(ctx, "true") is True
    assert evaluate(ctx, "2.5") == 2.5
    assert evaluate(ctx, "'text'") == "text"


def test_parse_error_is_structured():
    ctx = fresh()
    result = evaluate(ctx, "(")
    assert isinstance(result, StructuredError)
    assert result.kind == "ParseError"
    assert result.line == 1


def test_only_decimal_digits_make_numbers():
    ctx = fresh()
    result = evaluate(ctx, "x = ²")
    assert result == StructuredError("InvalidCharacter", "unexpected character '²'", 1, 5)
    assert evaluate(ctx, "٣ + 1") == 4


def test_int_literal_past_the_digit_limit_is_a_positioned_error():
    result = evaluate(fresh(), "x = 1 +\n  " + "1" * 4301)
    assert (result.kind, result.line, result.col) == ("NumberFormatError", 2, 3)


def test_runtime_error_is_structured_with_position():
    ctx = fresh()
    result = evaluate(ctx, "x = 1\nx / 0")
    assert isinstance(result, StructuredError)
    assert result.kind == "DivideByZero"
    assert result.line == 2


def test_error_value_results_convert_to_structured_error():
    ctx = fresh()
    result = evaluate(ctx, "#(o,:e) = int('zz') ; e")
    assert isinstance(result, StructuredError)
    assert result.kind == "NumberFormatError"


def test_function_results_are_conversion_errors():
    ctx = fresh()
    result = evaluate(ctx, "def(a){ a }")
    assert isinstance(result, StructuredError)
    assert result.kind == "ConversionError"


def test_a_set_of_lists_is_a_conversion_error():
    result = evaluate(fresh(), "set{ [$] }([1, 2])")
    assert (result.kind, result.message) == (
        "ConversionError", "set contains unhashable host elements"
    )


def test_bind_rejects_unbridgeable_host_data():
    ctx = fresh()
    with pytest.raises(ConversionError):
        bind(ctx, "f", lambda: None)
    with pytest.raises(ConversionError):
        bind(ctx, "not an identifier", 1)


@pytest.mark.parametrize(
    "key, kind", [((1, 2, 3), "list"), (frozenset([1]), "set"), ((1, (2, 3, 4)), "pair")]
)
def test_bind_rejects_host_dict_keys_the_guest_cannot_key_a_map_by(key, kind):
    ctx = fresh()
    message = f"host dict key becomes a {kind}, which cannot be a map key"
    with pytest.raises(ConversionError, match=f"^{message}$"):
        bind(ctx, "m", {key: 1})
    assert "m" not in ctx.scope.bindings


def test_bind_refuses_keywords_as_names():
    ctx = fresh()
    for name in sorted(KEYWORDS):
        with pytest.raises(ConversionError, match=f"invalid identifier: '{name}'"):
            bind(ctx, name, 7)
        assert name not in ctx.scope.bindings
    bind(ctx, "nulls", 7)
    assert evaluate(ctx, "nulls") == 7


def test_environment_is_read_when_the_context_is_made(tmp_path, monkeypatch):
    (tmp_path / "mathy.njxl").write_text("def triple(x){ x * 3 }\n")
    monkeypatch.setenv("NJEXL_PATH", str(tmp_path))
    ctx = fresh()
    monkeypatch.delenv("NJEXL_PATH")
    assert evaluate(ctx, "import 'mathy.njxl' as M\nM:triple(5)") == 15
    assert evaluate(fresh(), "import 'mathy.njxl' as M").kind == "ModuleNotFound"
    env = {"NJEXL_PATH": str(tmp_path), "OTHER": "kept"}
    ctx = fresh(env=env)
    assert ctx.io.env is env and env == {"NJEXL_PATH": str(tmp_path), "OTHER": "kept"}
    assert evaluate(ctx, "import 'mathy.njxl' as M\nM:triple(2)") == 6


def test_get_round_trip_and_missing():
    ctx = fresh()
    bind(ctx, "payload", {"k": [1, 2], "j": {3, 4}})
    assert get(ctx, "payload") == {"k": [1, 2], "j": {3, 4}}
    with pytest.raises(LookupError):
        get(ctx, "nothing")


def test_pairs_and_ranges_bridge():
    ctx = fresh()
    bind(ctx, "p", (1, "two"))
    assert evaluate(ctx, "p.1") == "two"
    assert evaluate(ctx, "#clock{ 9 }.1") == 9
    bind(ctx, "r", range(0, 10, 3))
    assert evaluate(ctx, "r.list()") == [0, 3, 6, 9]
    assert evaluate(ctx, "[0:3]") == range(0, 3)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.sampled_from([0.0, 1.5, -2.25]),
    st.text(alphabet=string.printable, max_size=6),
)


def _nested(depth):
    if depth == 0:
        return _scalars
    inner = _nested(depth - 1)
    return st.one_of(
        _scalars,
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(alphabet="abc", max_size=3), inner, max_size=3),
    )


@settings(max_examples=200, deadline=None)
@given(_nested(4))
def test_round_trip_identity_to_depth_four(value):
    ctx = fresh()
    bind(ctx, "v", value)
    assert get(ctx, "v") == value
    assert evaluate(ctx, "v") == value


def test_round_trip_sets_and_tuples():
    ctx = fresh()
    bind(ctx, "s", {1, 2, 3})
    assert get(ctx, "s") == {1, 2, 3}
    bind(ctx, "t", (1, 2))
    assert get(ctx, "t") == (1, 2)
    bind(ctx, "d", Decimal("1.50"))
    assert get(ctx, "d") == Decimal("1.50")


def _nest(levels):
    value = 1
    for _ in range(levels):
        value = [value]
    return value


def test_nesting_65_is_refused_and_64_crosses_both_ways():
    ctx = fresh()
    bind(ctx, "v", _nest(64))
    assert get(ctx, "v") == _nest(64)
    with pytest.raises(ConversionError, match="host data nested too deeply"):
        bind(ctx, "w", _nest(65))
    assert "w" not in ctx.scope.bindings
    evaluate(ctx, "w = " + "[" * 65 + "1" + "]" * 65)
    with pytest.raises(ConversionError, match="script data nested too deeply"):
        get(ctx, "w")
    assert evaluate(ctx, "w") == StructuredError("ConversionError", "script data nested too deeply")


def test_bool_and_int_tagged_elements_keep_their_types_in_lists():
    ctx = fresh()
    bind(ctx, "l", [True, 2**70, 3, "a", [False, 1]])
    held = ctx.scope.bindings["l"]
    assert [type(v) for v in held[:4]] == [bool, int, int, str] and type(held[4][0]) is bool
    assert evaluate(ctx, "true @ l and !(1 @ [true])") is True
    evaluate(ctx, "m = [true, INT(5), 6, [INT(7)]]")
    assert type(ctx.scope.bindings["m"][1]) is BigInt
    got = get(ctx, "m")
    assert got == [True, 5, 6, [7]]
    assert [type(v) for v in got[:3]] == [bool, int, int] and type(got[3][0]) is int


def test_tuples_cross_as_pairs_only_at_length_two():
    ctx = fresh()
    bind(ctx, "p", (1, "a"))
    bind(ctx, "t", (1, "a", [2]))
    assert evaluate(ctx, "p.1") == "a"
    assert get(ctx, "p") == (1, "a")
    assert type(ctx.scope.bindings["t"]) is list
    assert get(ctx, "t") == [1, "a", [2]]


def test_list_subclasses_cross_as_lists():
    class Row(list):
        pass

    ctx = fresh()
    bind(ctx, "r", Row([1, "a", Row([2])]))
    held = ctx.scope.bindings["r"]
    assert type(held) is list and type(held[2]) is list
    got = get(ctx, "r")
    assert got == [1, "a", [2]] and type(got) is list


def test_an_aliased_guest_list_reads_back_as_independent_copies():
    ctx = fresh()
    evaluate(ctx, "a = [1, 'x'] ; b = [a, a]")
    got = get(ctx, "b")
    assert got == [[1, "x"], [1, "x"]] and got[0] is not got[1]
    got[0].append(2)
    assert got[1] == [1, "x"] and get(ctx, "a") == [1, "x"]


def _garbage(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return "".join(rng.choice("(){}[]#|?:;,.'\"$_") for _ in range(rng.randrange(1, 12)))
    if kind == 1:
        return "".join(rng.choice(string.printable) for _ in range(rng.randrange(1, 20)))
    if kind == 2:
        valid = "x = 1 + 2 * f(3)"
        return valid[: rng.randrange(1, len(valid))]
    if kind == 3:
        return "(" * rng.randrange(1, 40)
    return rng.choice(["def", "if (", "#(", "a @ @", "1 ? 2", "import", "{ 1 :"])


def test_evaluate_never_raises_on_fuzz():
    rng = random.Random(71)
    ctx = fresh()
    for _ in range(500):
        text = _garbage(rng)
        result = evaluate(ctx, text)
        # either a value or a structured error; never a host exception
        if isinstance(result, StructuredError):
            assert result.kind
            assert isinstance(result.message, str)


def test_internal_error_names_the_python_exception():
    from njexl.values import Module, NativeFunction

    def boom(interp, scope, args, named, block, node):
        raise ValueError("bad host state")

    host = Module("host.Tools", {"boom": NativeFunction("boom", boom)})
    ctx = fresh(registry={"host.Tools": host})
    result = evaluate(ctx, "import 'host.Tools' as T\nT:boom()")
    assert result == StructuredError("InternalError", "ValueError: bad host state")


def test_a_position_less_host_native_error_takes_the_call_position(monkeypatch):
    from njexl.errors import NjexlError
    from njexl.values import Module, NativeFunction

    def boom(interp, scope, args, named, block, node):
        raise NjexlError("HostError", "nope")

    def placed(interp, scope, args, named, block, node):
        raise NjexlError("HostError", "placed", 9, 9)

    natives = {"boom": NativeFunction("boom", boom), "placed": NativeFunction("placed", placed)}
    ctx = fresh(registry={"host.Tools": Module("host.Tools", natives)})
    result = evaluate(ctx, "import 'host.Tools' as T\n  T:boom()")
    assert result == StructuredError("HostError", "nope", 2, 3)
    result = evaluate(ctx, "import 'host.Tools' as T\nT:placed()")
    assert result == StructuredError("HostError", "placed", 9, 9)
    # the same call in a function body called past its tier-up threshold: in tier-1 code
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", FUNCTION_TIER_UP_AT)
    generated, generate = [], interpreter.generate
    monkeypatch.setattr(interpreter, "generate", lambda *args: generated.append(generate(*args))
                        or generated[-1])
    last = FUNCTION_TIER_UP_AT
    source = f"import 'host.Tools' as T\ndef f(k){{\n  k < {last} ? k : T:boom()\n}}\n"
    result = evaluate(ctx, source + f"for (k : [0:{last + 1}]) {{ f(k) }}")
    assert result == StructuredError("HostError", "nope", 3, source.split("\n")[2].index("T:") + 1)
    assert len(generated) == 1 and generated[0] is not None
