import random

import pytest

from njexl.errors import NjexlError
from njexl.interpreter import Interp, new_global_scope, run_on_deep_stack
from njexl.stdlib import FakeClock, default_io
from njexl.values import ErrorValue

from conftest import Capture, parse_source, run_source


def run(source, **kw):
    return run_source(source, **kw)[0]


def test_empty_program_is_null():
    assert run("") is None


def test_last_statement_value():
    assert run("1\n2\n3") == 3
    assert run("x = 41\nx + 1") == 42


def test_for_over_range_order_and_count():
    value, out, _ = run_source("for (i : [1:6]) { print(i) }")
    assert out == "1\n2\n3\n4\n5\n"


def test_for_range_visit_count_oracle():
    rng = random.Random(3)
    for _ in range(60):
        a = rng.randrange(-10, 10)
        b = rng.randrange(-10, 15)
        src = f"count = 0\nfor (i : [{a}:{b}]) {{ count = count + 1 }}\ncount"
        assert run(src) == len(range(a, b))


def test_for_iterates_maps_as_pairs():
    _, out, _ = run_source("for (kv : { 1 : 'a', 2 : 'b' }) { print(kv.0, kv.1) }")
    assert out == "1 a\n2 b\n"


def test_for_iterates_strings_and_sets():
    _, out, _ = run_source("for (c : 'ab') { print(c) }\nfor (x : set(2,1,2)) { print(x) }")
    assert out == "a\nb\n2\n1\n"


def test_for_iterates_lazy_line_iterator():
    from conftest import fixture_path

    src = f"for (l : lines({fixture_path('lines.txt')!r})) {{ print(#|l|) }}"
    _, out, _ = run_source(src)
    assert out == "2\n4\n1\n3\n"


def test_while_and_conditional_break_continue():
    src = """
n = 0
acc = []
while (true) {
    n = n + 1
    break( n > 6 )
    continue( n % 2 == 0 )
    acc += n
}
acc
"""
    assert run(src) == [1, 3, 5]


def test_word_operators_match_symbolic_forms():
    pairs = [
        ("1 eq 1.0", True),
        ("2 gt 1", True),
        ("2 ge 2", True),
        ("1 lt 2", True),
        ("3 le 2", False),
        ("true xor false", True),
        ("true xor 1", False),
        ("not false", True),
        ("!0", True),
        ("!'text'", False),
    ]
    for src, want in pairs:
        assert run(src) is want, src


def test_if_else_chain_value():
    src = "def grade(x){ if (x > 1) { 'big' } else if (x == 1) { 'one' } else { 'small' } }"
    assert run(src + "\ngrade(5)") == "big"
    assert run(src + "\ngrade(1)") == "one"
    assert run(src + "\ngrade(0)") == "small"


def test_function_values_and_missing_params():
    assert run("fp = def(a,b){ a + b }\nfp(2,3)") == 5
    assert run("def f(x){ x }\nf()") is None


def test_named_arguments():
    assert run("def f(a,b){ a - b }\nf(b = 1, a = 10)") == 9


def test_excess_positional_raises_arity_error():
    with pytest.raises(NjexlError) as err:
        run("def f(x){ x }\nf(1,2)")
    assert err.value.kind == "ArityError"


def test_unknown_named_parameter():
    with pytest.raises(NjexlError) as err:
        run("def f(x){ x }\nf(y = 1)")
    assert err.value.kind == "UnknownParameter"


def test_splat_equivalent_to_positional():
    direct = run("def f(a,b){ [a,b] }\nf(1,2)")
    splat = run("def f(a,b){ [a,b] }\nll = [1,2]\nf(__args__ = ll)")
    assert direct == splat == [1, 2]


def test_closures_capture_frames():
    src = """
def make_counter(){
    c = 0
    def inc(){ c = c + 1 ; c }
    inc
}
ctr = make_counter()
ctr()
ctr()
ctr()
"""
    assert run(src) == 3


def test_nested_function_reads_enclosing_param():
    src = """
def outer(base){
    def add(n){ base + n }
    add(5)
}
outer(10)
"""
    assert run(src) == 15


def test_var_writes_global_even_inside_functions():
    src = """
def setup(){ var flag = 'set from inside' }
setup()
flag
"""
    assert run(src) == "set from inside"


def test_plain_assignment_stays_local():
    src = """
x = 'outer'
def mutate(){ x = 'inner' ; x }
mutate()
x
"""
    # assignment binds the nearest frame holding x: the global one here
    assert run(src) == "inner"


def test_assignment_creates_in_current_frame_when_unbound():
    src = """
def probe(){ fresh = 1 ; fresh }
probe()
#(o,:e) = eval('fresh')
e.kind
"""
    assert run(src) == "NameError"


def test_add_assign_updates_the_nearest_frame_holding_the_name():
    src = """
total = 1
def add(n){ total += n }
add(2)
add(3)
total
"""
    assert run(src) == 6
    # the inner block's += must not write the outer block's _$_
    assert run("lfold{ _$_ += lfold{ _$_ += $ * 2 }([$, 1], 0) }([10, 20], 0)") == 64


def test_add_assign_to_a_builtin_name_binds_the_current_frame():
    src = """
def f(){ size += '!' ; size }
[f(), size([1, 2])]
"""
    assert run(src) == ["builtin(size)!", 2]


def test_add_assign_to_an_unbound_name_is_name_error():
    with pytest.raises(NjexlError) as err:
        run("x = 1\n  y += x")
    assert (err.value.kind, err.value.line, err.value.col) == ("NameError", 2, 3)


# each statement of _WRITES targets a different frame: += of a global, = of a
# global, = of a fresh name, += of a builtin's name, and var
_WRITES = "g += 1 ; h = 5 ; fresh = 1 ; size += '!' ; var v = 7 ; [fresh, size]"
_WRITE_SITES = {
    "global": _WRITES,
    "function": "def f(){ %s }\nf()" % _WRITES,
    "block": "list{ %s }([1])" % _WRITES,
    "eval": "eval('%s')" % _WRITES.replace("'", "\\'"),
    "clock": "#clock{ %s }" % _WRITES,
    "module": "import '{module}' as m\nm:f()",
}


@pytest.mark.parametrize("site", sorted(_WRITE_SITES))
def test_which_frame_each_assignment_writes(site, tmp_path):
    module = tmp_path / "m.njxl"
    module.write_text("g = 100 ; h = 0\ndef f(){ %s }\n" % _WRITES)
    source = "g = 1 ; h = 0\n" + _WRITE_SITES[site].replace("{module}", str(module))
    _, _, scope = run_source(source)
    names = scope.bindings
    globals_ = {k: names[k] for k in ("g", "h", "v", "fresh", "size") if k in names}
    if site == "global":
        assert globals_ == {"g": 2, "h": 5, "v": 7, "fresh": 1, "size": "builtin(size)!"}
    elif site == "module":
        # the module's function writes its own module's frames, never the importer's
        assert globals_ == {"g": 1, "h": 0}
        module_names = {k: v for k, v in names["m"].bindings.items() if k != "f"}
        assert module_names == {"__args__": [], "g": 101, "h": 5, "v": 7}
    else:
        # fresh names and a builtin's name bind the frame the site opened
        assert globals_ == {"g": 2, "h": 5, "v": 7}


def test_return_is_optional():
    assert run("def f(){ 1 + 1 }\nf()") == 2
    assert run("def f(){ return 41 + 1 ; 'unreached' }\nf()") == 42
    assert run("def f(){ return }\nf()") is None


def test_multi_assign_pair_and_list():
    assert run("#(a,b) = (1,2)\n[a,b]".replace("(1,2)", "[1,2]")) == [1, 2]
    assert run("p = minmax([3,1,2])\n#(lo,hi) = p\n[lo,hi]") == [1, 3]


def test_multi_assign_shape_mismatch():
    with pytest.raises(NjexlError) as err:
        run("#(a,b) = [1,2,3]")
    assert err.value.kind == "DestructureError"


def test_error_capture_success_and_failure():
    value, _, scope = run_source("#(o,:e) = int('zz')\n[o, e]")
    o, e = run_source("#(o,:e) = int('zz')\n[o, e]")[0]
    assert o is None
    assert isinstance(e, ErrorValue) and e.kind == "NumberFormatError"
    o2, e2 = run("#(o,:e) = int('7')\n[o, e]")
    assert o2 == 7 and e2 is None


def test_error_capture_destructures_on_success():
    assert run("#(t,o,:e) = (1,2)".replace("(1,2)", "[1,2]") + "\n[t,o,e]") == [1, 2, None]


def test_error_capture_catches_shape_mismatch():
    got = run("#(a,b,:e) = [1,2,3]\n[a, b, e.kind]")
    assert got == [None, None, "DestructureError"]


def test_error_capture_totality_fuzz():
    rng = random.Random(41)
    atoms = ["1", "0", "'s'", "[1,2]", "missing_name", "int('x')", "1/0", "null", "{ 1 : 2 }"]
    ops = [" + ", " - ", " * ", " / ", " % ", " @ ", " <= ", " == "]
    for _ in range(500):
        parts = [rng.choice(atoms)]
        for _ in range(rng.randrange(0, 3)):
            parts.append(rng.choice(ops))
            parts.append(rng.choice(atoms))
        src = "#(o,:e) = " + "".join(parts) + "\n[o, e]"
        o, e = run(src)  # must never raise
        assert (e is None) != isinstance(e, ErrorValue)
        if isinstance(e, ErrorValue):
            assert o is None


def test_clock_block_contract():
    clock = FakeClock(250)
    value, _, _ = run_source("#(t,o) = #clock{ 1 + 1 }\n[t, o]", clock=clock)
    assert value == [250, 2]


def test_clock_propagates_errors():
    with pytest.raises(NjexlError):
        run("#clock{ 1/0 }")
    got = run("#(p,:e) = #clock{ 1/0 }\n[p, e.kind]")
    assert got == [None, "DivideByZero"]


def test_clock_real_timer_on_file_read():
    from conftest import fixture_path

    src = f"#(t,o) = #clock{{ read({fixture_path('page.txt')!r}) }}\n[t, o]"
    t, text = run_source(src, clock=None)[0]  # default real monotonic clock
    assert t > 0
    assert text.startswith("hello from the fixture page")


def test_clock_timing_scales_with_work():
    # reported only: a 10x bigger loop should rarely be cheaper; no assertion
    # beyond non-negativity, wall clocks are allowed to be noisy
    src = "def spin(k){ n = 0 ; #(t,o) = #clock{ for (i : [0:k]) { n = n + 1 } } ; t }"
    small = run_source(src + "\nspin(1000)")[0]
    large = run_source(src + "\nspin(10000)")[0]
    assert small >= 0 and large >= 0
    print(f"clock sanity: 1k adds -> {small} ns, 10k adds -> {large} ns")


def test_recursion_cap_is_catchable():
    src = """
def spin(n){ spin(n + 1) }
#(o,:e) = spin(0)
e.kind
"""
    assert run(src) == "StackOverflowError"


def test_recursion_under_nested_operators_overflows_as_a_guest_error():
    # each guest call here takes many Python frames, so the overflow may come
    # from the recursion limit before the frame cap; either way it is a guest error
    body = "f(n + 1)"
    for _ in range(15):
        body = f"1 + ({body})"
    src = f"def f(n){{ {body} }}\n"
    with pytest.raises(NjexlError) as err:
        run(src + "f(0)")
    assert err.value.kind == "StackOverflowError"
    assert err.value.line is not None and err.value.col is not None
    assert isinstance(run(src + "#(o,:e) = f(0)\ne"), ErrorValue)


def test_deterministic_given_fixed_ports():
    src = "#(t,o) = #clock{ 7 }\nprint(t, o)\nsortd([2,9,4])"
    a = run_source(src, clock=FakeClock(10))
    b = run_source(src, clock=FakeClock(10))
    assert a[0] == b[0] and a[1] == b[1]


def test_invoke_block_with_explicit_context():
    from njexl.interpreter import BlockClosure, compile_body

    program = parse_source("probe{ _ > 0 and $$[_-1] > $ }(xs)")
    block_node = program.body[0].block
    interp = Interp(default_io(out=Capture(), err=Capture(), env={}))
    scope = new_global_scope()
    closure = BlockClosure(block_node, scope, compile_body(block_node.body))
    status, value = interp.invoke_block(closure, item=2, index=2, source=[1, 3, 2])
    assert (status, value) == ("value", True)
    status, value = interp.invoke_block(closure, item=3, index=1, source=[1, 3, 2])
    assert (status, value) == ("value", False)


def test_block_implicit_variables():
    value, out, _ = run_source(
        "src = [10, 20, 30]\nlist{ print($, _, #|$$|) ; $ + _ }(src)"
    )
    assert value == [10, 21, 32]
    assert out == "10 0 3\n20 1 3\n30 2 3\n"


def test_block_shadows_outer_bindings():
    src = """
$ = 'outer'
got = list{ $ }([1])
[got[0], $]
"""
    assert run(src) == [1, "outer"]


def test_block_identity():
    assert run("list{ $ }([7])") == [7]


def test_block_skip_example():
    value = run("list{ continue( #|set($)| != #|$| ) ; $ }([[0,0,1],[0,1,2]])")
    assert value == [[0, 1, 2]]


def test_descent_probe_block():
    src = "index{ _ > 0 and $$[_-1] > $ }(%s)"
    assert run(src % "[1,3,2]") == 2
    assert run(src % "[1,2,3]") == -1


def test_import_script_module_and_cache(tmp_path):
    util = tmp_path / "util.njxl"
    util.write_text("var calls = 0\ncalls = calls + 1\ndef double(x){ x * 2 }\n")
    main = tmp_path / "main.njxl"
    main.write_text(
        "import 'util.njxl' as U\nimport 'util.njxl' as V\nprint(U:double(21))\n"
    )
    io = default_io(out=Capture(), err=Capture(), env={})
    interp = Interp(io, script_path=str(main))
    scope = new_global_scope()
    run_on_deep_stack(lambda: interp.run_source(main.read_text(), scope))
    assert io.out.getvalue() == "42\n"
    assert len(interp.module_cache) == 1  # second import reused the cache


def test_import_cycle_detected(tmp_path):
    (tmp_path / "a.njxl").write_text("import 'b.njxl' as B\n")
    (tmp_path / "b.njxl").write_text("import 'a.njxl' as A\n")
    io = default_io(out=Capture(), err=Capture(), env={})
    interp = Interp(io, script_path=str(tmp_path / "a.njxl"))
    scope = new_global_scope()
    with pytest.raises(NjexlError) as err:
        run_on_deep_stack(
            lambda: interp.run_source((tmp_path / "a.njxl").read_text(), scope)
        )
    assert err.value.kind == "ImportCycle"


def test_import_missing_module():
    with pytest.raises(NjexlError) as err:
        run("import 'no.such.module' as M")
    assert err.value.kind == "ModuleNotFound"


def test_registry_shim_parse_int():
    src = "import 'java.lang.Integer' as Int\nInt:parseInt('42')"
    assert run(src) == 42
    src2 = "import 'java.lang.Integer' as Int\n#(o,:e) = Int:parseInt('x')\ne.kind"
    assert run(src2) == "NumberFormatError"


def test_index_assignment_targets():
    assert run("d = { 1 : 'a' }\nd[2] = 'b'\nd[2]") == "b"
    assert run("xs = [1,2,3]\nxs[1] = 9\nxs") == [1, 9, 3]
    assert run("xs = [1]\nxs[0] += 9\nxs[0]") == 10
    with pytest.raises(NjexlError):
        run("xs = [1]\nxs[5] = 0")


def test_map_lookup_missing_key():
    with pytest.raises(NjexlError) as err:
        run("d = { 1 : 'a' }\nd[9]")
    assert err.value.kind == "KeyError"


def test_unbound_name_is_name_error():
    with pytest.raises(NjexlError) as err:
        run("nope + 1")
    assert err.value.kind == "NameError"


def test_eval_runs_in_child_scope():
    # assignments inside eval stay in the child frame unless var-declared
    assert run("x = 5\neval('x + 1')") == 6
    assert run("eval('var g = 3')\ng") == 3
    got = run("eval('local = 3')\n#(o,:e) = eval('local')\ne.kind")
    assert got == "NameError"


def test_eval_parse_error_catchable():
    assert run("#(o,:e) = eval('(')\ne.kind") == "ParseError"


def test_range_endpoints_must_be_integers():
    with pytest.raises(NjexlError):
        run("[1:'a']")
    with pytest.raises(NjexlError):
        run("[0:10:0]")


def test_pair_projection_via_clock():
    value = run("#clock{ 5 }.1")
    assert value == 5
