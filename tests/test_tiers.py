"""Tier 1 against tier 0: the same values, output and errors, and the same entry points.

Tier 0 is forced by thresholds that are never reached, tier 1 by thresholds
of 0 (every function and block body tiers up on its first run).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import njexl.interpreter as interpreter
from njexl import ast, codegen
from njexl.ast import dump
from njexl.codegen import generate
from njexl.errors import NjexlError, guest_error
from njexl.interpreter import Interp, new_global_scope, run_on_deep_stack
from njexl.stdlib import FakeClock, default_io
from njexl.values import stringify, tag

from conftest import Capture, corpus_path, parse_source, to_src
from test_fuzz import ATOMS, OPS, structured_programs

NEVER = float("inf")
# read at import, before --tier-up-at can patch them for a test
DEFAULTS = interpreter.BLOCK_TIER_UP_AT, interpreter.FUNCTION_TIER_UP_AT


def set_tier(monkeypatch, threshold):
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold)
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold)


def outcome(source):
    """What running source shows: value or error (kind, message, line, col), and stdout."""
    out = Capture()
    interp = Interp(default_io(out=out, err=Capture(), clock=FakeClock(10), env={}))
    try:
        value = run_on_deep_stack(lambda: interp.run_source(source, new_global_scope()))
        shown = ("value", tag(value), stringify(value))
    except (NjexlError, RecursionError) as exc:
        exc = guest_error(exc)
        shown = ("error", exc.kind, exc.message, exc.line, exc.col)
    return shown, out.getvalue()


def both_tiers(source):
    """outcome(source) in tier 0, then in tier 1."""
    with pytest.MonkeyPatch.context() as patch:
        set_tier(patch, NEVER)
        cold = outcome(source)
        set_tier(patch, 0)
        return cold, outcome(source)


def tier_1_code(node):
    """The code generated for each use of node's body (a FuncDef or
    AnonBlock) since it tiered up, None for a use that stays in tier 0."""
    return list(node.tier_1.values()) if node.heat < 0 else []


def is_tier_1(node):
    """Whether every use of the body of node, a FuncDef or AnonBlock, runs in tier 1."""
    codes = tier_1_code(node)
    return bool(codes) and all(
        code is not None and code.__code__.co_filename == "<njexl tier 1>" for code in codes
    )


def is_frameless(node):
    """Whether node's body runs as tier-1 block code that builds no frame of its own."""
    return is_tier_1(node) and all("Scope" not in code.__code__.co_names
                                   for code in tier_1_code(node))


def recording_generate(monkeypatch):
    """The FuncDef and AnonBlock nodes that interpreter.generate is asked for, in order."""
    generated = []
    generate = interpreter.generate

    def recorded(node, *args):
        generated.append(node)
        return generate(node, *args)

    monkeypatch.setattr(interpreter, "generate", recorded)
    return generated


# globals that programs read and write, printed after the program has run
PROLOGUE = "x = 1\ny = 2\ni = 7\nxs = [1, 2]\ng = 0\na = 0\ne = 0\n"
EPILOGUE = "\nprint(x, y, i, xs, g, a, e)"


def wrappings(program):
    """program as it is, as a function body, inside a loop in one, and as a
    block body, between PROLOGUE and EPILOGUE."""
    for body in (
        program,
        f"def main(n){{\n{program}\n}}\nprint(main(2))",
        f"def main(n){{\nfor (k : [0:2]) {{\n{program}\n}}\n}}\nprint(main(2))",
        f"print(lfold{{\n{program}\n}}([1, 2], 0))",
    ):
        yield PROLOGUE + body + EPILOGUE


def test_fuzz_programs_agree_in_both_tiers():
    for program in structured_programs():
        for source in wrappings(program):
            cold, hot = both_tiers(source)
            assert hot == cold, source


# a Hypothesis program strategy: nested expressions, control flow, blocks and calls
_NAMES = ["x", "y", "n", "k", "$", "_", "$$", "_$_", "xs"]
_EXPRS = st.recursive(
    st.sampled_from(ATOMS + _NAMES),
    lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from(OPS), inner),
        st.builds("({} ? {} : {})".format, inner, inner, inner),
        st.builds("not ({})".format, inner),
        st.builds("-({})".format, inner),
        st.builds("#|{}|".format, inner),
        st.builds("({})[{}]".format, inner, inner),
        st.builds("list{{ {} }}([1, 2, 3])".format, inner),
        st.builds("index{{ {} }}([3, 1, 2])".format, inner),
        st.builds("lfold{{ _$_ + {} }}([1, 2], 0)".format, inner),
        st.builds("def(a){{ a + {} }}(1)".format, inner),
        st.builds("[{}, {}]".format, inner, inner),
        st.builds("{{ 1 : {} }}".format, inner),
        st.builds("[0:{}]".format, inner),
    ),
    max_leaves=8,
)
_STMTS = st.recursive(
    st.one_of(
        _EXPRS,
        st.builds("x = {}".format, _EXPRS),
        st.builds("$ = {}".format, _EXPRS),
        st.builds("_$_ = {}".format, _EXPRS),
        st.builds("_$_ += {}".format, _EXPRS),
        st.builds("y += {}".format, _EXPRS),
        st.builds("xs[0] = {}".format, _EXPRS),
        st.builds("xs[1] += {}".format, _EXPRS),
        st.builds("var g = {}".format, _EXPRS),
        st.builds("break({})".format, _EXPRS),
        st.builds("continue({})".format, _EXPRS),
        st.builds("return {}".format, _EXPRS),
        st.builds("print({})".format, _EXPRS),
        st.builds("print({})".format, _EXPRS),
        st.sampled_from(["break", "continue", "return", "#(p,:e) = 1/0", "print(x, y, i)"]),
    ),
    lambda inner: st.one_of(
        st.builds("if ({}) {{\n{}\n}} else {{\n{}\n}}".format, _EXPRS, inner, inner),
        st.builds("for (i : [0:3]) {{\n{}\n}}".format, inner),
        st.builds("c = 0\nwhile (c < 3) {{\nc += 1\n{}\n}}".format, inner),
        st.builds("def h(a){{\n{}\n}}\nh({})".format, inner, _EXPRS),
        st.builds("list{{\n{}\n}}([4, 5])".format, inner),
        st.builds("{}\n{}".format, inner, inner),
    ),
    max_leaves=6,
)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_STMTS)
def test_generated_programs_agree_in_both_tiers(program):
    for source in wrappings(program):
        cold, hot = both_tiers(source)
        assert hot == cold, source


@pytest.mark.parametrize(
    "make, want, tier_1",
    [
        # if statements nested 200 deep
        (lambda d: "".join(f"if (n > {i}) {{ " for i in range(d)) + "n" + " }" * d, "200", False),
        # a chain of and operators nested 200 deep on the right
        (lambda d: "".join(f"n > {i} and (" for i in range(d)) + "true" + ")" * d, "true",
         False),
        # ternaries nested 200 deep
        (lambda d: "".join(f"n > {i} ? (" for i in range(d)) + "n" + ") : -1" * d, "200",
         False),
        # arithmetic nested 200 deep: its lanes open no nested suites
        (lambda d: "(1 + " * d + "n" + ")" * d, "400", True),
        # ifs nested 40 deep in a loop, around its break and continue
        (lambda d: "c = 0\nfor (j : [0:9]) { " + "if (j > 0) { " * 40
         + "continue(j == 2) ; c += j ; break(j > 3)" + " }" * 40 + " }\nc", "8", False),
        # loops nested 30 deep: past CPython's 20 statically nested blocks
        (lambda d: "c = 0\n" + "".join(f"for (i{i} : [0:1]) {{ " for i in range(30))
         + "c += 1 ; continue ; c += 10" + " }" * 30 + "\nc", "1", False),
    ],
)
def test_deeply_nested_body_gives_its_value_in_either_tier(monkeypatch, make, want, tier_1):
    # a body too deep for one generated function keeps its tier-0 code
    generated = recording_generate(monkeypatch)
    cold, hot = both_tiers(f"def f(n){{\n{make(200)}\n}}\nf(200)")
    assert hot == cold and cold[0][0] == "value" and cold[0][2] == want
    assert len(generated) == 1 and is_tier_1(generated[0]) == tier_1 and generated[0].heat == -1


def test_deep_block_body_stays_in_tier_0(monkeypatch):
    for inner, kind in (("$", "value"), ("$ / 0", "error")):
        body = "".join(f"if ($ > {i}) {{ " for i in range(40)) + inner + " + n" + " }" * 40
        source = f"n = 1\nlist{{ {body} }}([50, 3])"
        cold, hot = both_tiers(source)
        assert hot == cold and cold[0][0] == kind
    set_tier(monkeypatch, 0)
    generated = recording_generate(monkeypatch)
    outcome(source)
    assert len(generated) == 1 and not is_tier_1(generated[0]) and generated[0].heat == -1


# each construct nested as deep as one generated function allows: in a
# function body, and in a block body under a builtin's loop, whose own for
# and try suites count too
NESTINGS = {
    "for": (lambda d: "c = 0\n" + "".join(f"for (i{i} : [0:2]) {{ " for i in range(d))
            + "c += 1" + " }" * d + "\nc", 8, 7),
    # loops around a constant: ten would be past CPython's 20 nested blocks
    "for, bare": (lambda d: "".join(f"for (i{i} : [0:2]) {{ " for i in range(d)) + "1"
                  + " }" * d, 9, 8),
    "while": (lambda d: "c = 0\n" + "".join(f"w{i} = 0\nwhile (w{i} < 2) {{ w{i} += 1\n"
                                            for i in range(d)) + "c += 1" + " }" * d + "\nc", 8,
              7),
    # in a block body, n is read through the frames, which opens suites of its own
    "if": (lambda d: "".join(f"if (n > {i}) {{ " for i in range(d)) + "n" + " }" * d, 19, 14),
    "and": (lambda d: "".join(f"n > {i} and (" for i in range(d)) + "true" + ")" * d, 19, 15),
    "ternary": (lambda d: "".join(f"n > {i} ? (" for i in range(d)) + "n" + ") : -1" * d, 19,
                14),
}
# where a nested construct runs: the source around it, its node, and the use generated
NESTING_SITES = {
    "def": ("def f(n){{\n{}\n}}\nf({})", lambda program: program.body[0], None),
    "index": ("n = {1}\nindex{{\n{0}\n}}([1])", lambda program: program.body[1].block, "index"),
    "list": ("n = {1}\nlist{{\n{0}\n}}([1])", lambda program: program.body[1].block, "map"),
    "lfold": ("n = {1}\nlfold{{\n{0}\n}}([1], 0)", lambda program: program.body[1].block,
              "fold"),
}


@pytest.mark.parametrize("construct", NESTINGS)
def test_nesting_bound(monkeypatch, construct):
    make, in_function, in_loop = NESTINGS[construct]
    generated = recording_generate(monkeypatch)
    for site, (template, body_node, step) in NESTING_SITES.items():
        deepest = in_function if site == "def" else in_loop
        for depth in (deepest, deepest + 1):
            source = template.format(make(depth), depth)
            node = body_node(parse_source(source))
            # never a SyntaxError from CPython: the body generates or stays in tier 0
            generated_none = generate(node, vars(interpreter), step) is None
            assert generated_none == (depth > deepest), (site, depth)
            cold, hot = both_tiers(source)
            assert hot == cold and cold[0][0] == "value"
            assert is_tier_1(generated[-1]) == (depth == deepest) and generated[-1].heat == -1


def test_import_in_a_hot_function_body(monkeypatch):
    generated = recording_generate(monkeypatch)
    source = """Int = null
def load(){ import 'java.lang.Integer' as Int ; 1 }
n = 0
for (k : [0:40]) { n += load() }
[n, Int:parseInt('41')]"""
    cold, hot = both_tiers(source)
    assert hot == cold == (("value", "list", "[40, 41]"), "")
    cold, hot = both_tiers("def load(){ import 'no.such.Module' as M }\nload()")
    assert hot == cold and cold[0][:2] == ("error", "ModuleNotFound")
    assert len(generated) == 2 and all(map(is_tier_1, generated))


def test_each_tier_covers_the_node_kinds():
    kinds = {
        name for name, kind in vars(ast).items()
        if isinstance(kind, type) and issubclass(kind, ast.Node) and kind is not ast.Node
    }
    compiled = {kind.__name__ for kind in interpreter._COMPILERS}
    assert compiled == kinds - {"Program", "AnonBlock"}
    handlers = {name[1:] for name in vars(codegen._Generator) if name[1:2].isupper()}
    assert handlers == compiled - {"ClockBlock", "MultiAssign", "StaticCall"}


def dump_body(stmts):
    return "\n".join(map(dump, stmts))


def bodies(node):
    """Dumps of the function and block bodies in node, a syntax tree or a list."""
    found = []
    if isinstance(node, (list, tuple)):
        for item in node:
            found += bodies(item)
    elif isinstance(node, ast.Node):
        if isinstance(node, ast.FuncDef):
            found.append(dump_body(node.body))
        elif isinstance(node, ast.Call) and node.block is not None:
            found.append(dump_body(node.block.body))
        found += bodies(list(vars(node).values()))
    return found


# calls of each corpus predicate script's definitions, past the tier-up thresholds
PREDICATE_CALLS = {
    "sorted_check.njxl": "xs = [0:300].list()\n"
                         "for (k : [0:40]) { is_sorted_permutation(xs, xs) }",
    "filter_check.njxl": "xs = [0:300].list()\nys = list{ $ * 2 }(xs)\n"
                         "for (k : [0:40]) { verify_applied_filter(evens, xs, ys) }",
    "table_check.njxl": "rows = list{ [$, 'a', $ * 2] }([0:200])\n"
                        "for (k : [0:40]) { verify_tables(rows, rows, [0, 1, 2], [2, 0, 1]) }",
}


@pytest.mark.parametrize("script", PREDICATE_CALLS)
def test_paper_predicates_run_in_tier_1_once_hot(monkeypatch, script):
    # every function and block body of the paper's predicates fits one generated function
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", DEFAULTS[1])
    generated = recording_generate(monkeypatch)
    with open(corpus_path(script), encoding="utf-8") as fh:
        source = fh.read()
    assert outcome(source + "\n" + PREDICATE_CALLS[script])[0][0] == "value"
    assert all(map(is_tier_1, generated))
    wanted = bodies(parse_source(source).body)
    assert len(wanted) >= 2 and set(wanted) <= {dump_body(node.body) for node in generated}


def test_loop_signals_cross_tiers():
    # break and continue in called code or in blocks reach the loop or
    # builtin that handles them, whichever tier each side is in
    source = """
def stop(){ break }
def skip(){ continue }
out = []
for (i : [0:6]) { if (i == 1) { skip() } ; if (i == 4) { stop() } ; out += i }
kept = list{ continue($ % 2 == 0) ; break($ > 6) ; $ }([1, 2, 3, 4, 5, 7, 9])
def first(l){ index{ $ > 2 }(l) }
def ret(l){ lfold{ return 99 }(l, 0) }
[out, kept, first([1, 5, 3]), ret([1])]
"""
    cold, hot = both_tiers(source)
    assert hot == cold
    assert cold[0] == ("value", "list", "[[0, 2, 3], [1, 3, 5], 1, 99]")


def test_assignment_into_a_non_collection_fails_in_both_tiers():
    cold, hot = both_tiers("def f(x){ x[0] = 1 }\nf(5)")
    assert hot == cold == (("error", "TypeError", "cannot assign into int", 1, 11), "")


def test_a_loop_over_a_map_may_write_the_map():
    # a map is iterated over a snapshot of its pairs
    for source in ("m = {1:2}; r = list{ m[$.0 + 10] = 1 }(m)\n[r, m]",
                   "def f(m){ for (p : m) { m[p.0 + 10] = 1 } ; m }\n[[1], f({1:2})]"):
        cold, hot = both_tiers(source)
        assert hot == cold == (("value", "list", "[[1], {1 : 2, 11 : 1}]"), ""), source


# each block-taking builtin, called on l; a builtin enters its block once
# per call, a comparator once per comparison
STEP_CALLS = {
    "index": "index{{ {} }}(l)",
    "list": "list{{ {} }}(l)",
    "set": "set{{ {} }}(l)",
    "lfold": "lfold{{ {} }}(l, 0)",
    "rfold": "rfold{{ {} }}(l, 0)",
    "join": "join{{ {} }}(l)",
    "sorta": "sorta{{ {} }}(l)",
    "sortd": "sortd{{ {} }}(l)",
    "minmax": "#|l| == 0 ? null : minmax{{ {} }}(l)",  # minmax([]) is an error
}
COMPARATORS = ("sorta", "sortd", "minmax")
# the value each builtin's block body ends with
STEP_VALUES = {"index": "$ > 150", "list": "$ % 7", "set": "$ % 7", "lfold": "_$_ + $",
               "rfold": "_$_ + $", "join": "#|_$_| < 40 and $[0] % 2 == 0",
               **dict.fromkeys(COMPARATORS, "$.0 % 7 < $.1 % 7")}
# the int that each element gives the block: a join row [x] holds it, and a
# comparator's pair holds the two compared
STEP_ITEMS = {"join": "$[0]", **dict.fromkeys(COMPARATORS, "$.0")}
# what the block body runs before that value; a continue or break in a
# comparator is an error
STEP_KINDS = {
    "plain": "",
    "continue": "continue({x} % 3 == 0) ; ",
    "break": "break({x} == 120 or {x} == 200) ; ",
    "error": "{x} == 140 ? {x} / 0 : 0 ; ",
    # a signal raised in a called function reaches the builtin's loop
    "continue from a call": "skip({x}) ; ",
    "break from a call": "stop({x}) ; ",
}


def step_source(builtin, kind, framed):
    """A program calling builtin with a block of kind on lists of 0 to 300 ints."""
    item = STEP_ITEMS.get(builtin, "$")
    body = ("y = $ ; " if framed else "") + STEP_KINDS[kind].format(x=item) + STEP_VALUES[builtin]
    return f"""def skip(x){{ continue(x % 3 == 0) }}
def stop(x){{ break(x == 120 or x == 200) }}
def f(l){{ {STEP_CALLS[builtin].format(body)} }}
[f([0:5].list()), f([0:100].list()), f([0:300].list()), f([300:0:-1]), f([])]"""


@pytest.mark.parametrize("framed", [False, True], ids=["frameless", "framed"])
@pytest.mark.parametrize("kind", STEP_KINDS)
@pytest.mark.parametrize("builtin", STEP_CALLS)
@pytest.mark.parametrize("threshold", [(NEVER, NEVER), DEFAULTS, (0, 0)])
def test_builtin_loop_steps_agree_in_both_tiers(monkeypatch, threshold, builtin, kind, framed):
    # the loops of each block-taking builtin give the same values and errors
    # whichever tier runs them, tiering up before a loop or not at all
    source = step_source(builtin, kind, framed)
    with pytest.MonkeyPatch.context() as patch:
        set_tier(patch, NEVER)
        want = outcome(source)
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold[1])
    assert outcome(source) == want
    error = kind == "error" or (builtin in COMPARATORS and kind != "plain")
    assert want[0][0] == ("error" if error else "value")


def test_step_calls_reach_every_step(monkeypatch):
    set_tier(monkeypatch, NEVER)  # every loop is built by warm
    steps, warm = set(), interpreter.warm

    def recorded(node, step=None, count=1):
        steps.add(step)
        return warm(node, step, count)

    monkeypatch.setattr(interpreter, "warm", recorded)
    for builtin in STEP_CALLS:
        assert outcome(step_source(builtin, "plain", False))[0][0] == "value"
    assert steps - {None} == set(codegen.STEPS)


@pytest.mark.parametrize("threshold", [(NEVER, NEVER), DEFAULTS, (0, 0)])
def test_framed_builtin_loop_keeps_one_frame_per_element(monkeypatch, threshold):
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold[1])
    assert outcome("fs = list{ def(){ $ } }([1,2,3]); list{ $() }(fs)")[0] == (
        "value", "list", "[1, 2, 3]"
    )
    source = "fs = list{ def(){ [$, _] } }([0:300])\nlist{ $() }([fs[0], fs[299]])"
    assert outcome(source)[0] == ("value", "list", "[[0, 0], [299, 299]]")


@pytest.mark.parametrize("call, want", [
    ("index{ $ > 5 }(r)", ("value", "int", "6")),
    ("list{ break($ > 2) ; $ }(r)", ("value", "list", "[0, 1, 2]")),
    ("set{ break($ > 2) ; $ }(r)", ("value", "set", "{0, 1, 2}")),
])
@pytest.mark.parametrize("threshold", [(NEVER, NEVER), DEFAULTS, (0, 0)])
def test_a_block_over_a_range_longer_than_sys_maxsize(monkeypatch, threshold, call, want):
    # such a range has no length a Python int index can hold: its elements count as they run
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold[1])
    assert outcome(f"r = [0:1180591620717411303424]\n{call}") == (want, "")


@pytest.mark.parametrize("call", ["index{ $ < 0 }(xs)", "list{ $ + 1 }(xs)", "set{ $ % 3 }(xs)",
                                  "lfold{ _$_ + $ }(xs, 0)", "rfold{ _$_ + $ }(xs, 0)"])
def test_a_block_over_a_long_list_runs_no_element_in_tier_0(monkeypatch, call):
    # the list's length counts before the loop: the block is hot before it runs
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
    generated = recording_generate(monkeypatch)
    assert outcome(f"xs = [0:1000].list()\n{call}")[0][0] == "value"
    [block] = generated
    assert is_tier_1(block) and block.run is None  # no tier-0 code was ever built


def test_errors_keep_their_positions_in_tier_1():
    cases = [
        "def f(a){\n  a + 1\n}\nf('x') ; f(null)",
        "def f(a){ q }\nf(1)",
        "def f(a){ a[5] }\nf([1])",
        "def f(a){ a < [1] }\nf(1)",
        "def f(a){ a(1) }\nf(3)",
        "def f(a){ a{ $ }(1) }\nf(def(x){ x })",
        "def f(a){ print(__args__ = a) }\nf(1)",
        "list{ $ / 0 }([1])",
        "list{ $.name }([1])",
        "list{ [0:$] }(['a'])",
        "list{ { $ : 1 } }([[1]])",
        "lfold{ _$_ += [1] }([1], 2)",
        "list{ -$ }(['a'])",
        "list{ #|$| }([1])",
        "list{ $ @ 1 }([1])",
        "minmax{ break }([1, 2])",
    ]
    for source in cases:
        cold, hot = both_tiers(source)
        assert cold[0][0] == "error", source
        assert hot == cold, source


def test_int_lanes_take_the_same_operands_in_both_tiers(monkeypatch):
    # both tiers read the int lanes' bounds from values.INT_LANE_LOW, so the
    # same operands fall through to arith() in each
    calls = Counter()
    arith = interpreter.arith
    monkeypatch.setattr(
        interpreter, "arith", lambda op, *rest: calls.update([op]) or arith(op, *rest)
    )
    edges = "[m, m + 1, -2, -1, 0, 1, 2, 9223372036854775807]"
    source = f"""
m = -9223372036854775807 - 1
def f(a, b){{
  s = a ; s += b ; t = 'x' ; t += a
  [a + b, a - b, a * b, b == 0 ? 0 : a / b, b == 0 ? 0 : a % b, s, t]
}}
list{{ a = $ ; list{{ f(a, $) }}({edges}) }}({edges})
"""
    counted = []
    for threshold in (NEVER, 0):
        set_tier(monkeypatch, threshold)
        calls.clear()
        counted.append((outcome(source), +calls))
    assert counted[0] == counted[1]
    assert counted[0][0][0][0] == "value" and all(counted[0][1][op] for op in "+-*/%")


def test_a_loop_index_at_the_int_lane_bounds_agrees_in_both_tiers():
    # a builtin loop's _ is a plain int with known bounds in tier 1, and so is
    # _ plus or minus a literal while the bounds stay inside the int lanes
    m = "9223372036854775807"
    parts = ["_ - 1", "_ + 1", "1 - _", f"_ + {m}", f"_ - {m}", f"_ - {m} - 1", f"_ - {m} - 2",
             f"_ * {m}", "_ / 2", "_ % 2", "(_ - 1) - 1", "_ > 0 and $$[_ - 1] > $"]
    for call in ("list{{ [{}] }}([4, 5, 6])", "lfold{{ _$_ + [{}] }}([4, 5, 6], [])"):
        cold, hot = both_tiers(call.format(", ".join(parts)))
        assert hot == cold and cold[0][0] == "value", call


def count_entries(source):
    """Calls of Interp.invoke_block and Interp.call_function while source runs,
    wrapped on the class the way the benchmark's tracer wraps them."""
    counts, originals = Counter(), {}
    for name in ("invoke_block", "call_function"):
        originals[name] = original = getattr(Interp, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(Interp, name, counted)
    try:
        assert outcome(source)[0][0] == "value"
    finally:
        for name, original in originals.items():
            setattr(Interp, name, original)
    return counts


def test_entry_point_counts_are_the_same_in_both_tiers(monkeypatch):
    source = """
def fib(n){ n < 2 ? n : fib(n - 1) + fib(n - 2) }
def pick(l){ list{ t = $ ; lfold{ _$_ += (t[$] + '#') }([0, 1], '') }(l) }
rows = list{ [$, $ + 1] }([0:300])
[fib(15), #|pick(rows)|, index{ _ > 0 and $$[_-1] > $ }(list{ $ }([0:400]))]
"""
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", DEFAULTS[1])
    at_defaults = count_entries(source)
    set_tier(monkeypatch, 0)
    assert count_entries(source) == at_defaults
    # one entry per builtin loop: the two list{}s over [0:...], index{}, pick's
    # list{} and one lfold{} for each of its 300 rows
    assert at_defaults["invoke_block"] == 304 and at_defaults["call_function"] > 1000


def test_tier_1_code_looks_value_operations_up_in_the_interpreter(monkeypatch):
    calls = []
    values_equal = interpreter.values_equal
    monkeypatch.setattr(
        interpreter, "values_equal", lambda *args: calls.append(args) or values_equal(*args)
    )
    set_tier(monkeypatch, 0)
    scope = new_global_scope()
    interp = Interp(default_io(out=Capture(), err=Capture(), env={}))
    source = "def same(a, b){ a == b }\nlist{ same($, [1]) }([[1], [2]])"
    assert run_on_deep_stack(lambda: interp.run_source(source, scope)) == [True, False]
    assert is_tier_1(scope.bindings["same"].node)
    assert len(calls) == 2


def test_tier_up_thresholds(monkeypatch):
    generated = recording_generate(monkeypatch)
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", 10)
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", 3)
    interp = Interp(default_io(out=Capture(), err=Capture(), env={}))
    scope = new_global_scope()

    def run(source):
        return run_on_deep_stack(lambda: interp.run_source(source, scope))

    # a body that has not run yet has no code in either tier
    run("def m(l){ list{ $ + 1 }(l) }")
    assert scope.bindings["m"].node.run is None
    # a block's element counts add up over its builtin calls
    assert run("m([1, 2, 3, 4, 5])") == [2, 3, 4, 5, 6] and not generated
    assert run("m([1, 2, 3, 4, 5])") == [2, 3, 4, 5, 6] and len(generated) == 1
    assert is_tier_1(generated[0]) and isinstance(generated[0], ast.AnonBlock)
    # a builtin's loop is called as Interp.invoke_block calls it: the frame
    # the block was written in, the items, $$, _$_ (none here) and the sink
    out, loop = [], generated[0].tier_1["map"]
    loop(interp, scope, iter([4, 7]), [4, 7], None, out.append)
    assert out == [5, 8] and list(generated[0].tier_1) == ["map"]
    # a list's elements count before its loop: the block tiers up before it runs
    run("def m2(l){ list{ $ * 2 }(l) }")
    assert run("m2([0:12].list())") == list(range(0, 24, 2)) and len(generated) == 2
    # a function's calls are counted on its FuncDef, across the Functions made from it
    run("def mk(){ def(x){ x * 2 } }\na = mk()\nb = mk()")
    assert run("[a(1), b(2)]") == [2, 4] and len(generated) == 2
    assert run("a(3)") == 6 and len(generated) == 3 and generated[2].params == ["x"]
    assert run("b(4)") == 8 and len(generated) == 3
    # a body holding a node kind tier 1 does not cover stays in tier 0
    run("def t(){ #(o, :e) = 1 / 0 ; e.kind }")
    assert run("[t(), t(), t(), t()]") == ["DivideByZero"] * 4
    assert not is_tier_1(generated[-1]) and generated[-1].heat == -1


def test_recursion_under_nested_operators_reaches_the_frame_cap(monkeypatch):
    # each guest call takes a bounded number of Python frames once its body
    # runs in tier 1, so the 10,000-frame cap is reached before Python's limit
    from njexl import create_context, evaluate

    set_tier(monkeypatch, DEFAULTS[1])  # f tiers up as at the default threshold
    body = "f(n - 1)"
    for _ in range(15):
        body = f"1 + ({body})"
    source = f"def f(n){{ n == 0 ? 0 : {body} }}\n"
    assert evaluate(create_context(), source + "f(9999)") == 15 * 9999
    error = evaluate(create_context(), source + "f(10000)")
    assert (error.kind, error.message) == (
        "StackOverflowError", f"recursion deeper than {interpreter.MAX_CALL_DEPTH} frames"
    )


def nested_ternaries(body, depth):
    """body under depth nested `true ? (...) : 0`."""
    for _ in range(depth):
        body = f"true ? ({body}) : 0"
    return body


# recursion through a body too deep for tier 1 that exhausts Python's stack
# before the frame cap.  The innermost call_function or invoke_block maps the
# RecursionError, so the function case is placed at the call.  In the block
# case no function is called: every Python frame on eval's path is inside a
# block's run, and the error is placed at that block's { in the eval'd text.
RECURSION_ERROR_CASES = {
    "function": ("def f(n){ n == 0 ? 0 : %s }\nf(10000)"
                 % nested_ternaries("f(n - 1) + 1", 20), 184),
    "block": ('s = "lfold{ %s }([1], 0)"\neval(s)' % nested_ternaries("eval(s)", 300), 6),
}


@pytest.mark.parametrize("case", RECURSION_ERROR_CASES)
@pytest.mark.parametrize("threshold", [DEFAULTS, (0, 0)])
def test_python_recursion_error_is_a_stack_overflow(monkeypatch, threshold, case):
    from njexl import create_context, evaluate

    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold[1])
    source, col = RECURSION_ERROR_CASES[case]
    ctx = create_context()
    error = evaluate(ctx, source)
    assert (error.kind, error.message, error.line, error.col) == (
        "StackOverflowError", "call depth exceeded", 1, col
    )
    # every frame entered was left: the context runs a recursion as before
    assert ctx.interp.depth == 0
    assert evaluate(ctx, "def g(n){ n == 0 ? 0 : g(n - 1) + 1 }\ng(50)") == 50


def test_each_body_is_generated_once(monkeypatch):
    # a body nested in a hot body keeps one tier state, whichever tier of
    # the enclosing body made its Function or called its builtin
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", DEFAULTS[1])
    generated = recording_generate(monkeypatch)
    interp = Interp(default_io(out=Capture(), err=Capture(), env={}))
    scope = new_global_scope()
    source = "def f(l){ list{ t = $ ; lfold{ _$_ + t[$] }([0, 1], 0) }(l) }"
    source += "\nl = list{ [$, 1] }([0:10])\nfor (k : [0:100]) { r = f(l) }\nr"
    assert run_on_deep_stack(lambda: interp.run_source(source, scope)) == list(range(1, 11))
    assert len(generated) == len(set(generated)) == 3 and all(map(is_tier_1, generated))


def test_blocks_over_sources_of_unknown_size_tier_up(monkeypatch, tmp_path):
    # elements count as the block runs them, so a lazy source and join's
    # combinations heat a block as a list of the same length does, and it
    # tiers up at its next loop
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
    generated = recording_generate(monkeypatch)
    path = tmp_path / "lines.txt"
    path.write_text("".join(f"{i}\n" for i in range(1000)), encoding="utf-8")
    interp = Interp(default_io(out=Capture(), err=Capture(), env={}))
    scope = new_global_scope()

    def run(source):
        return run_on_deep_stack(lambda: interp.run_source(source, scope))

    for _ in range(5):
        assert run(f"#|list{{ $ + 'x' }}(lines({to_src(str(path))}))|") == 1000
    assert len(generated) == 1 and is_tier_1(generated[0])
    for _ in range(2):
        assert len(run("join{ $.0 < $.1 }([1, 2], [0:200])")) == 198 + 197
    assert len(generated) == 2 and is_tier_1(generated[1])


# (source, what it gives, whether a block in it runs frameless once tiered up)
FRAMELESS_CASES = [
    # a write to _$_ in a block given no partial goes to the outer fold's
    # frame: the block takes a frame, since _$_ is not one of its own names
    ("lfold{ index{ _$_ = 7 }([1]) ; _$_ }([1, 2], 0)", ("value", "int", "7"), False),
    ("lfold{ index{ _$_ += 1 }([1]) ; _$_ }([1, 2], 0)", ("value", "int", "2"), False),
    # a read of _$_ there goes through the frames, with no frame of its own
    ("index{ _$_ }([1])", ("error", "NameError", "'_$_' is not defined", 1, 8), True),
    # given no partial and with no _$_ in the frames, a block binds _$_ in its own frame
    ("r = index{ _$_ = $ * 10 ; _$_ > 15 }([1, 2, 3])\nr", ("value", "int", "1"), False),
    ("r = index{ _$_ = $ * 10 ; _$_ > 15 }([1, 2, 3])\n_$_",
     ("error", "NameError", "'_$_' is not defined", 2, 1), False),
    # the write walks up past a block's frame to the outer fold's
    ("lfold{ list{ index{ _$_ += $ ; false }([1, 2]) }([7]) ; _$_ }([1, 1], 100)",
     ("value", "int", "106"), False),
    # a name assigned in a block does not leak out of it
    ("index{ y = $; false }([1,2]); y", ("error", "NameError", "'y' is not defined", 1, 31),
     False),
    ("list{ $ = $ * 2 ; $ }([1,2])", ("value", "list", "[2, 4]"), True),
    # join keeps each row as given, whatever its body assigns to $
    ("join{ $ = [9] ; true }([1, 2], [3])", ("value", "list", "[[1, 3], [2, 3]]"), True),
    ("def f(){ list{ var g = $ * 10 ; $ }([1, 2]) }\nf()\ng", ("value", "int", "20"), True),
    # a native callee gets the caller's frame: eval's def captures the block's $
    ('fs = list{ eval("def(){ $ }") }([1,2,3]); list{ $() }(fs)',
     ("value", "list", "[1, 2, 3]"), False),
    # a frameless block entered past the frame cap; f(0, [0:200]) tiers it up
    ("def f(n, l){ n == 0 ? index{ $ > 5 }(l) : f(n - 1, l) }\nf(0, [0:200])\nf(9999, [1])",
     ("error", "StackOverflowError", "recursion deeper than 10000 frames", 1, 28), True),
    # join enters its block once per call, even over an empty product
    ("def f(n){ n == 0 ? join{ true }([]) : f(n - 1) }\nf(9999)",
     ("error", "StackOverflowError", "recursion deeper than 10000 frames", 1, 24), True),
]


@pytest.mark.parametrize("source, want, frameless", FRAMELESS_CASES)
@pytest.mark.parametrize("threshold", [(NEVER, NEVER), DEFAULTS, (0, 0)])
def test_frameless_blocks_keep_the_semantics_of_a_frame(
    monkeypatch, threshold, source, want, frameless
):
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold[1])
    generated = recording_generate(monkeypatch)
    assert outcome(source)[0] == want
    if threshold == (0, 0):
        blocks = [node for node in generated if isinstance(node, ast.AnonBlock)]
        assert any(map(is_frameless, blocks)) == frameless


def test_frame_decision_on_the_paper_predicates(monkeypatch):
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", DEFAULTS[1])
    generated = recording_generate(monkeypatch)
    source = """
def sorted_check(l_o){ index{ _ > 0 and $$[_-1] > $ }(l_o) }
def filter_check(P, l_F){ index{ not P($) }(l_F) }
def table_check(l, I_l){ list{ t = $ ; lfold{ _$_ += (t[$] + '#') }(I_l, '') }(l) }
xs = [0:300].list()
[sorted_check(xs), filter_check(def(x){ x >= 0 }, xs), table_check(list{ [$, 'a'] }(xs), [1, 0])[299]]
"""
    assert outcome(source)[0] == ("value", "list", "[-1, -1, a#299#]")
    # each block by its first statement, as the syntax-tree dump names it
    first = {dump(node.body[0]).split("\n")[0].rsplit(" ", 1)[0]: node for node in generated}
    assert all(map(is_tier_1, first.values()))
    assert is_frameless(first["Binary and"]) and is_frameless(first["Assign +="])
    assert not is_frameless(first["Unary not"]) and not is_frameless(first["Assign ="])
