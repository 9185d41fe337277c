"""Tier 1 against tier 0: the same values, output and errors, and the same entry points.

Tier 0 is forced by thresholds that are never reached, tier 1 by thresholds
of 0 (every function and block body tiers up on its first run).
"""

import copy
import dis
import re
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

from conftest import CORPUS, Capture, corpus_path, parse_source, to_src
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


def test_a_module_member_is_found_before_the_arguments_run():
    for source in ("import 'java.lang.Integer' as I\nI:nope(1/0)",
                   "import 'java.lang.Integer' as I\ndef f(){\n  I:nope(1/0)\n}\nf()"):
        line = source.count("\n", 0, source.index("I:nope")) + 1
        want = ("error", "NameError", "module java.lang.Integer has no member 'nope'", line,
                source.index("I:nope") - source.rfind("\n", 0, source.index("I:nope")))
        assert both_tiers(source) == ((want, ""), (want, ""))


def test_each_tier_covers_the_node_kinds():
    kinds = {
        name for name, kind in vars(ast).items()
        if isinstance(kind, type) and issubclass(kind, ast.Node) and kind is not ast.Node
    }
    handlers = {name[1:] for name in vars(codegen._Generator) if name[1:2].isupper()}
    assert handlers == kinds - {"Program", "AnonBlock"}
    # and every kind's tier-0 code is built from the emitter's template of its shape
    assert not [name for name in vars(interpreter) if name.startswith("_compile_")]


def templated_nodes(node):
    """The nodes in node, a syntax tree or a list, whose tier-0 code is a template's."""
    found = []
    if isinstance(node, (list, tuple)):
        for item in node:
            found += templated_nodes(item)
    elif isinstance(node, ast.Node):
        if type(node) is not ast.AnonBlock:
            found.append(node)
        found += templated_nodes(list(vars(node).values()))
    return found


def _other_child(child, literal):
    """A child of another kind than child's, a literal when literal, whose own
    children are literals when child's are not."""
    line, col = child.line + 5, child.col + 5
    if literal:
        return ast.Literal(line, col, "other" if isinstance(child, ast.Literal) else 2.5)
    grandchild = (ast.Identifier(line, col, "g") if any(
        isinstance(g, ast.Literal) for g in vars(child).values()) else ast.Literal(line, col, 9))
    if isinstance(child, ast.Binary):
        return ast.Unary(line, col, "-", grandchild)
    return ast.Binary(line, col, "-", grandchild, grandchild)


def mutant(node, own=True):
    """A node of node's kind with node's template_key, and everything else
    changed: texts (a digit Member name to other digits), positions, literal
    values, the kind of each non-literal child, the literal-ness of
    grandchildren (an Assign target's children among them), each body's
    statements, and the count of a list's items, a map's entries and a
    multiple assignment's targets."""
    kind = type(node)
    twin = copy.copy(node)
    twin.line, twin.col = node.line + 11, node.col + 13
    for field in kind.__match_args__[2:]:
        value = getattr(node, field)
        if value is None or field == "op":
            continue
        if field == "name" and kind is ast.Member and value.isdigit():
            value = str(int(value) + 7)
        elif isinstance(value, str):
            value += "_2"
        elif field == "target":
            value = mutant(value, own=False)
        elif field == "targets":
            value = [f"{name}_2" for name in value] + ["t_3"]
        elif field == "entries":
            value = [] if value else [(ast.Literal(1, 1, "k"), ast.Identifier(1, 1, "s"))]
        elif kind is ast.Literal:  # its value is data, of any type
            value = ("other", value)
        elif field == "args":
            value = [_other_child(arg, isinstance(arg, ast.Literal)) for arg in value]
        elif field == "named":
            value = [(f"{name}_2", _other_child(arg, isinstance(arg, ast.Literal)))
                     for name, arg in value]
        elif isinstance(value, list):  # a body, a list's items, or a FuncDef's params
            value = [] if value else [ast.Identifier(1, 1, "s")]
        else:
            literal = isinstance(value, ast.Literal)
            value = _other_child(value, literal if own else not literal)
        setattr(twin, field, value)
    return twin


def template_source(node):
    """The source of node's tier-0 template, with make()'s names numbered in
    order of first use."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codegen, "_define", lambda lines, *rest: "\n".join(lines))
        source = codegen.tier_0_template(node, vars(interpreter))
    names = {}
    return re.sub(r"\b[tckn]\d+\b", lambda m: names.setdefault(m[0], f"x{len(names)}"), source)


def assert_templates_keep_their_keys(sources):
    """Each templated node's template is the one its mutant, of the same
    template_key, gets: what a template keeps of its node, the key holds."""
    programs = []
    for source in sources:
        try:
            programs.append(parse_source(source).body)
        except NjexlError:  # a fuzz program that does not parse
            pass
    nodes = templated_nodes(programs)
    for node in nodes:
        twin = mutant(node)
        assert codegen.template_key(twin) == codegen.template_key(node), dump(node)
        assert template_source(twin) == template_source(node), dump(node)
    return len(nodes)


def test_a_template_keeps_only_what_its_key_holds():
    sources = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.njxl"))]
    sources += structured_programs()
    assert assert_templates_keep_their_keys(sources) > 7000


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_STMTS)
def test_a_generated_program_s_templates_keep_only_what_their_keys_hold(program):
    assert_templates_keep_their_keys([program])


@pytest.mark.parametrize("threshold", [(NEVER, NEVER), DEFAULTS, (0, 0)])
def test_one_shape_of_different_children_gets_its_own_values(monkeypatch, threshold):
    # a target's literal index is a grandchild of the assignment: code, not a value of its template
    monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold[0])
    monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold[1])
    source = "l = [1,2]\nl[0] = 5\ni = 1\nl[i] = 6\nl"
    assert outcome(source) == (("value", "list", "[5, 6]"), "")
    source = "def f(x){ if (x) { 1 } else { 2 } ; if (x) { 3 } }\n[f(true), f(false)]"
    assert outcome(source) == (("value", "list", "[3, null]"), "")


def test_the_templates_do_not_grow_with_a_literal_s_length():
    sizes = []
    for n in range(1, 201):
        items = ", ".join(["x"] + ["1"] * (n - 1))
        entries = ", ".join(f"{k} : x" for k in range(n))
        assert outcome(f"x = 1\n#|[{items}]| + #|{{{entries}}}|")[0] == ("value", "int", str(2 * n))
        sizes.append(len(interpreter._TEMPLATES))
    assert sizes[1:] == sizes[:1] * 199


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
    ran = {dump_body(node.body) for node in generated}
    ran |= {body for node in generated if isinstance(node, ast.AnonBlock)
            for body in inlined_bodies(node.body)}
    assert len(wanted) >= 2 and set(wanted) <= ran


def inlined_bodies(node):
    """Dumps of the block bodies that a block body holding node runs inline
    in its tier-1 code: the blocks of calls of index, list, set, lfold and
    rfold by name, with no named arguments or __args__, and theirs."""
    found = []
    if isinstance(node, (list, tuple)):
        for item in node:
            found += inlined_bodies(item)
    elif isinstance(node, ast.Node) and not isinstance(node, ast.FuncDef):
        if (isinstance(node, ast.Call) and node.block is not None and not node.named
                and node.splat is None and isinstance(node.callee, ast.Identifier)
                and node.callee.name in codegen._INLINED):
            found.append(dump_body(node.block.body))
        found += inlined_bodies(list(vars(node).values()))
    return found


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
    # both tiers' lanes come from one emitter (codegen), so the same operands
    # fall through to arith() in each
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
    """Calls of Interp.invoke_block, Interp.call_function and Interp.enter
    while source runs, wrapped on the class the way the benchmark's tracer
    wraps the first two."""
    counts, originals = Counter(), {}
    for name in ("invoke_block", "call_function", "enter"):
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
    # one entry per builtin loop: the two list{}s over [0:...], index{} and
    # pick's list{}, whose body is hot before its first loop, so its tier-1
    # code runs each row's lfold{} inline; each call of fib gives it its one
    # argument, so it enters fib's body directly, in both tiers
    assert at_defaults["invoke_block"] == 4 and at_defaults["enter"] > 1000
    assert at_defaults["call_function"] == 0
    # in tier 0 every builtin loop is entered, one lfold{} for each of pick's 300 rows too
    set_tier(monkeypatch, NEVER)
    assert count_entries(source)["invoke_block"] == 304


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
    # a body holding #(...) tiers up as any other
    run("def t(){ #(o, :e) = 1 / 0 ; e.kind }")
    assert run("[t(), t(), t(), t()]") == ["DivideByZero"] * 4
    assert is_tier_1(generated[-1]) and generated[-1].name == "t"


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


# Calls that enter their callee directly (a Function given one argument per
# parameter), the calls beside them that do not, and the block-taking
# builtins they call or run in.  Each outcome is what the code gave when
# every call went through Interp.call_function, at each threshold below.
CALL_CASES = [
    # each step builtin with a block, the folds with and without a partial
    ('lfold{ _$_ + $ }([1, 2, 3], 0)', ('value', 'int', '6')),
    ("lfold{ _$_ + $ }(['a', 'b', 'c'], '')", ('value', 'str', 'abc')),
    ("rfold{ _$_ + $ }(['a', 'b', 'c'], '')", ('value', 'str', 'cba')),
    ('[lfold{ $ }([1, 2]), rfold{ $ }([1, 2]), lfold{ _$_ }([1, 2])]',
     ('value', 'list', '[2, 1, null]')),
    ('index{ $ > 1 }([0, 1, 2, 3])', ('value', 'int', '2')),
    ('index{ $ > 5 }([0, 1])', ('value', 'int', '-1')),
    ('list{ $ * 2 }([1, 2])', ('value', 'list', '[2, 4]')),
    ('set{ $ % 2 }([1, 2, 3])', ('value', 'set', '{1, 0}')),
    ("list{ [_, $$] }('ab')", ('value', 'list', '[[0, ab], [1, ab]]')),
    ('set{ [$] }([1])', ('value', 'set', '{[1]}')),
    ('lfold{ _$_ + $ }([0:5], 0)', ('value', 'int', '10')),
    ('rfold{ _$_ + [$] }({1: 2, 3: 4}, [])', ('value', 'list', '[[(3, 4)], [(1, 2)]]')),
    ("def f(l){ list{ t = $ ; lfold{ _$_ += (t[$] + '#') }([1, 0], '') }(l) }\n"
     "f([[1, 'a'], [2, 'b']])",
     ('value', 'list', '[a#1#, b#2#]')),
    # the fold iterates a snapshot; a map sees the write
    ('l = [1, 2, 3]\n[lfold{ l[2] = 100 ; _$_ + $ }(l, 0), l]',
     ('value', 'list', '[6, [1, 2, 100]]')),
    ('l = [1, 2, 3]\nlist{ l[2] = 100 ; $ }(l)', ('value', 'list', '[1, 2, 100]')),
    ('l = [1, 2]\n[lfold{ l += [9] ; _$_ + $ }(l, 0), l]',
     ('value', 'list', '[3, [1, 2, [9], [9]]]')),
    # return, break and continue in a block the call enters directly
    ('def f(){ lfold{ return 7 }([1], 0) ; 8 }\nf()', ('value', 'int', '7')),
    ("def f(l){ index{ if ($ == 2) { return 'two' } ; false }(l) }\n[f([1, 2]), f([3])]",
     ('value', 'list', '[two, -1]')),
    ('lfold{ break(_ == 2) ; _$_ + $ }([1, 2, 3, 4], 0)', ('value', 'int', '3')),
    ('lfold{ continue($ == 2) ; _$_ + $ }([1, 2, 3], 0)', ('value', 'int', '4')),
    ('list{ continue($ == 2) ; $ }([1, 2, 3])', ('value', 'list', '[1, 3]')),
    ('set{ break($ == 3) ; $ }([1, 2, 3])', ('value', 'set', '{1, 2}')),
    ('index{ continue(_ == 0) ; true }([5, 6])', ('value', 'int', '1')),
    ('rfold{ break($ == 1) ; _$_ + $ }([1, 2, 3], 0)', ('value', 'int', '5')),
    # the builtins' own errors, at the call
    ('x = 5\nlfold{ $ }(x, 0)', ('error', 'TypeError', 'lfold cannot iterate a int', 2, 1)),
    ('def f(x){ rfold{ $ }(x) }\nf(null)',
     ('error', 'TypeError', 'rfold cannot iterate a null', 1, 11)),
    ('index{ $ }(true)', ('error', 'TypeError', 'index cannot iterate a bool', 1, 1)),
    ('list{ $ }(1.5)', ('error', 'TypeError', 'list cannot iterate a float', 1, 1)),
    ('set{ $ }(2)', ('error', 'TypeError', 'set cannot iterate a int', 1, 1)),
    ('lfold{ 1 / $ }([1, 0], 0)', ('error', 'DivideByZero', 'integer division by zero', 1, 8)),
    ('lfold{ $ }([1], 0, 1)', ('error', 'ArityError', 'lfold takes 1..2 arguments, got 3', 1, 1)),
    ('lfold{ $ }([1], p = 1)',
     ('error', 'UnknownParameter', 'lfold takes no named arguments', 1, 1)),
    ('lfold{ $ }([1], 0, 1, p = 1)',
     ('error', 'UnknownParameter', 'lfold takes no named arguments', 1, 1)),
    ('lfold([1], 0)', ('error', 'TypeError', 'lfold needs a {...} block', 1, 1)),
    ('index{ $ }([1], 2)', ('error', 'ArityError', 'index takes 1 arguments, got 2', 1, 1)),
    ('list{ $ }()', ('error', 'ArityError', 'list takes 1 arguments, got 0', 1, 1)),
    ('set{ $ }([1], [2])', ('error', 'ArityError', 'set takes 1 arguments, got 2', 1, 1)),
    ('lfold{ $ }()', ('error', 'ArityError', 'lfold takes 1..2 arguments, got 0', 1, 1)),
    ('l = [1]\nlfold{ $ }(__args__ = [l, 0])', ('value', 'int', '1')),
    ('l = [1]\nlfold{ $ }(__args__ = 5)',
     ('error', 'TypeError', '__args__ must be a list, got int', 2, 1)),
    # a step builtin's name bound to something else
    ('lfold = def(a, b){ a + b }\nlfold(1, 2)', ('value', 'int', '3')),
    ('lfold = def(a){ a }\nlfold{ $ }([1])',
     ('error', 'TypeError', 'function <anon> does not take a block', 2, 1)),
    ('def lfold(a){ a }\nlfold{ $ }([1])',
     ('error', 'TypeError', 'function lfold does not take a block', 2, 1)),
    ('def f(){ list = def(x){ [x] } ; list(3) }\nf()', ('value', 'list', '[3]')),
    ('index = 5\nindex{ $ }([1])', ('error', 'TypeError', 'int is not callable', 2, 1)),
    ('f = lfold\nf{ _$_ + $ }([1, 2], 0)', ('value', 'int', '3')),
    # guest calls of every shape
    ('def f(a, b){ [a, b] }\n[f(1, 2), f(1), f()]',
     ('value', 'list', '[[1, 2], [1, null], [null, null]]')),
    ('def f(a, b){ a - b }\n[f(b = 1, a = 3), f(4, b = 1), f(__args__ = [4, 1])]',
     ('value', 'list', '[2, 3, 3]')),
    ('def f(a, b){ a - b }\nf(1, 2, 3)',
     ('error', 'ArityError', 'f takes 2 arguments, got 3', 2, 1)),
    ('def f(a){ a }\nf(b = 1)', ('error', 'UnknownParameter', "f has no parameter 'b'", 2, 1)),
    ('def f(a){ a }\nf(__args__ = 1)',
     ('error', 'TypeError', '__args__ must be a list, got int', 2, 1)),
    ('def f(){ 9 }\nf()', ('value', 'int', '9')),
    ('def f(a, a){ a }\nf(1, 2)', ('value', 'int', '2')),
    ('g = def(x){ x * 2 }\n[g(2), def(y){ y + 1 }(2)]', ('value', 'list', '[4, 3]')),
    ('def f(x){ if (x > 0) { return x } ; -x }\n[f(2), f(-3)]', ('value', 'list', '[2, 3]')),
    ('def f(n){ n <= 0 ? 0 : n + f(n - 1) }\nf(100)', ('value', 'int', '5050')),
    ('def f(x){ x }\nf{ $ }(1)', ('error', 'TypeError', 'function f does not take a block', 2, 1)),
    ('x = 3\nx(1)', ('error', 'TypeError', 'int is not callable', 2, 1)),
    ('null(1)', ('error', 'TypeError', 'null is not callable', 1, 1)),
    ('def mk(k){ def(x){ x + k } }\nadd = mk(10)\nlist{ add($) }([1, 2])',
     ('value', 'list', '[11, 12]')),
    ("def f(x){ eval('x = 5') ; x }\nf(1)", ('value', 'int', '5')),
    ('P = def(x){ x % 2 == 0 }\n[index{ not P($) }([2, 4, 5]), index{ not P($) }([2, 4])]',
     ('value', 'list', '[2, -1]')),
    # the frame cap through both entries
    ('def g(n){ n == 0 ? 0 : lfold{ g(n - 1) }([1], 0) }\ng(4999)', ('value', 'int', '0')),
    ('def g(n){ n == 0 ? 0 : lfold{ g(n - 1) }([1], 0) }\ng(5000)',
     ('error', 'StackOverflowError', 'recursion deeper than 10000 frames', 1, 31)),
    ('def g(n){ n == 0 ? 0 : lfold{ g(n - 1) }([1], 0) }\n#(v, :e) = g(5000)\n[v, e.kind, g(3)]',
     ('value', 'list', '[null, StackOverflowError, 0]')),
    ('def down(n){ if (n == 0) { return 0 }\n1 + down(n - 1) }\ndown(9999)',
     ('value', 'int', '9999')),
    ('def down(n){ if (n == 0) { return 0 }\n1 + down(n - 1) }\ndown(10000)',
     ('error', 'StackOverflowError', 'recursion deeper than 10000 frames', 2, 5)),
]


@pytest.mark.parametrize("threshold", [NEVER, 0, 1, DEFAULTS])
@pytest.mark.parametrize("source, want", CALL_CASES)
def test_direct_calls_keep_every_outcome(monkeypatch, threshold, source, want):
    if threshold == DEFAULTS:
        monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
        monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", DEFAULTS[1])
    else:
        set_tier(monkeypatch, threshold)
    assert outcome(source) == (want, "")


def function_calls(source, scope=None):
    """The stringified value of source, run in scope, and how many calls went
    through Interp.call_function while it ran."""
    count = 0
    call_function = Interp.call_function

    def called(*args):
        nonlocal count
        count += 1
        return call_function(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Interp, "call_function", called)
        interp = Interp(default_io(out=Capture(), err=Capture(), env={}))
        scope = new_global_scope() if scope is None else scope
        value = run_on_deep_stack(lambda: interp.run_source(source, scope))
    return stringify(value), count


@pytest.mark.parametrize("threshold", [NEVER, 0])
def test_calls_with_one_argument_per_parameter_skip_call_function(monkeypatch, threshold):
    set_tier(monkeypatch, threshold)
    source = """def f(a, b){ a + b }
g = def(){ 1 }
[f(1, 2), g(), list{ f($, 1) }([1, 2])]"""
    assert function_calls(source) == ("[3, 1, [2, 3]]", 0)
    # fewer, named or __args__ arguments are bound by call_function
    source = """def f(a, b){ [a, b] }
[f(1), f(1, b = 2), f(__args__ = [1, 2])]"""
    assert function_calls(source) == ("[[1, null], [1, 2], [1, 2]]", 3)


@pytest.mark.parametrize("threshold", [NEVER, 0, 1, DEFAULTS])
def test_a_native_bound_to_a_block_builtin_s_name_is_called_as_itself(monkeypatch, threshold):
    from njexl.stdlib import default_registry

    if threshold == DEFAULTS:
        monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
        monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", DEFAULTS[1])
    else:
        set_tier(monkeypatch, threshold)
    parse_int = default_registry()["java.lang.Integer"].bindings["parseInt"]
    for name in ("index", "list", "set", "lfold", "rfold"):
        scope = new_global_scope()
        scope.bindings[name] = parse_int
        assert function_calls(f"{name}{{ $ }}('42')", scope)[0] == "42"
        with pytest.raises(NjexlError, match="parseInt takes 1 arguments, got 2"):
            function_calls(f"{name}{{ $ }}('42', 0)", scope)


@pytest.mark.parametrize("threshold", [NEVER, 0])
def test_a_position_less_error_in_a_block_takes_the_builtin_call_s(monkeypatch, tmp_path, threshold):
    # a module whose top level breaks fails without a position; from a block it
    # takes the position of the builtin's call, under its own name or another
    set_tier(monkeypatch, threshold)
    path = tmp_path / "m.njxl"
    path.write_text("break\n", encoding="utf-8")
    imported = f"import {to_src(str(path))} as m"
    error = ("error", "SyntaxError", "'break' outside a loop")
    assert outcome(f"x = 1\n lfold{{ {imported} }}([1], 0)")[0] == (*error, 2, 2)
    assert outcome(f"def f(){{ index{{ {imported} }}([1]) }}\n f()")[0] == (*error, 1, 10)
    assert outcome(f"def f(){{ g = set ; g{{ {imported} }}([1]) }}\n f()")[0] == (*error, 1, 20)
    assert outcome(f"def f(){{ {imported} }}\n f()")[0] == (*error, None, None)


# Calls of index, list, set, lfold and rfold with a block, in a block body
# hot before its first loop: its tier-1 code runs the builtin inline when the
# callee is that builtin.  Each outcome is what the generic call gave, the
# builtin's own code and Interp.invoke_block, at each threshold below.
INLINE_CASES = [
    # break and continue in the inner body
    ('list{ index{ continue($ == 1) ; break($ == 3) ; $ > 1 }([0, 1, 2, 3]) }([0:130])[129]',
     ('value', 'int', '2')),
    ('list{ index{ continue($ == 1) ; break($ == 2) ; $ > 5 }([0, 1, 2, 3]) }([0:130])[129]',
     ('value', 'int', '-1')),
    ('list{ list{ continue($ == 1) ; break($ == 3) ; $ * 2 }([0, 1, 2, 3, 4]) }([0:130])[129]',
     ('value', 'list', '[0, 4]')),
    ('list{ set{ continue($ == 1) ; break($ == 3) ; $ % 2 }([0, 1, 2, 3, 4]) }([0:130])[129]',
     ('value', 'set', '{0}')),
    ('list{ lfold{ continue($ == 1) ; break($ == 3) ; _$_ + $ }([0, 1, 2, 3, 4], 10) }([0:130])'
     '[129]', ('value', 'int', '12')),
    ('list{ rfold{ continue($ == 3) ; break($ == 1) ; _$_ + $ }([0, 1, 2, 3, 4], 10) }([0:130])'
     '[129]', ('value', 'int', '16')),
    # return in an inner block under a function
    ('def f(l){ list{ index{ return [_, $] }([5]) }(l) ; 8 }\nf([0:130])',
     ('value', 'list', '[0, 5]')),
    ('def f(l){ list{ list{ return $ }([6]) }(l) ; 8 }\nf([0:130])', ('value', 'int', '6')),
    ('def f(l){ list{ set{ return $ }([6]) }(l) ; 8 }\nf([0:130])', ('value', 'int', '6')),
    ('def f(l){ list{ lfold{ return _$_ }([1], 7) }(l) ; 8 }\nf([0:130])', ('value', 'int', '7')),
    ('def f(l){ list{ rfold{ return $ }([1, 2]) }(l) ; 8 }\nf([0:130])', ('value', 'int', '2')),
    # a source that cannot be iterated: the builtin's error, at the call
    ('list{ index{ $ }(true) }([0:130])',
     ('error', 'TypeError', 'index cannot iterate a bool', 1, 7)),
    ('list{ \n list{ $ }(1.5) }([0:130])',
     ('error', 'TypeError', 'list cannot iterate a float', 2, 2)),
    ('list{ set{ $ }(2) }([0:130])', ('error', 'TypeError', 'set cannot iterate a int', 1, 7)),
    ('list{ x = $ ; lfold{ $ }(x, 0) }([0:130])',
     ('error', 'TypeError', 'lfold cannot iterate a int', 1, 15)),
    ('list{ rfold{ $ }(null) }([0:130])',
     ('error', 'TypeError', 'rfold cannot iterate a null', 1, 7)),
    # the name rebound to a guest function or to another builtin
    ('lfold = def(a, b){ a + b }\nlist{ lfold{ $ }([1], 0) }([0:130])',
     ('error', 'TypeError', 'function <anon> does not take a block', 2, 7)),
    ('def index(a){ a }\nlist{ index{ $ }([1]) }([0:130])',
     ('error', 'TypeError', 'function index does not take a block', 2, 7)),
    ('lfold = rfold\nlist{ lfold{ _$_ + [$] }([1, 2], []) }([0:130])[129]',
     ('value', 'list', '[[2], [1]]')),
    ('set = list\nlist{ set{ $ % 2 }([1, 2, 3]) }([0:130])[129]', ('value', 'list', '[1, 0, 1]')),
    ('list{ list = index ; list{ $ > 1 }([1, 2]) }([0:130])[129]', ('value', 'int', '1')),
    # set sinks duplicates by value
    ('list{ set{ $ % 2 }([1, 2, 3, 4]) }([0:130])[129]', ('value', 'set', '{1, 0}')),
    ("list{ set{ [$ % 2, 'a'] }([1, 2, 3, 1]) }([0:130])[129]",
     ('value', 'set', '{[1, a], [0, a]}')),
    ("list{ set{ $ }([1, 1.0, 'a', 'a']) }([0:130])[129]", ('value', 'set', '{1, a}')),
    # a source the body mutates: a fold iterates a snapshot, list{} the live list
    ('list{ l = [1, 2, 3] ; [lfold{ l[2] = 100 ; l += [9] ; _$_ + $ }(l, 0), l] }([0:130])[129]',
     ('value', 'list', '[6, [1, 2, 100, [9], [9], [9]]]')),
    ('list{ l = [1, 2, 3] ; [rfold{ l[0] = 100 ; _$_ + $ }(l, 0), l] }([0:130])[129]',
     ('value', 'list', '[6, [100, 2, 3]]')),
    ('list{ l = [1, 2] ; [list{ if (_ < 2) { l += [9] } ; $ }(l), l] }([0:130])[129]',
     ('value', 'list', '[[1, 2, [9], [9]], [1, 2, [9], [9]]]')),
    # nested inline calls; the outer frame's names read and written inside
    ('list{ t = $ ; lfold{ _$_ + lfold{ _$_ + t + $ }([1, 2], 0) }([0, 1], 0) }([0:130])[129]',
     ('value', 'int', '522')),
    ('lfold{ _$_ + index{ $ > _$_ }([0, 1, 3, 6, 10]) }([0:130], 0)', ('value', 'int', '9')),
    ('lfold{ index{ _$_ += 1 ; false }([1, 2]) ; _$_ + $ }([0:130], 0)',
     ('value', 'int', '8645')),
    ('list{ t = $ ; fs = list{ def(){ [$, t] } }([1, 2]) ; fs[1]() }([0:130])[129]',
     ('value', 'list', '[2, 129]')),
    ('list{ lfold{ var g = $ ; _$_ }([1, 2], 0) ; g }([0:130])[129]', ('value', 'int', '2')),
    ('index{ lfold{ _$_ + $ }([$, 1], 0) > 100 }([0:130])', ('value', 'int', '100')),
    # the frame cap through a function, its list{} and the lfold{} inside,
    # reached at each of the three
    ('def g(n){ n == 0 ? 0 : list{ lfold{ g(n - 1) }([1], 0) }([1])[0] }\ng(3333)',
     ('value', 'int', '0')),
    ('def g(n){ n == 0 ? 0 : list{ lfold{ g(n - 1) }([1], 0) }([1])[0] }\ng(3334)',
     ('error', 'StackOverflowError', 'recursion deeper than 10000 frames', 1, 28)),
    ('def g(n){ n == 0 ? 0 : list{ lfold{ g(n - 1) }([1], 0) }([1])[0] }\nlist{ g(3334) }([1])',
     ('error', 'StackOverflowError', 'recursion deeper than 10000 frames', 1, 37)),
    ('def g(n){ n == 0 ? 0 : list{ lfold{ g(n - 1) }([1], 0) }([1])[0] }\n'
     'list{ list{ g(3333) }([1]) }([1])',
     ('error', 'StackOverflowError', 'recursion deeper than 10000 frames', 1, 35)),
]


def set_threshold(monkeypatch, threshold):
    """Both tier-up thresholds at threshold, or at their defaults for DEFAULTS."""
    if threshold == DEFAULTS:
        monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", DEFAULTS[0])
        monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", DEFAULTS[1])
    else:
        set_tier(monkeypatch, threshold)


@pytest.mark.parametrize("threshold", [NEVER, 0, 1, DEFAULTS])
@pytest.mark.parametrize("source, want", INLINE_CASES)
def test_block_builtins_run_inline_keep_every_outcome(monkeypatch, threshold, source, want):
    set_threshold(monkeypatch, threshold)
    assert outcome(source) == (want, "")


# run 40 times: past FUNCTION_TIER_UP_AT, so the function body below runs in tier 1
HOT = "\nfor (k : [0:40]) { r = %s }\nr"
# 200,001 lists deep: its key takes more frames than Python's recursion limit
DEEP = "a = lfold{ [_$_] }([0:200000], [])\n"

# #clock{} and #(...) in a hot function body and in an inner block that runs
# inline.  Each outcome is what tier 0 gives, at each threshold below.
CLOCK_AND_CAPTURE_CASES = [
    # the clock's pair and its frame: a name it assigns is its own, unless a
    # frame outside binds it (x, g below); a capture of each outcome
    ('def f(x){ c = #clock{ y = x * 2 ; y + 1 } ; #(v, :e) = 12 / x ; [c, v, e] }'
     + HOT % '[f(4), f(0)]',
     ('value', 'list',
      '[[(10, 9), 3, null], [(10, 1), null, DivideByZero: integer division by zero]]')),
    ('def f(x){ #clock{ x = 5 ; def h(){ 3 } ; var g = h() } ; [x, g] }' + HOT % 'f(1)',
     ('value', 'list', '[5, 3]')),
    ('def f(x){ #clock{ y = x } ; y }' + HOT % 'f(1)',
     ('error', 'NameError', "'y' is not defined", 1, 29)),
    # split, whole under a capture of one target, and _destructure's errors
    ('def f(l){ #(a, b) = l ; #(c, :e) = l ; #(p, q, :e2) = l ; [a, b, c, e, p, q, e2] }'
     + HOT % 'f([1, 2])', ('value', 'list', '[1, 2, [1, 2], null, 1, 2, null]')),
    ('def f(l){ #(p, q, :e) = l ; [p, q, e.kind, e.message] }' + HOT % '[f(5), f([1, 2, 3])]',
     ('value', 'list', '[[null, null, DestructureError, cannot split int into 2 values], '
      '[null, null, DestructureError, expected 2 values, got 3]]')),
    ('def f(l){ 1 ;\n  #(a, b) = l ; a }' + HOT % 'f([1, 2])' + '\nf(5)',
     ('error', 'DestructureError', 'cannot split int into 2 values', 2, 3)),
    ('def f(l){ 1 ;\n  #(a, b) = l ; a }' + HOT % 'f([1, 2])' + '\nf([1, 2, 3])',
     ('error', 'DestructureError', 'expected 2 values, got 3', 2, 3)),
    # break, continue and return inside both
    ('def f(l){ s = 0\nfor (x : l) {\n  t = #clock{ continue(x == 2) ; break(x == 4) ; x * 10 }\n'
     '  #(v, :e) = t.1 / (x - 3)\n  s += e == null ? v : 1000\n}\ns }'
     + HOT % 'f([0, 1, 2, 3, 4, 5])', ('value', 'int', '995')),
    ("def f(x){ #(v, :e) = #clock{ if (x > 1) { return 'big' } ; x } ; [v, e] }"
     + HOT % '[f(1), f(2)]', ('value', 'list', '[[(10, 1), null], big]')),
    ('def f(l){ #(v, :e) = lfold{ break($ == 3) ; _$_ + $ }(l, 0)\n'
     '#(w, :e2) = list{ continue($ == 2) ; $ }(l) ; [v, w, e] }' + HOT % 'f([1, 2, 3, 4])',
     ('value', 'list', '[3, [1, 3, 4], null]')),
    ('def f(l){ while (true) { #(v, :e) = #clock{ break } } ; 7 }' + HOT % 'f(1)',
     ('value', 'int', '7')),
    # a captured RecursionError, in the last run only
    (DEEP + 'def f(x){ #(v, :e) = x ? a == a : 0 ; [v, e] }' + HOT % 'f(false)' + '\nf(true)',
     ('value', 'list', '[null, StackOverflowError: evaluation nested too deeply]')),
    (DEEP + 'list{ #(v, :e) = $ == 129 ? a == a : 0 ; [v, e] }([0:130])[129]',
     ('value', 'list', '[null, StackOverflowError: evaluation nested too deeply]')),
    # the same in an inner block that runs inline
    ('list{ t = $ ; lfold{ #(v, :e) = t / $ ; c = #clock{ _$_ + (e == null ? v : 100) } ; c.1 }'
     '([0, 1, 2], 0) }([0:130])[129]', ('value', 'int', '293')),
    ('list{ t = $ ; list{ c = #clock{ [$ + _, t] } ; #(a, b, :e) = c.1 ; #(w, :e2) = 1 / $ ;'
     ' [c.0, a, b, e, w, e2] }([0, 1]) }([0:130])[129]',
     ('value', 'list', '[[10, 0, 129, null, null, DivideByZero: integer division by zero], '
      '[10, 2, 129, null, 1, null]]')),
    ('list{ index{ #(a, b) = $ ; a > b }([[1, 2], 5]) }([0:130])',
     ('error', 'DestructureError', 'cannot split int into 2 values', 1, 14)),
    ('list{ lfold{ c = #clock{ continue($ == 1) ; break($ == 3) ; $ } ; _$_ + c.1 }'
     '([0, 1, 2, 3, 4], 10) }([0:130])[129]', ('value', 'int', '12')),
    ('def f(l){ list{ index{ #(v, :e) = #clock{ return [$, _] } }([5]) }(l) ; 8 }\nf([0:130])',
     ('value', 'list', '[5, 0]')),
    (DEEP + 'list{ t = $ ; lfold{ #(v, :e) = t == 129 ? a == a : 0 ; e }([1], 0) }([0:130])[129]',
     ('value', 'error', 'StackOverflowError: evaluation nested too deeply')),
]


@pytest.mark.parametrize("threshold", [NEVER, 0, 1, DEFAULTS])
@pytest.mark.parametrize("source, want", CLOCK_AND_CAPTURE_CASES)
def test_clock_and_error_capture_keep_every_outcome(monkeypatch, threshold, source, want):
    set_threshold(monkeypatch, threshold)
    generated = recording_generate(monkeypatch)
    assert outcome(source) == (want, "")
    if threshold == 0:  # every body holding them ran in tier 1
        assert generated and all(map(is_tier_1, generated))


@pytest.mark.parametrize("threshold", [NEVER, 0, 1, DEFAULTS])
def test_a_hot_block_body_calls_a_native_bound_to_a_block_builtin_s_name(monkeypatch, threshold):
    from njexl.stdlib import BUILTINS, default_registry

    set_threshold(monkeypatch, threshold)
    parse_int = default_registry()["java.lang.Integer"].bindings["parseInt"]
    for name in ("index", "list", "set", "lfold", "rfold"):
        scope = new_global_scope()
        scope.bindings[name], scope.bindings["each"] = parse_int, BUILTINS["list"]
        assert function_calls(f"each{{ {name}{{ $ }}('42') }}([0:130])[129]", scope)[0] == "42"
        with pytest.raises(NjexlError, match="parseInt takes 1 arguments, got 2"):
            function_calls(f"each{{ {name}{{ $ }}('42', 0) }}([0:130])", scope)


@pytest.mark.parametrize("threshold", [NEVER, 0, 1, DEFAULTS])
def test_an_inlined_block_s_position_less_error_takes_the_call_s(monkeypatch, tmp_path, threshold):
    set_threshold(monkeypatch, threshold)
    path = tmp_path / "m.njxl"
    path.write_text("break\n", encoding="utf-8")
    imported = f"import {to_src(str(path))} as m"
    error = ("error", "SyntaxError", "'break' outside a loop")
    for call in ("index{{ {} }}([1])", "list{{ {} }}([1])", "set{{ {} }}([1])",
                 "lfold{{ {} }}([1], 0)", "rfold{{ {} }}([1])"):
        source = f"list{{\n  {call.format(imported)} }}([0:130])"
        assert outcome(source)[0] == (*error, 2, 3), call


def test_a_call_that_cannot_run_inline_keeps_the_generic_call(monkeypatch):
    # the list{} body calls lfold when its block nests too deep to inline,
    # and still runs in tier 1; a #clock or #(...) in the block is inlined
    set_tier(monkeypatch, 0)
    generated = recording_generate(monkeypatch)
    for inner in ("#clock{ 1 }", "#(o, :e) = 1 / 0"):
        source = f"list{{ lfold{{ {inner} ; _$_ + $ }}([$, 1], 0) }}([1, 2])"
        assert outcome(source)[0] == ("value", "list", "[2, 3]")
        [outer] = generated
        assert is_tier_1(outer)
        generated.clear()
    source = f"list{{ lfold{{ {nested_ternaries('_$_ + $', 14)} }}([$, 1], 0) }}([1, 2])"
    assert outcome(source)[0] == ("value", "list", "[2, 3]")
    outer, folded = generated
    assert is_tier_1(outer) and is_tier_1(folded)


def test_names_and_numbers_in_the_text_add_no_templates():
    # a digit Member is keyed by isdigit() alone: each k below gives the same shapes
    def run(k):
        source = f"p = [0:300].list()\nx{k} = {k}\n"
        source += (f"[p.{k}, lfold{{ _$_ + $ }}(p, {k}), rfold{{ $ }}(p), index{{ $ == {k} }}(p),"
                   f" list{{ $ }}(p).{k}, set{{ $ % {k + 1} }}(p), x{k}]")
        values = [k, sum(range(300)) + k, 0, k, k, f"{{{', '.join(map(str, range(k + 1)))}}}", k]
        assert outcome(source) == (("value", "list", stringify(values)), "")

    run(0)
    run(1)
    size = len(interpreter._TEMPLATES)
    for k in range(2, 300):
        run(k)
    assert len(interpreter._TEMPLATES) == size


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
    assert is_frameless(first["Binary and"])
    assert not is_frameless(first["Unary not"]) and not is_frameless(first["Assign ="])
    # the table's lfold{} runs inline in its list{}'s code, frameless: that
    # code makes one frame per row, the list{} body's own, and no other
    assert "Assign +=" not in first
    [table] = tier_1_code(first["Assign ="])
    assert sum(op.argval == "Scope" for op in dis.get_instructions(table)) == 1
