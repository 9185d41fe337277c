import inspect
import random

import pytest

from njexl import ast
from njexl.ast import dump
from njexl.errors import NjexlError
from njexl.lexer import tokenize
from njexl.parser import parse_expression

from conftest import CORPUS, parse_source
from test_fuzz import structured_programs


def expr(source, aliases=()):
    return parse_expression(tokenize(source), aliases)


def test_precedence_canon():
    node = expr("1 + 2 * 3")
    assert isinstance(node, ast.Binary) and node.op == "+"
    assert isinstance(node.right, ast.Binary) and node.right.op == "*"


def test_single_literal_program():
    program = parse_source("42")
    assert len(program.body) == 1
    assert isinstance(program.body[0], ast.Literal)
    assert program.body[0].value == 42


def test_ternary_is_right_associative():
    node = expr("a ? b : c ? d : e")
    assert isinstance(node, ast.Ternary)
    assert isinstance(node.orelse, ast.Ternary)
    assert isinstance(node.then, ast.Identifier)


def test_fizzbuzz_ternary_shape():
    node = expr("r @ fb_hash ? fb_hash[r] : i")
    assert isinstance(node, ast.Ternary)
    assert isinstance(node.cond, ast.Binary) and node.cond.op == "@"
    assert isinstance(node.then, ast.Index)
    assert isinstance(node.orelse, ast.Identifier)


def test_minmax_multi_assign_shape():
    program = parse_source("#(min,MAX) = minmax{ size($.0) < size($.1) }( line_range )")
    stmt = program.body[0]
    assert isinstance(stmt, ast.MultiAssign)
    assert stmt.targets == ["min", "MAX"]
    assert stmt.capture is None
    call = stmt.value
    assert isinstance(call, ast.Call)
    assert call.block is not None
    assert len(call.args) == 1
    comparator = call.block.body[0]
    assert isinstance(comparator, ast.Binary) and comparator.op == "<"
    left = comparator.left
    assert isinstance(left, ast.Call)
    assert isinstance(left.args[0], ast.Member) and left.args[0].name == "0"


def test_error_capture_positions():
    program = parse_source("#(o,:e) = f()")
    stmt = program.body[0]
    assert stmt.targets == ["o"]
    assert stmt.capture == "e"


def test_capture_must_be_last():
    with pytest.raises(NjexlError):
        parse_source("#(:e, o) = f()")
    with pytest.raises(NjexlError):
        parse_source("#(:e) = f()")


def test_cardinality_comparison():
    node = expr("#|set($)| != #|$|")
    assert isinstance(node, ast.Binary) and node.op == "!="
    assert isinstance(node.left, ast.Cardinality)
    assert isinstance(node.right, ast.Cardinality)


def test_sublist_operator():
    node = expr("l_F <= l")
    assert isinstance(node, ast.Binary) and node.op == "<="


def test_range_list_index_disambiguation():
    assert isinstance(expr("[a : b]"), ast.RangeLit)
    assert isinstance(expr("[a : b : c]"), ast.RangeLit)
    assert isinstance(expr("[a, b]"), ast.ListLit)
    assert isinstance(expr("[]"), ast.ListLit)
    assert isinstance(expr("xs[i]"), ast.Index)


def test_map_literal_vs_block_call():
    assert isinstance(expr("{ 1 : 'a' }"), ast.MapLit)
    call = expr("list{ $ }(xs)")
    assert isinstance(call, ast.Call) and call.block is not None


def test_named_and_splat_arguments():
    call = expr("f(1, x = 2)")
    assert len(call.args) == 1 and call.named == [("x", call.named[0][1])]
    splat = expr("join{ false }(__args__ = ll)", ())
    assert splat.splat is not None and splat.args == []
    with pytest.raises(NjexlError):
        expr("f(x = 1, 2)")
    with pytest.raises(NjexlError):
        expr("f(1, __args__ = ll)")


def test_break_continue_conditions():
    program = parse_source("while (true) { continue( x > 1 ) ; break( done ) ; break }")
    body = program.body[0].body
    assert isinstance(body[0], ast.Continue) and body[0].cond is not None
    assert isinstance(body[1], ast.Break) and body[1].cond is not None
    assert isinstance(body[2], ast.Break) and body[2].cond is None


def test_where_and_new_are_reserved():
    for source in ("where", "x = where", "new Foo()", "y = new"):
        with pytest.raises(NjexlError) as err:
            parse_source(source)
        assert "reserved" in err.value.message


def test_static_call_requires_known_alias():
    program = parse_source("import 'java.lang.Integer' as Int\n#(o,:e) = Int:parseInt('42')")
    stmt = program.body[1]
    assert isinstance(stmt.value, ast.StaticCall)
    assert stmt.value.alias == "Int" and stmt.value.name == "parseInt"
    # without the import, the colon belongs to the enclosing ternary
    node = expr("cond ? a : b(1)")
    assert isinstance(node, ast.Ternary)
    assert isinstance(node.orelse, ast.Call)
    # with the alias known, a static call wins inside the then-branch
    node = expr("cond ? Int:parseInt(s) : 0", aliases={"Int"})
    assert isinstance(node, ast.Ternary)
    assert isinstance(node.then, ast.StaticCall)


def test_numeric_projection_chain():
    node = expr("p.0")
    assert isinstance(node, ast.Member) and node.name == "0"
    node = expr("p.0.1")
    assert node.name == "1" and node.obj.name == "0"


def test_statement_separation_rules():
    program = parse_source("a = 1 ; b = 2\nc = 3")
    assert len(program.body) == 3
    with pytest.raises(NjexlError):
        parse_source("a = 1 b = 2")


def test_newlines_free_inside_groups():
    program = parse_source("x = (1 +\n 2)\ny = { 0 : 'a',\n 1 : 'b' }")
    assert len(program.body) == 2


def test_call_does_not_continue_across_lines():
    program = parse_source("f\n(1)")
    assert len(program.body) == 2


def test_semicolon_inside_block_on_one_line():
    program = parse_source("join{ permutations += p ; false }(__args__ = ll)")
    block = program.body[0].block
    assert len(block.body) == 2


def test_parse_expression_rejects_trailing():
    with pytest.raises(NjexlError):
        expr("1 1")


def test_parse_error_reports_position():
    with pytest.raises(NjexlError) as err:
        parse_source("x = (")
    assert err.value.kind == "ParseError"
    assert err.value.line == 1


_INTEGER = "import 'java.lang.Integer' as I\n"


@pytest.mark.parametrize(
    "source, message, line, col",
    [
        (_INTEGER + "I:parseInt(x = '1')", "static calls take positional arguments only", 2, 12),
        (_INTEGER + "I:parseInt(__args__ = ['1'])", "static calls take positional arguments only", 2, 12),
        (_INTEGER + "I:parseInt('1', x = 2)", "static calls take positional arguments only", 2, 17),
        ("f = def(a){a}\nf(__args__ = [1], __args__ = [2])", "duplicate __args__ argument", 2, 19),
        ("f(x = 1, 2)", "positional arguments must come first", 1, 10),
        ("#(a, :e, :f) = 1", "only one error-capture target allowed", 1, 10),
        ("#(:e, a) = 1", "error-capture target must come last", 1, 7),
        ("#(a) = 1", "multiple assignment needs at least two targets", 1, 1),
    ],
)
def test_parse_errors_point_at_the_offending_token(source, message, line, col):
    with pytest.raises(NjexlError) as err:
        parse_source(source)
    got = err.value
    assert (got.kind, got.message, got.line, got.col) == ("ParseError", message, line, col)


def test_all_corpus_scripts_parse():
    for path in sorted(CORPUS.glob("*.njxl")):
        parse_source(path.read_text())


def test_ast_dump_golden():
    program = parse_source("x = 1 + 2")
    assert dump(program) == "\n".join(
        [
            "Program (1:1)",
            "  Assign = (1:1)",
            "    Identifier x (1:1)",
            "    Binary + (1:5)",
            "      Literal 1 (1:5)",
            "      Literal 2 (1:9)",
        ]
    )


def _nodes(value):
    """Every node reachable from value through fields, lists and tuples."""
    if isinstance(value, ast.Node):
        yield value
        value = list(vars(value).values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes(item)


def test_constructors_are_the_field_lists():
    # codegen.template_key, the tier-0 stand-ins and perfbench's node count
    # read a node's fields through __match_args__ and vars()
    kinds = ast.Node.__subclasses__()
    for kind in kinds:
        assert kind.__match_args__[:2] == ("line", "col")
        assert kind.__match_args__ == tuple(inspect.signature(kind).parameters), kind
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.njxl"))]
    seen = set()
    for source in sources + list(structured_programs()):
        try:
            program = parse_source(source)
        except NjexlError:
            continue
        for node in _nodes(program):  # parsed, never run: no tier state yet
            assert list(vars(node)) == list(type(node).__match_args__), ast.dump(node)
            seen.add(type(node))
    assert seen == set(kinds)


def test_def_expression_and_statement():
    program = parse_source("def f(a){ a }\ng = def(b){ b }")
    assert program.body[0].name == "f"
    assert program.body[1].value.name is None


# --- precedence property -----------------------------------------------------

_BIN_LEVELS = [
    ["or"],
    ["and"],
    ["xor"],
    ["==", "!="],
    ["<", "<=", ">", ">=", "@"],
    ["+", "-"],
    ["*", "/", "%"],
]
_PREC = {op: i for i, level in enumerate(_BIN_LEVELS) for op in level}


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["a", "b", "c", "x1", "42", "7"])
    op = rng.choice([op for level in _BIN_LEVELS for op in level])
    return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _render(tree, parent_prec=-1, right_side=False):
    """Minimal-parenthesis rendering given the documented precedence table."""
    if isinstance(tree, str):
        return tree
    op, left, right = tree
    prec = _PREC[op]
    text = f"{_render(left, prec, False)} {op} {_render(right, prec, True)}"
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"( {text} )"
    return text


def _shape(node):
    if isinstance(node, ast.Binary):
        return (node.op, _shape(node.left), _shape(node.right))
    if isinstance(node, ast.Literal):
        return str(node.value)
    return node.name


def test_precedence_property_minimal_parens():
    rng = random.Random(23)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        assert _shape(expr(_render(tree))) == tree


def test_precedence_property_full_parens():
    rng = random.Random(29)
    for _ in range(300):
        tree = _random_tree(rng, 4)

        def full(t):
            if isinstance(t, str):
                return t
            return f"( {full(t[1])} {t[0]} {full(t[2])} )"

        assert _shape(expr(full(tree))) == tree
