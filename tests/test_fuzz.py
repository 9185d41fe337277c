"""Deterministic crash fuzzing: arbitrary input may only fail as NjexlError.
Calls of every shape also give the same outcome in both tiers."""

import random
import string

import njexl.interpreter as interpreter
from njexl.errors import NjexlError, guest_error
from njexl.interpreter import Interp, new_global_scope
from njexl.stdlib import default_io
from njexl.values import stringify

from conftest import Capture

ATOMS = [
    "0", "1", "-1", "2.5", "''", "'a'", "null", "true", "false", "[1,2]", "[]",
    "{ 1 : 2 }", "set(1,2)", "[0:3]", "x", "$", "_$_", "__args__", "int('4')",
    "def(a){ a }", "#clock{ 1 }", "#|[1]|", "minmax([1,2])",
]
OPS = [
    " + ", " - ", " * ", " / ", " % ", " @ ", " == ", " != ", " <= ", " < ",
    " and ", " or ", " xor ", " eq ",
]
STMTS = [
    "x = EXPR", "EXPR", "var g = EXPR", "#(a,:e) = EXPR", "if (EXPR) { EXPR }",
    "for (i : [0:3]) { EXPR }", "while (false) { EXPR }", "print(EXPR)",
    "xs = [1,2]\nxs[EXPR] = EXPR", "def f(p){ EXPR }\nf(EXPR)",
    "list{ EXPR }([1,2])", "lfold{ EXPR }([1,2], 0)", "join{ EXPR }([1],[2])",
    "sorta([EXPR])", "eval('EXPR')", "break", "continue", "return EXPR",
]
TOKEN_SOUP = [
    "if", "else", "for", "while", "def", "var", "import", "as", "return",
    "break", "continue", "and", "or", "not", "eq", "lt", "where", "new",
    "true", "false", "null", "x", "$", "$$", "_", "_$_", "__args__",
    "42", "3.5", "'s'", '"t"', "==", "!=", "<=", ">=", "+=", "#(", "#|",
    "#clock", "?", ":", "@", "|", "+", "-", "*", "/", "%", "=", "<", ">",
    "!", "(", ")", "[", "]", "{", "}", ",", ";", ".", "//c\n", "/*c*/",
]


def _attempt(source):
    io_ports = default_io(out=Capture(), err=Capture(), env={})
    interp = Interp(io_ports)
    try:
        interp.run_source(source, new_global_scope())
    except (NjexlError, RecursionError):
        pass
    # anything else propagates and fails the test


def structured_programs():
    """Statement templates filled with random expressions (a fixed corpus)."""
    rng = random.Random(97)

    def rand_expr(depth=2):
        e = rng.choice(ATOMS)
        for _ in range(rng.randrange(0, 3)):
            e = e + rng.choice(OPS) + (rand_expr(depth - 1) if depth else rng.choice(ATOMS))
        return e

    for _ in range(400):
        lines = []
        for _ in range(rng.randrange(1, 5)):
            stmt = rng.choice(STMTS)
            while "EXPR" in stmt:
                stmt = stmt.replace("EXPR", rand_expr(), 1)
            lines.append(stmt)
        yield "\n".join(lines)


def token_soups():
    """Random token sequences and random printable text (a fixed corpus)."""
    rng = random.Random(137)
    for trial in range(600):
        if trial % 2 == 0:
            yield " ".join(rng.choice(TOKEN_SOUP) for _ in range(rng.randrange(0, 25)))
        else:
            yield "".join(rng.choice(string.printable) for _ in range(rng.randrange(0, 60)))


def test_structured_program_fuzz():
    for source in structured_programs():
        _attempt(source)


def test_token_soup_fuzz():
    for source in token_soups():
        _attempt(source)


# the callees: functions of 0 to 3 parameters (each calls only those before
# it), an anonymous one, and the step builtins under their names and another
FUNCTIONS = {"f0": [], "f1": ["a"], "f2": ["a", "b"], "f3": ["a", "b", "c"], "h": ["a", "b"]}
STEP_NAMES = ["index", "list", "set", "lfold", "rfold"]
VALUES = ["0", "1", "2", "'a'", "null", "true", "[1, 2]", "[0:3]", "x"]
SOURCES = ["[1, 2]", "[]", "[0:4]", "'xy'", "{ 1 : 2 }", "l", "[[1, 'a'], [2, 'b']]"]
BLOCK_NAMES = ["$", "_", "$$", "_$_"]
# a block body's first statement, if any: break, continue and return in a block
JUMPS = ["break(VALUE) ; ", "continue(VALUE) ; ", "if (VALUE) { return VALUE } ; "]
# names bound to other callees: a Function or a value under a step builtin's name
REBINDINGS = ["STEP = f2", "STEP = 5", "def STEP(a){ [a] }"]


def call_programs(count=1000, seed=211):
    """Programs that define functions and call them, and the step builtins,
    in every shape: one argument per parameter, fewer or more, named
    arguments, __args__, a block given to a function; a step builtin with each
    count, named arguments, no block, under another name, and break, continue
    and return in its block.  The calls run at top level (tier-0 code) or in a
    function called twice (a fixed corpus)."""
    rng = random.Random(seed)

    def value(names, callees, depth):
        if depth and rng.random() < 0.4:
            return call(names, callees, depth - 1)
        atom = rng.choice(VALUES + names)
        # no +, which appends to a list in place: a block could grow what it iterates
        return atom + rng.choice(["", "", " - 1", " == 1", " @ [1, 2]"])

    def call(names, callees, depth):
        def val():
            return value(names, callees, depth)

        if callees and rng.random() < 0.5:
            name = rng.choice(callees)
            arity = len(FUNCTIONS.get(name, "ab"))
            count = arity if rng.random() < 0.85 else rng.randrange(4)
            args = [val() for _ in range(count)]
            shape = rng.randrange(20)
            if shape == 0:
                args.append(f"{rng.choice('abz')} = {val()}")
            elif shape == 1:
                args = [f"__args__ = {rng.choice(['[' + ', '.join(args) + ']', val()])}"]
            block = "{ $ } " if shape == 2 else ""
            return f"{name}{block}({', '.join(args)})"
        name = rng.choice(STEP_NAMES + ["g"])
        body = rng.choice(["", "", *JUMPS]).replace("VALUE", value(names + BLOCK_NAMES, callees, 0))
        body += value(names + BLOCK_NAMES, callees, depth)
        extra = rng.randrange(2) if name in ("lfold", "rfold", "g") else 0
        extra += rng.random() < 0.1  # one argument too many, now and then
        args = [rng.choice(SOURCES)] + [val() for _ in range(extra)]
        shape = rng.randrange(20)
        if shape == 0:
            args.append(f"p = {val()}")
        elif shape == 1:
            args = args[:0]
        block = "" if shape == 2 else f"{{ {body} }}"
        return f"{name}{block}({', '.join(args)})"

    for _ in range(count):
        lines = ["x = 3", "l = [1, 'a', [2]]", "g = lfold"]
        for i, (name, params) in enumerate(FUNCTIONS.items()):
            body = value(params, list(FUNCTIONS)[:i], 2)
            if name == "h":
                lines.append(f"h = def(a, b){{ {body} }}")
            else:
                lines.append(f"def {name}({', '.join(params)}){{ {body} }}")
        if rng.random() < 0.2:
            lines.append(rng.choice(REBINDINGS).replace("STEP", rng.choice(STEP_NAMES)))
        calls = [call([], list(FUNCTIONS), 2) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.5:
            lines.append("[" + ", ".join(calls) + "]")
        else:
            lines.append("def main(){ [" + ", ".join(calls) + "] }")
            lines.append("[main(), main()]")
        yield "\n".join(lines)


def _outcome(source):
    """The value (stringified) or the error's kind, message and position, and stdout."""
    out = Capture()
    interp = Interp(default_io(out=out, err=Capture(), env={}))
    try:
        shown = ("value", stringify(interp.run_source(source, new_global_scope())))
    except (NjexlError, RecursionError) as exc:
        exc = guest_error(exc)
        shown = ("error", exc.kind, exc.message, exc.line, exc.col)
    return shown, out.getvalue()


def test_calls_of_every_shape_agree_across_tiers(monkeypatch):
    kinds = set()
    for source in call_programs():
        outcomes = []
        for threshold in (float("inf"), 0):  # every body in tier 0, then in tier 1 at once
            monkeypatch.setattr(interpreter, "BLOCK_TIER_UP_AT", threshold)
            monkeypatch.setattr(interpreter, "FUNCTION_TIER_UP_AT", threshold)
            outcomes.append(_outcome(source))
        assert outcomes[0] == outcomes[1], source
        kinds.add(outcomes[0][0][:2])
    # the corpus reaches values and the call errors
    assert {("value",), ("error", "ArityError"), ("error", "UnknownParameter")} <= {
        kind[:1] if kind[0] == "value" else kind for kind in kinds
    }
