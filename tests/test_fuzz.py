"""Deterministic crash fuzzing: arbitrary input may only fail as NjexlError."""

import random
import string

from njexl.errors import NjexlError
from njexl.interpreter import Interp, new_global_scope
from njexl.stdlib import default_io

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
