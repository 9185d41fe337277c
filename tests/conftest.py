import io
import sys
from pathlib import Path

import pytest

sys.setrecursionlimit(20000)  # parser/value recursion headroom for deep fuzz cases

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
FIXTURES = CORPUS / "fixtures"


class Capture(io.StringIO):
    pass


def run_source(source, *, args=(), loader=None, clock=None, env=None, scope=None):
    """Run a program in a fresh context; returns (value, stdout_text, scope)."""
    from njexl.interpreter import Interp, new_global_scope, run_on_deep_stack
    from njexl.stdlib import default_io

    out = Capture()
    io_ports = default_io(out=out, err=Capture(), loader=loader, clock=clock, env=env or {})
    interp = Interp(io_ports)
    if scope is None:
        scope = new_global_scope(args)
    value = run_on_deep_stack(lambda: interp.run_source(source, scope))
    return value, out.getvalue(), scope


def parse_source(source, module_aliases=()):
    """Parse source text as a whole program."""
    from njexl.lexer import tokenize
    from njexl.parser import parse_program

    return parse_program(tokenize(source), module_aliases)


def run_cli(argv, stdin_text=""):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from njexl.cli import main

    out, err = Capture(), Capture()
    code = main(list(argv), stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def ctx():
    from njexl import create_context

    return create_context(out=Capture(), err=Capture())


def to_src(value):
    """Render plain host data as njexl literal source text."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
        return f"'{escaped}'"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(to_src(v) for v in value) + "]"
    raise TypeError(f"no literal form for {type(value).__name__}")


def corpus_path(name):
    return str(CORPUS / name)


def fixture_path(name):
    return str(FIXTURES / name)
