"""Command-line front end: script runner, one-shot eval, AST dump, REPL.

Exit codes: 0 success, 1 any failure (one describe() line on stderr, never a
traceback), 2 usage error.  Output and error streams stay separate so golden
tests can pin both.
"""

import sys

from . import ast
from .errors import guest_error
from .interpreter import Interp, new_global_scope, run_on_deep_stack
from .lexer import tokenize
from .parser import parse_expression, parse_program
from .stdlib import FakeClock, ResourceLoader, default_io
from .values import stringify

USAGE = """usage: njexl [options] run <file> [--] [args...]
       njexl [options] --eval <expr>
       njexl [options] --ast <file>
       njexl [options]               start the REPL

options:
  --seed-clock <n>        fake monotonic clock advancing n ns per reading
  --map-url <prefix=path> rewrite resource paths that start with prefix
  --http                  allow http(s) fetches in read()/lines()
"""


def console():
    sys.exit(main())


def main(argv=None, stdin=None, stdout=None, stderr=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    seed_clock = None
    url_map = {}
    http_enabled = False
    mode = None
    script_path = None
    eval_text = None
    script_args = []

    i = 0
    while i < len(argv):
        arg = argv[i]
        if mode == "run" and script_path is not None:
            # everything after the script path belongs to the script
            rest = argv[i:]
            if rest and rest[0] == "--":
                rest = rest[1:]
            script_args = rest
            break
        if arg == "--seed-clock":
            i += 1
            if i >= len(argv) or not _is_int(argv[i]) or int(argv[i]) < 0:
                return _usage(stderr)
            seed_clock = int(argv[i])
        elif arg == "--map-url":
            i += 1
            if i >= len(argv) or "=" not in argv[i]:
                return _usage(stderr)
            prefix, _, target = argv[i].partition("=")
            url_map[prefix] = target
        elif arg == "--http":
            http_enabled = True
        elif arg == "--eval":
            i += 1
            if i >= len(argv) or mode is not None:
                return _usage(stderr)
            mode = "eval"
            eval_text = argv[i]
        elif arg == "--ast":
            i += 1
            if i >= len(argv) or mode is not None:
                return _usage(stderr)
            mode = "ast"
            script_path = argv[i]
        elif arg == "run":
            if mode is not None:
                return _usage(stderr)
            i += 1
            if i >= len(argv):
                return _usage(stderr)
            mode = "run"
            script_path = argv[i]
        else:
            return _usage(stderr)
        i += 1

    io = default_io(
        out=stdout,
        err=stderr,
        loader=ResourceLoader(url_map, http_enabled),
        clock=FakeClock(seed_clock) if seed_clock is not None else None,
    )

    if mode == "run":
        return _run_script(io, script_path, script_args)
    if mode == "eval":
        return _run_expression(io, eval_text)
    if mode == "ast":
        return _dump_ast(io, script_path)
    return repl(stdin, io)


def _is_int(text):
    try:
        int(text)
        return True
    except ValueError:
        return False


def _usage(stderr):
    stderr.write(USAGE)
    return 2


def _run(io, job, show=None):
    """Run job, then show(its value) if show is given, on the deep stack.

    Returns 0 after writing the shown text, if any, to stdout.  Any failure,
    in job or in show, is one describe() line on stderr and returns 1."""
    try:
        text = run_on_deep_stack(job if show is None else lambda: show(job()))
    except Exception as exc:  # noqa: BLE001 - no failure escapes as a traceback
        io.err.write(guest_error(exc).describe() + "\n")
        return 1
    if show is not None:
        io.out.write(text + "\n")
    return 0


def _run_script(io, path, script_args):
    interp = Interp(io, script_path=path)
    scope = new_global_scope(script_args)
    return _run(io, lambda: interp.run_source(io.loader.read_text(path), scope))


def _run_expression(io, text):
    interp = Interp(io)

    def job():
        expr = parse_expression(tokenize(text))
        return interp.run_program(ast.Program(expr.line, expr.col, [expr]), new_global_scope())

    return _run(io, job, stringify)


def _dump_ast(io, path):
    return _run(io, lambda: parse_program(tokenize(io.loader.read_text(path))), ast.dump)


def _needs_more(buffer):
    """Heuristic continuation test: unbalanced brackets or an open string."""
    try:
        tokens = tokenize(buffer)
    except Exception as exc:  # noqa: BLE001 - the entry's run reports it
        return guest_error(exc).kind in ("UnterminatedString", "UnterminatedComment")
    depth = 0
    for tok in tokens:
        if tok.lexeme in ("(", "[", "{", "#(", "#|"):
            depth += 1
        elif tok.lexeme in (")", "]", "}", "|"):
            depth -= 1
    return depth > 0


def repl(stdin, io):
    """Line loop with a persistent global scope; :quit leaves with code 0."""
    interp = Interp(io)
    scope = new_global_scope()
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    buffer = ""
    while True:
        if interactive:
            io.out.write("... " if buffer else "njexl> ")
            io.out.flush()
        line = stdin.readline()
        if line == "":
            return 0
        if not buffer and line.strip() == ":quit":
            return 0
        buffer = buffer + line
        if _needs_more(buffer):
            continue
        source, buffer = buffer, ""
        if not source.strip():
            continue

        def line_job(text=source):
            program = parse_program(tokenize(text), scope.module_aliases())
            for stmt in program.body:
                value = interp.run_program(ast.Program(stmt.line, stmt.col, [stmt]), scope)
                if _echoes(stmt) and value is not None:
                    io.out.write(stringify(value) + "\n")

        _run(io, line_job)


def _echoes(stmt):
    """Only plain expression statements echo their value in the REPL."""
    return not isinstance(
        stmt,
        (
            ast.Assign,
            ast.VarDecl,
            ast.MultiAssign,
            ast.Import,
            ast.FuncDef,
            ast.If,
            ast.For,
            ast.While,
        ),
    )
