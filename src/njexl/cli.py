"""Command-line front end: script runner, one-shot eval, AST dump, REPL.

Exit codes: 0 success, 1 uncaught script error (parse or runtime), 2 usage
error.  Output and error streams stay separate so golden tests can pin both.
"""

import os
import sys

from . import ast
from .errors import NjexlError
from .interpreter import Interp, new_global_scope, run_on_deep_stack
from .lexer import tokenize
from .parser import parse_program
from .stdlib import FakeClock, IoPorts, ResourceLoader
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

    io = IoPorts(
        out=stdout,
        err=stderr,
        loader=ResourceLoader(url_map, http_enabled),
        clock=FakeClock(seed_clock) if seed_clock is not None else _real_clock(),
        env=dict(os.environ),
    )

    if mode == "run":
        return _run_script(io, script_path, script_args)
    if mode == "eval":
        return _run_expression(io, eval_text)
    if mode == "ast":
        return _dump_ast(io, script_path)
    return repl(stdin, io)


def _real_clock():
    import time

    return time.perf_counter_ns


def _is_int(text):
    try:
        int(text)
        return True
    except ValueError:
        return False


def _usage(stderr):
    stderr.write(USAGE)
    return 2


def _report(io, exc):
    io.err.write(exc.describe() + "\n")
    return 1


def _run_script(io, path, script_args):
    try:
        source = io.loader.read_text(path)
    except NjexlError as exc:
        return _report(io, exc)
    interp = Interp(io, script_path=path)
    scope = new_global_scope(script_args)
    try:
        run_on_deep_stack(lambda: interp.run_source(source, scope))
    except NjexlError as exc:
        return _report(io, exc)
    except RecursionError:
        return _report(io, NjexlError("StackOverflowError", "evaluation nested too deeply"))
    return 0


def _run_expression(io, text):
    from .parser import parse_expression

    interp = Interp(io)
    scope = new_global_scope()

    def job():
        expr = parse_expression(tokenize(text))
        return interp.run_program(ast.Program(expr.line, expr.col, [expr]), scope)

    try:
        value = run_on_deep_stack(job)
    except NjexlError as exc:
        return _report(io, exc)
    except RecursionError:
        return _report(io, NjexlError("StackOverflowError", "evaluation nested too deeply"))
    io.out.write(stringify(value) + "\n")
    return 0


def _dump_ast(io, path):
    try:
        source = io.loader.read_text(path)
    except NjexlError as exc:
        return _report(io, exc)
    try:
        program = run_on_deep_stack(lambda: parse_program(tokenize(source)))
    except NjexlError as exc:
        return _report(io, exc)
    except RecursionError:
        return _report(io, NjexlError("ParseError", "input nested too deeply"))
    io.out.write(ast.dump(program) + "\n")
    return 0


def _needs_more(buffer):
    """Heuristic continuation test: unbalanced brackets or an open string."""
    try:
        tokens = tokenize(buffer)
    except NjexlError as exc:
        return exc.kind in ("UnterminatedString", "UnterminatedComment")
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
    aliases = set()
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
            program = parse_program(tokenize(text), aliases | scope.module_aliases())
            for stmt in program.body:
                one = ast.Program(stmt.line, stmt.col, [stmt])
                value = interp.run_program(one, scope)
                if isinstance(stmt, ast.Import):
                    aliases.add(stmt.alias)
                elif _echoes(stmt) and value is not None:
                    io.out.write(stringify(value) + "\n")

        try:
            run_on_deep_stack(line_job)
        except NjexlError as exc:
            io.err.write(exc.describe() + "\n")
        except RecursionError:
            io.err.write("StackOverflowError: evaluation nested too deeply\n")


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
