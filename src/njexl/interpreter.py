"""Closure compiler and evaluator: scopes, control flow, calls, blocks, imports.

A Program is compiled once into nested closures code(interp, scope) -> value
(Feeley & Lapalme, "Using closures for code generation", 1987), with
operators, literals, comparison directions and call shapes fixed when the
code is built.  Compiled code never holds an Interp and nothing is written
onto syntax-tree nodes, so contexts are freed by reference counting alone.
An Interp caches the code of recent source texts: a repeated predicate skips
the lexer, the parser and the compiler.

One Interp + one global Scope + one IoPorts bundle form an evaluation
context.  A context is strictly single-threaded; any number of contexts can
run in parallel because they share nothing mutable.

Guest programs run on a big-stack worker thread (see run_on_deep_stack) so
the guest-level recursion cap of MAX_CALL_DEPTH frames is reached and
reported as a catchable StackOverflowError instead of exhausting the host C
stack.  Each host thread gets one such worker on first use and reuses it for
every later evaluation; the worker stops once its host thread has ended.
"""

import collections
import functools
import operator
import os
import queue
import sys
import threading
import weakref

from . import ast
from .errors import BreakSignal, ContinueSignal, NjexlError, ReturnSignal, guest_error
from .parser import parse_program
from .lexer import tokenize
from .values import (
    INT_MAX,
    INT_MIN,
    ErrorValue,
    Function,
    Module,
    NativeFunction,
    Pair,
    Range,
    XMap,
    XSet,
    arith,
    cardinality,
    enumerate_value,
    is_collection,
    is_int_tier,
    membership,
    native_kind,
    negate,
    order_compare,
    project,
    stringify,
    sub_collection,
    tag,
    truthiness,
    values_equal,
)

MAX_CALL_DEPTH = 10_000
CODE_CACHE_SIZE = 256  # compiled programs per Interp; least recently used dropped first

_DEEP_STACK_BYTES = 512 * 1024 * 1024
_DEEP_RECURSION_LIMIT = 150_000
_WAIT_INTERVAL = 0.05  # s; a caller waiting on its job checks for signals this often
_SPAWN_LOCK = threading.Lock()
_WORKERS = threading.local()  # .worker: the calling host thread's _Worker


def _drop_workers():
    global _WORKERS
    _WORKERS = threading.local()


# a copy of this module that is dropped (purged from sys.modules and imported
# again) frees its workers' owners now, not at the next full gc collection
weakref.finalize(sys.modules[__name__], _drop_workers).atexit = False

_MISSING = object()


class _Worker:
    """Owner of one big-stack thread that calls the jobs put on `jobs`.

    The thread's loop is made only of C calls, so while idle it holds no
    frame that refers to this module: it pins neither a context nor a copy
    of njexl.  Freeing the owner (its host thread ended, or this module was
    dropped) posts the stop sentinel.
    """

    __slots__ = ("jobs", "pid", "__weakref__")

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        self.pid = os.getpid()  # a forked child has the owner but not the thread
        serve = map(operator.methodcaller("__call__"), iter(self.jobs.get, None))
        # stack_size is process-global state: serialize set/spawn/restore
        with _SPAWN_LOCK:
            old_size = threading.stack_size(_DEEP_STACK_BYTES)
            try:
                threading.Thread(
                    target=collections.deque, args=(serve, 0), name="njexl-eval", daemon=True
                ).start()
            finally:
                threading.stack_size(old_size)
        weakref.finalize(self, self.jobs.put, None).atexit = False


def run_on_deep_stack(fn):
    """Run fn() on the calling thread's big-stack worker; re-raise its outcome.

    CPython burns C stack per interpreter frame, so a 10k-frame guest
    recursion needs far more headroom than the default thread offers.  The
    worker is started on the first call from a host thread and reused by
    every later one; a call made from inside a worker gets that worker's own
    worker.  The process-wide recursion limit is raised (never lowered back:
    lowering could starve a worker running in another thread).
    """
    worker = getattr(_WORKERS, "worker", None)
    if worker is None or worker.pid != os.getpid():
        worker = _WORKERS.worker = _Worker()
    if sys.getrecursionlimit() < _DEEP_RECURSION_LIMIT:
        sys.setrecursionlimit(_DEEP_RECURSION_LIMIT)
    # this call's own completion signal and outcome slot: a caller whose
    # wait is interrupted leaves its outcome where no later call looks
    done = threading.Lock()
    done.acquire()
    outcome = []

    def job():
        nonlocal fn
        try:
            outcome.append((fn(), None))
        except BaseException as exc:  # noqa: BLE001 - transported to the caller
            outcome.append((None, exc))
        fn = None  # the worker keeps nothing of the job once it is done
        done.release()

    try:
        worker.jobs.put(job)
        # a timed wait: a Ctrl-C that lands just before the wait blocks would
        # otherwise go unseen until the job ends
        while not done.acquire(timeout=_WAIT_INTERVAL):
            pass
    except BaseException:
        # the job runs on: later calls get a new worker instead of queueing
        # behind what may never finish
        _WORKERS.worker = None
        raise
    value, error = outcome.pop()
    if error is None:
        return value
    try:
        raise error
    finally:
        error = None  # the traceback holds this frame: no cycle through it


class Scope:
    """Lexical frame chain: builtins frame (the root) -> global frame -> locals.

    Assignment never writes the root, so binding a builtin's name shadows it
    exactly in the scope doing the binding.
    """

    __slots__ = ("bindings", "parent")

    def __init__(self, parent=None, bindings=None):
        self.bindings = {} if bindings is None else bindings
        self.parent = parent

    def frame_of(self, name, line=None, col=None):
        """The nearest frame binding name, the builtins frame included."""
        scope = self
        while name not in scope.bindings:
            scope = scope.parent
            if scope is None:
                raise NjexlError("NameError", f"'{name}' is not defined", line, col)
        return scope

    def assign(self, name, value):
        """Write the nearest frame already binding name, else this frame."""
        scope = self
        while scope.parent is not None:
            if name in scope.bindings:
                scope.bindings[name] = value
                return
            scope = scope.parent
        self.bindings[name] = value

    def declare_global(self, name, value):
        """Write the global frame: the child of the root."""
        scope = self
        while scope.parent.parent is not None:
            scope = scope.parent
        scope.bindings[name] = value

    def module_aliases(self):
        """Names bound to modules anywhere in the chain (for re-parsing)."""
        found = set()
        scope = self
        while scope is not None:
            for name, value in scope.bindings.items():
                if isinstance(value, Module):
                    found.add(name)
            scope = scope.parent
        return found


class BlockClosure:
    """An anonymous block, its compiled body and the scope it was written in;
    builtins run it through Interp.invoke_block."""

    __slots__ = ("block", "body", "scope")

    def __init__(self, block, scope, body):
        self.block = block
        self.body = body
        self.scope = scope


class Interp:
    def __init__(self, io, registry=None, script_path=None):
        from .stdlib import default_registry  # local import avoids a cycle

        self.io = io
        self.registry = default_registry() if registry is None else registry
        self.module_cache = {}
        self.loading = set()
        self.depth = 0
        self.script_dir = os.path.dirname(os.path.abspath(script_path)) if script_path else None
        self.code_cache = {}

    def run_program(self, program, scope, key=None):
        """Run a Program (compiled here, and cached under key if given) or its code."""
        if isinstance(program, ast.Program):
            program = compile_body(program.body)
            if key is not None:
                if len(self.code_cache) >= CODE_CACHE_SIZE:
                    del self.code_cache[next(iter(self.code_cache))]
                self.code_cache[key] = program
        try:
            return program(self, scope)
        except ReturnSignal:
            raise NjexlError("SyntaxError", "'return' outside a function") from None
        except BreakSignal:
            raise NjexlError("SyntaxError", "'break' outside a loop") from None
        except ContinueSignal:
            raise NjexlError("SyntaxError", "'continue' outside a loop") from None

    def run_source(self, source, scope):
        """Run source text, reusing code compiled from it under the same module aliases."""
        key = (source, frozenset(scope.module_aliases()))
        code = self.code_cache.pop(key, None)
        if code is None:
            return self.run_program(parse_program(tokenize(source), key[1]), scope, key)
        self.code_cache[key] = code
        return self.run_program(code, scope)

    def import_module(self, path, node):
        if path in self.registry:
            return self.registry[path]
        resolved = self._resolve_module_path(path, node)
        if resolved in self.module_cache:
            return self.module_cache[resolved]
        if resolved in self.loading:
            raise NjexlError("ImportCycle", f"circular import of '{path}'", node.line, node.col)
        source = self.io.loader.read_text(resolved)
        sub = Interp(self.io, self.registry, script_path=resolved)
        sub.module_cache = self.module_cache
        sub.loading = self.loading
        module_scope = new_global_scope()
        self.loading.add(resolved)
        try:
            sub.run_source(source, module_scope)
        finally:
            self.loading.discard(resolved)
        module = Module(path, module_scope.bindings)
        self.module_cache[resolved] = module
        return module

    def _resolve_module_path(self, path, node):
        candidates = []
        if os.path.isabs(path):
            candidates.append(path)
        else:
            if self.script_dir:
                candidates.append(os.path.join(self.script_dir, path))
            search = self.io.env.get("NJEXL_PATH", "")
            for entry in filter(None, search.split(os.pathsep)):
                candidates.append(os.path.join(entry, path))
            candidates.append(path)
        for cand in candidates:
            if os.path.isfile(cand):
                return os.path.abspath(cand)
        raise NjexlError("ModuleNotFound", f"no module at '{path}'", node.line, node.col)

    def call_function(self, fn, args, named=None, node=None):
        if len(args) > len(fn.params):
            raise _error(
                node,
                "ArityError",
                f"{fn.name or '<anon>'} takes {len(fn.params)} arguments, got {len(args)}",
            )
        bindings = dict.fromkeys(fn.params)
        bindings.update(zip(fn.params, args))
        for name, value in (named or {}).items():
            if name not in fn.params:
                raise _error(
                    node, "UnknownParameter", f"{fn.name or '<anon>'} has no parameter '{name}'"
                )
            bindings[name] = value
        frame = Scope(fn.scope, bindings)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise self._too_deep(node)
        try:
            return fn.body(self, frame)
        except ReturnSignal as ret:
            return ret.value
        except RecursionError:
            raise _error(node, "StackOverflowError", "call depth exceeded") from None
        finally:
            self.depth -= 1

    def _too_deep(self, node):
        """The error for a frame entered past MAX_CALL_DEPTH, whose entry it undoes."""
        self.depth -= 1
        return _error(node, "StackOverflowError", f"recursion deeper than {MAX_CALL_DEPTH} frames")

    def invoke_block(self, closure, item, index, source, partial=_MISSING):
        """Run an anonymous block for one element: ('value', v) normally, ('skip',
        None) when the block issued continue, ('stop', None) when it issued break."""
        bindings = {"$": item, "_": index, "$$": source}
        if partial is not _MISSING:
            bindings["_$_"] = partial
        frame = Scope(closure.scope, bindings)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise self._too_deep(closure.block)
        try:
            return ("value", closure.body(self, frame))
        except ContinueSignal:
            return ("skip", None)
        except BreakSignal:
            return ("stop", None)
        except RecursionError:
            raise _error(closure.block, "StackOverflowError", "call depth exceeded") from None
        finally:
            self.depth -= 1


# --- compiler: _compile_<Name> compiles an ast.<Name> node ------------------------
# Value operations (arith, values_equal, ...) are looked up as module globals when
# code runs, never bound when it is built, so that perfbench/spans.py can wrap them.


def compile_body(stmts):
    """Code that runs stmts in order and returns the last value (null if none)."""
    codes = [_compile(stmt) for stmt in stmts or ()]
    if len(codes) <= 1:
        return codes[0] if codes else _constant(None)
    init, last = tuple(codes[:-1]), codes[-1]

    def sequence(interp, scope):
        for code in init:
            code(interp, scope)
        return last(interp, scope)

    return sequence


def _compile(node, default=None):
    """Code for node, or code yielding default when there is no node."""
    return _constant(default) if node is None else _COMPILERS[type(node)](node)


def _error(node, kind, message):
    return NjexlError(kind, message, getattr(node, "line", None), getattr(node, "col", None))


def _constant(value):
    return lambda interp, scope: value


def _compile_Literal(node):
    return _constant(node.value)


def _compile_Identifier(node):
    name = node.name

    def identifier(interp, scope):
        while scope is not None:  # Scope.lookup inlined: the most frequent node
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise _error(node, "NameError", f"'{name}' is not defined")

    return identifier


def _compile_VarDecl(node):
    value = _compile(node.value)

    def var_decl(interp, scope):
        result = value(interp, scope)
        scope.declare_global(node.name, result)
        return result

    return var_decl


def _compile_Assign(node):
    value, target, add = _compile(node.value), node.target, node.op == "+="
    if isinstance(target, ast.Identifier):
        name, line, col = target.name, node.line, node.col

        def assign(interp, scope):
            result = value(interp, scope)
            if not add:
                scope.assign(name, result)
                return result
            bindings = scope.bindings
            if name in bindings:
                old = bindings[name]
            else:
                frame = scope.frame_of(name, target.line, target.col)
                old = frame.bindings[name]
                # a builtin's name is read from the builtins frame but bound here
                bindings = (scope if frame.parent is None else frame).bindings
            kind = type(old)  # the exact-type lane of compiled + (see _compile_Binary)
            if kind is type(result) and (kind is str or (
                kind is int and INT_MIN <= old <= INT_MAX and INT_MIN <= result <= INT_MAX
                and INT_MIN <= old + result <= INT_MAX
            )):
                result = old + result
            else:
                result = arith("+", old, result, line, col)
            bindings[name] = result
            return result

        return assign
    obj, index = _compile(target.obj), _compile(target.index)

    def assign_index(interp, scope):
        result = value(interp, scope)
        container, key = obj(interp, scope), index(interp, scope)
        if add:
            result = arith("+", _index_get(container, key, target), result, node.line, node.col)
        _index_set(container, key, result, target)
        return result

    return assign_index


def _index_get(obj, key, node):
    if isinstance(obj, XMap):
        if not obj.has(key):
            raise _error(node, "KeyError", f"key {stringify(key)} not in map")
        return obj.get(key)
    return project(obj, key, node.line, node.col)


def _index_set(obj, key, value, node):
    if isinstance(obj, XMap):
        obj.set(key, value, node.line, node.col)
    elif isinstance(obj, list):
        if not is_int_tier(key):
            raise _error(node, "TypeError", "list index must be an integer")
        if not 0 <= key < len(obj):
            raise _error(node, "IndexError", f"list index {key} out of range {len(obj)}")
        obj[key] = value
    else:
        raise _error(node, "TypeError", f"cannot assign into {tag(obj)}")


def _compile_MultiAssign(node):
    targets, capture, value = node.targets, node.capture, _compile(node.value)
    whole = capture is not None and len(targets) == 1

    def multi_assign(interp, scope):
        try:
            result = value(interp, scope)
            parts, error = [result] if whole else _destructure(result, len(targets), node), None
        except (NjexlError, RecursionError) as exc:
            if capture is None:
                raise
            exc = guest_error(exc)
            parts, error = [None] * len(targets), ErrorValue(exc.kind, exc.message, exc.cause)
        for name, part in zip(targets, parts):
            scope.assign(name, part)
        if capture is not None:
            scope.assign(capture, error)

    return multi_assign


def _destructure(value, count, node):
    if isinstance(value, Pair):
        parts = [value.first, value.second]
    elif isinstance(value, list):
        parts = list(value)
    else:
        raise _error(node, "DestructureError", f"cannot split {tag(value)} into {count} values")
    if len(parts) != count:
        raise _error(node, "DestructureError", f"expected {count} values, got {len(parts)}")
    return parts


def _compile_Import(node):
    return lambda interp, scope: scope.assign(node.alias, interp.import_module(node.path, node))


def _compile_FuncDef(node):
    name, params, body = node.name, node.params, compile_body(node.body)
    if name is None:
        return lambda interp, scope: Function(None, params, body, scope)

    def func_def(interp, scope):
        scope.bindings[name] = Function(name, params, body, scope)

    return func_def


def _choice(cond, then, orelse):
    return lambda interp, scope: (
        then(interp, scope) if truthiness(cond(interp, scope)) else orelse(interp, scope)
    )


def _compile_If(node):
    return _choice(_compile(node.cond), compile_body(node.then_body), compile_body(node.else_body))


def _compile_Ternary(node):
    return _choice(_compile(node.cond), _compile(node.then), _compile(node.orelse))


def _compile_For(node):
    var, iterable, body = node.var, _compile(node.iterable), compile_body(node.body)

    def for_(interp, scope):
        for item in enumerate_value(iterable(interp, scope), node.line, node.col):
            scope.bindings[var] = item
            try:
                body(interp, scope)
            except ContinueSignal:
                continue
            except BreakSignal:
                break

    return for_


def _compile_While(node):
    cond, body = _compile(node.cond), compile_body(node.body)

    def while_(interp, scope):
        while truthiness(cond(interp, scope)):
            try:
                body(interp, scope)
            except ContinueSignal:
                continue
            except BreakSignal:
                break

    return while_


def _jump(signal, node):
    """Code for break/continue: raise signal unless the condition is false."""
    cond = _compile(node.cond, True)

    def jump(interp, scope):
        if truthiness(cond(interp, scope)):
            raise signal()

    return jump


_compile_Break = functools.partial(_jump, BreakSignal)
_compile_Continue = functools.partial(_jump, ContinueSignal)


def _compile_Return(node):
    value = _compile(node.value)

    def return_(interp, scope):
        raise ReturnSignal(value(interp, scope))

    return return_


# exact-type lanes: on same-type plain int or str operands a compiled operator
# answers itself, with the value function's answer; every other input falls
# through to that function.  bool and BigInt are int subclasses, never plain int.
_TESTS = {"==": operator.eq, "eq": operator.eq, "!=": operator.ne}
_TESTS.update({"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge})
_TESTS.update(lt=operator.lt, le=operator.le, gt=operator.gt, ge=operator.ge)
_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_INT_OPS.update({"/": operator.floordiv, "%": operator.mod})


def _compile_Binary(node):
    op, lhs, rhs = node.op, _compile(node.left), _compile(node.right)
    if op == "and":
        return lambda interp, scope: (
            truthiness(lhs(interp, scope)) and truthiness(rhs(interp, scope))
        )
    if op == "or":
        return lambda interp, scope: (
            truthiness(lhs(interp, scope)) or truthiness(rhs(interp, scope))
        )
    if op == "xor":
        return lambda interp, scope: (
            truthiness(lhs(interp, scope)) != truthiness(rhs(interp, scope))
        )
    const = None
    if isinstance(node.right, ast.Literal):  # read as the constant it is: rhs is None then
        const, rhs = node.right.value, None
    if op == "@":

        def member(interp, scope):
            x, c = lhs(interp, scope), const if rhs is None else rhs(interp, scope)
            kind = type(x)
            if type(c) is list and (kind is int or kind is str) and native_kind(c) is kind:
                return x in c
            return membership(x, c, node.line, node.col)

        return member
    if op in _INT_OPS:
        # low <= a and low < b: / and % need a >= 0 < b, where floor division truncates
        fast, concat, low = _INT_OPS[op], op == "+", 0 if op in "/%" else INT_MIN

        def arith_(interp, scope):
            a, b = lhs(interp, scope), const if rhs is None else rhs(interp, scope)
            if type(a) is int and type(b) is int:
                if low <= a <= INT_MAX and low < b <= INT_MAX:
                    result = fast(a, b)
                    if INT_MIN <= result <= INT_MAX:
                        return result
            elif concat and type(a) is str and type(b) is str:
                return a + b
            return arith(op, a, b, node.line, node.col)

        return arith_
    test, negated = _TESTS[op], op == "!="
    if op in ("==", "eq", "!="):

        def equal(interp, scope):
            a, b = lhs(interp, scope), const if rhs is None else rhs(interp, scope)
            kind = type(a)
            if kind is type(b) and (kind is int or kind is str):
                return test(a, b)
            return values_equal(a, b, node.line, node.col) is not negated  # != is == negated

        return equal
    containment = op in ("<=", "le")

    def order(interp, scope):
        a, b = lhs(interp, scope), const if rhs is None else rhs(interp, scope)
        kind = type(a)
        if kind is type(b) and (kind is int or kind is str):
            return test(a, b)
        if is_collection(a) or is_collection(b):
            if containment and is_collection(a) and is_collection(b):
                return sub_collection(a, b, node.line, node.col)
            raise _error(node, "TypeError", f"cannot order {tag(a)} and {tag(b)} with {op}")
        return test(order_compare(a, b, node.line, node.col), 0)

    return order


def _compile_Unary(node):
    operand = _compile(node.operand)
    if isinstance(node, ast.Unary) and node.op == "not":
        return lambda interp, scope: not truthiness(operand(interp, scope))
    apply = cardinality if isinstance(node, ast.Cardinality) else negate
    return lambda interp, scope: apply(operand(interp, scope), node.line, node.col)


_compile_Cardinality = _compile_Unary


def _compile_ClockBlock(node):
    body = compile_body(node.body)

    def clock(interp, scope):
        frame, start = Scope(scope), interp.io.clock()
        value = body(interp, frame)
        return Pair(int(interp.io.clock() - start), value)

    return clock


def _compile_Call(node):
    return _call(node, _compile(node.callee), node.args, node.named, node.splat, node.block)


def _compile_StaticCall(node):
    alias, name = node.alias, node.name

    def member(interp, scope):
        module = scope.frame_of(alias, node.line, node.col).bindings[alias]
        if not isinstance(module, Module):
            raise _error(node, "TypeError", f"'{alias}' is not a module")
        if name not in module.bindings:
            raise _error(node, "NameError", f"module {module.path} has no member '{name}'")
        return module.bindings[name]

    return _call(node, member, node.args, (), None, None)


def _call(node, callee, args, named, splat, block):
    """Code for a call: the callee, then the arguments, then the call itself."""
    args = tuple(_compile(arg) for arg in args)
    named = tuple((name, _compile(arg)) for name, arg in named)
    splat = None if splat is None else _compile(splat)
    body = None if block is None else compile_body(block.body)

    def call(interp, scope):
        fn = callee(interp, scope)
        values = [arg(interp, scope) for arg in args]
        keywords = {name: arg(interp, scope) for name, arg in named} if named else {}
        if splat is not None:
            spread = splat(interp, scope)
            if not isinstance(spread, list):
                raise _error(node, "TypeError", f"__args__ must be a list, got {tag(spread)}")
            values = list(spread)
        closure = None if block is None else BlockClosure(block, scope, body)
        if isinstance(fn, NativeFunction):
            return fn.fn(interp, scope, values, keywords, closure, node)
        if isinstance(fn, Function):
            if closure is not None:
                raise _error(
                    node, "TypeError", f"function {fn.name or '<anon>'} does not take a block"
                )
            return interp.call_function(fn, values, keywords, node)
        raise _error(node, "TypeError", f"{tag(fn)} is not callable")

    return call


def _compile_Index(node):
    obj, index, const = _compile(node.obj), _compile(node.index), None
    if isinstance(node.index, ast.Literal):  # read as the constant it is: index is None then
        const, index = node.index.value, None

    def index_(interp, scope):
        v, i = obj(interp, scope), const if index is None else index(interp, scope)
        if type(v) is list and type(i) is int and 0 <= i < len(v):  # exact-type lane
            return v[i]
        return _index_get(v, i, node)

    return index_


def _compile_Member(node):
    obj, name = _compile(node.obj), node.name
    if name.isdigit():
        position = int(name)
        return lambda interp, scope: project(obj(interp, scope), position, node.line, node.col)
    return lambda interp, scope: _member(obj(interp, scope), node)


def _member(obj, node):
    name = node.name
    if isinstance(obj, Range) and name in ("list", "set"):
        convert = list if name == "list" else XSet
        return NativeFunction(name, lambda i, s, a, n, b, nd: convert(obj))
    if isinstance(obj, ErrorValue) and name in ("kind", "message", "cause"):
        return getattr(obj, name)
    raise _error(node, "TypeError", f"{tag(obj)} has no member '{name}'")


def _compile_RangeLit(node):
    start, end, step = _compile(node.start), _compile(node.end), _compile(node.step, 1)

    def range_lit(interp, scope):
        parts = start(interp, scope), end(interp, scope), step(interp, scope)
        for part, label in zip(parts, ("start", "end", "step")):
            if not is_int_tier(part):
                raise _error(node, "TypeError", f"range {label} must be an integer")
        return Range(*parts, node.line, node.col)

    return range_lit


def _compile_ListLit(node):
    items = tuple(_compile(item) for item in node.items)
    return lambda interp, scope: [item(interp, scope) for item in items]


def _compile_MapLit(node):
    entries = tuple((_compile(key), _compile(value), key) for key, value in node.entries)

    def map_lit(interp, scope):
        out = XMap()
        for key, value, key_node in entries:
            out.set(key(interp, scope), value(interp, scope), key_node.line, key_node.col)
        return out

    return map_lit


_COMPILERS = {
    getattr(ast, name[len("_compile_"):]): compiler
    for name, compiler in list(globals().items())
    if name.startswith("_compile_")
}


def new_global_scope(args=()):
    """A fresh global frame (atop a shared-shape builtins frame) with __args__."""
    from .stdlib import BUILTINS  # local import avoids a cycle

    return Scope(Scope(None, dict(BUILTINS)), {"__args__": list(args)})
