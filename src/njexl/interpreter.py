"""Two-tier evaluator: scopes, control flow, calls, blocks, imports.

Tier 0.  A Program is compiled once into nested closures
code(interp, scope) -> value (Feeley & Lapalme, "Using closures for code
generation", 1987), with operators, literals, comparison directions and
call shapes fixed when the code is built.  Compiled code never holds an
Interp, a Scope or a Function, and neither does the one state written onto
syntax-tree nodes (a body's tier state, below), so contexts are freed by
reference counting alone.  An Interp caches the code of recent source
texts: a repeated predicate skips the lexer, the parser and the compiler.

Tier 1.  Each function body and each block body keeps its tier state on its
syntax node, an ast.FuncDef or ast.AnonBlock: node.run is a function
body's code for one call or a block body's tier-0 code, node.heat its runs
counted toward tier-up, and node.tier_1 its tier-1 code for each use once
hot (see warm).  Every Function made from a FuncDef, and every call given
an AnonBlock, shares that state, whichever tier the code around it runs
in.  Nothing is built for a body until it first runs, in tier 0.  A block
body tiers up once its builtins have given it BLOCK_TIER_UP_AT elements,
before the loop that reaches that count when its source's length is known;
a function body on its FUNCTION_TIER_UP_AT-th call.  Tier-up translates the body into one flat
Python function (codegen.py) that raises the same errors; a body holding a
node kind the generator does not cover stays in tier 0.  Program bodies and
one-shot evaluations stay in tier 0.  Both tiers enter through
Interp.invoke_block and Interp.call_function, and both look the value
operations (arith, values_equal, ...) up in this module when they run.

Blocks.  A call with a block passes its AnonBlock node to the builtin,
which enters the block once per call in the frame it was called in:
Interp.invoke_block runs the builtin's whole loop, its step (codegen.STEPS)
around the body.  The sort comparators and minmax run a one-element loop
per comparison.  In tier 0 that is the step's loop around the body's
closures (_LOOPS); in tier 1 one generated function per body and step,
with the body inlined in the loop.

Frames.  A function body runs in the frame call_function builds for its
parameters.  Each element of a block runs in a frame binding $, _, $$ and,
under a step that gives a partial, _$_, that the step's loop builds,
except in tier-1 code of a block body that nothing can capture a frame from
and that binds no other name (codegen._own_writes): there those names are
Python locals and every other name is read from the block's parent frame.
A call keeps the frame because a builtin callee receives its caller's frame
(eval runs in it, and a def made there captures it).

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
from .codegen import STEPS, generate, tier_0_loop
from .errors import BreakSignal, ContinueSignal, NjexlError, ReturnSignal, guest_error
from .parser import parse_program
from .lexer import tokenize
from .values import (
    INT_LANE_LOW,
    INT_MAX,
    INT_MIN,
    ErrorValue,
    Function,
    Module,
    NativeFunction,
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
# cold bodies stay in tier 0: compile() costs far more than building closures,
# and tiering every body up on its first run made script_run about 22 % slower
BLOCK_TIER_UP_AT = 128  # elements, summed over a block body's builtin loops
FUNCTION_TIER_UP_AT = 32  # calls of a function body

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
        """Names bound to modules anywhere in the chain (for re-parsing).  The
        builtins frame binds none, and nothing writes it, so it is not read."""
        found = set()
        scope = self
        while scope.parent is not None:
            for name, value in scope.bindings.items():
                if isinstance(value, Module):
                    found.add(name)
            scope = scope.parent
        return found


def warm(node, step=None, count=1):
    """Count count more runs of node's body (calls of an ast.FuncDef,
    elements of an ast.AnonBlock) in node.heat, and return the code to run
    now.  For a function body (step None) that is node.run, run(interp,
    frame).  For a block body it is the loop of a builtin's step (a
    codegen.STEPS key) over its elements, run(interp, parent, items, source,
    partial, sink).

    The first time the count reaches the body's tier-up threshold, heat is
    set to -1: the body is hot.  Each use of a hot body (a call or a step)
    gets its tier-1 code the first time it runs, kept in node.tier_1, and a
    function's node.run becomes its tier-1 code.  A use the generator does
    not cover stays in tier 0.  The tier-0 closures, a block body's
    node.run, are built the first time tier-0 code runs: a body that never
    runs is never compiled, and neither is the tier-0 code of a body hot
    before its first run."""
    function = isinstance(node, ast.FuncDef)
    if node.heat >= 0:
        node.heat += count
        if node.heat >= (FUNCTION_TIER_UP_AT if function else BLOCK_TIER_UP_AT):
            node.heat, node.tier_1 = -1, {}
    if node.heat < 0:
        if step not in node.tier_1:
            node.tier_1[step] = generate(node, globals(), step)
        code = node.tier_1[step]
        if code is not None:
            if function:
                node.run = code
            return code
    if node.run is None:
        node.run = compile_body(node.body)
    return node.run if function else functools.partial(_LOOPS[step], node.run)


# each builtin step's loop around a block body's tier-0 code (codegen.tier_0_loop)
_LOOPS = {step: tier_0_loop(step, globals()) for step in STEPS}


def _counted(block, items):
    """items, each counted toward block's tier-up as the loop takes it: a
    lazy source's length is known only as it runs."""
    for item in items:
        if block.heat >= 0:
            block.heat += 1
        yield item


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
        body = fn.node
        params = body.params
        if len(args) > len(params):
            raise _error(
                node,
                "ArityError",
                f"{body.name or '<anon>'} takes {len(params)} arguments, got {len(args)}",
            )
        bindings = dict.fromkeys(params)
        bindings.update(zip(params, args))
        for name, value in (named or {}).items():
            if name not in params:
                raise _error(
                    node, "UnknownParameter", f"{body.name or '<anon>'} has no parameter '{name}'"
                )
            bindings[name] = value
        frame = Scope(fn.scope, bindings)
        run = body.run if body.heat < 0 else warm(body)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise self._too_deep(node)
        try:
            return run(self, frame)
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

    def invoke_block(self, block, scope, step, items, source, partial=None, sink=None):
        """Run a builtin's whole loop over items, an iterable, with its step
        (a codegen.STEPS key) around block, an ast.AnonBlock, in scope, the
        frame the builtin was called in; return what it gives.  Each
        element's $$ is source; under "fold" and "filter" its _$_ is the
        partial, and under the other steps _$_ is read and written through
        scope.  "index" gives the first index whose value is truthy, or -1;
        "map" passes each value to sink; "fold" gives each value to the
        next element as its partial and returns the last; "filter" passes
        each element whose value is truthy to sink; "compare" gives the
        truth of the first value.  A continue or break in the body skips
        the element or ends the loop.  The loop enters the block once, so
        it takes one frame of MAX_CALL_DEPTH.  The elements count toward the
        block's tier-up before the loop when items knows its length, else as
        they run."""
        run = block.tier_1.get(step) if block.heat < 0 else None
        if run is None:
            try:
                count = operator.length_hint(items)
            except OverflowError:  # a range longer than sys.maxsize: counted as it runs
                count = 0
            run = warm(block, step, count)
            if count == 0 and block.heat >= 0:
                items = _counted(block, items)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise self._too_deep(block)
        try:
            return run(self, scope, items, source, partial, sink)
        except RecursionError:
            raise _error(block, "StackOverflowError", "call depth exceeded") from None
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
        name, line, col, low = target.name, node.line, node.col, INT_LANE_LOW["+"]

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
            kind, other = type(old), type(result)  # the lanes of compiled + (_compile_Binary)
            if kind is other and (kind is str or (
                kind is int and low <= old <= INT_MAX and low < result <= INT_MAX
                and INT_MIN <= old + result <= INT_MAX
            )):
                result = old + result
            elif kind is str and other is int and INT_MIN <= result <= INT_MAX:
                result = old + str(result)
            elif kind is int and other is str and INT_MIN <= old <= INT_MAX:
                result = str(old) + result
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
    if isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise _error(node, "DestructureError", f"cannot split {tag(value)} into {count} values")
    if len(parts) != count:
        raise _error(node, "DestructureError", f"expected {count} values, got {len(parts)}")
    return parts


def _compile_Import(node):
    return lambda interp, scope: scope.assign(node.alias, interp.import_module(node.path, node))


def _compile_FuncDef(node):
    name = node.name
    if name is None:
        return lambda interp, scope: Function(node, scope)

    def func_def(interp, scope):
        scope.bindings[name] = Function(node, scope)

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


# exact-type lanes: on same-type plain int or str operands, and for + on a str
# and a plain int in the 64-bit range, a compiled operator answers itself, with
# the value function's answer; every other input falls through to that
# function.  bool and BigInt are int subclasses, never plain int.
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
        fast, concat, low = _INT_OPS[op], op == "+", INT_LANE_LOW[op]

        def arith_(interp, scope):
            a, b = lhs(interp, scope), const if rhs is None else rhs(interp, scope)
            kind, other = type(a), type(b)
            if kind is int and other is int:
                if low <= a <= INT_MAX and low < b <= INT_MAX:
                    result = fast(a, b)
                    if INT_MIN <= result <= INT_MAX:
                        return result
            elif concat and kind is str:
                if other is str:
                    return a + b
                if other is int and INT_MIN <= b <= INT_MAX:  # stringify's own text
                    return a + str(b)
            elif concat and kind is int and other is str and INT_MIN <= a <= INT_MAX:
                return str(a) + b
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

    def order(interp, scope):
        a, b = lhs(interp, scope), const if rhs is None else rhs(interp, scope)
        kind = type(a)
        if kind is type(b) and (kind is int or kind is str):
            return test(a, b)
        return _ordered(a, b, node)

    return order


def _ordered(a, b, node):
    """An ordering operator (node) on operands that its exact-type lane does not take."""
    if is_collection(a) or is_collection(b):
        if node.op in ("<=", "le") and is_collection(a) and is_collection(b):
            return sub_collection(a, b, node.line, node.col)
        raise _error(node, "TypeError", f"cannot order {tag(a)} and {tag(b)} with {node.op}")
    return _TESTS[node.op](order_compare(a, b, node.line, node.col), 0)


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
        return (int(interp.io.clock() - start), value)

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

    call = _call(node, member, node.args, (), None, None)

    def static_call(interp, scope):
        # the only call of a host native: an error it raises without a position takes the call's
        try:
            return call(interp, scope)
        except NjexlError as exc:
            if exc.line is None:
                exc.line, exc.col = node.line, node.col
            raise

    return static_call


def _call(node, callee, args, named, splat, block):
    """Code for a call: the callee, then the arguments, then the call itself."""
    args = tuple(_compile(arg) for arg in args)
    named = tuple((name, _compile(arg)) for name, arg in named)
    splat = None if splat is None else _compile(splat)

    def call(interp, scope):
        fn = callee(interp, scope)
        values = [arg(interp, scope) for arg in args]
        keywords = {name: arg(interp, scope) for name, arg in named} if named else {}
        if splat is not None:
            spread = splat(interp, scope)
            if not isinstance(spread, list):
                raise _error(node, "TypeError", f"__args__ must be a list, got {tag(spread)}")
            values = list(spread)
        if isinstance(fn, NativeFunction):
            return fn.fn(interp, scope, values, keywords, block, node)
        if isinstance(fn, Function) and block is None:
            return interp.call_function(fn, values, keywords, node)
        raise _uncallable(fn, node)

    return call


def _uncallable(fn, node):
    """The error for calling fn, which is neither a builtin nor, with a block
    given, a function."""
    if isinstance(fn, Function):
        name = fn.node.name or "<anon>"
        return _error(node, "TypeError", f"function {name} does not take a block")
    return _error(node, "TypeError", f"{tag(fn)} is not callable")


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
    if isinstance(obj, range) and name in ("list", "set"):
        convert = list if name == "list" else XSet
        return NativeFunction(name, lambda i, s, a, n, b, nd: convert(obj))
    if isinstance(obj, ErrorValue) and name in ("kind", "message", "cause"):
        return getattr(obj, name)
    raise _error(node, "TypeError", f"{tag(obj)} has no member '{name}'")


def _compile_RangeLit(node):
    start, end, step = _compile(node.start), _compile(node.end), _compile(node.step, 1)

    return lambda interp, scope: _range(
        start(interp, scope), end(interp, scope), step(interp, scope), node
    )


def _range(start, end, step, node):
    parts = start, end, step
    for part, label in zip(parts, ("start", "end", "step")):
        if not is_int_tier(part):
            raise _error(node, "TypeError", f"range {label} must be an integer")
    if step == 0:
        raise _error(node, "TypeError", "range step must not be zero")
    return range(*parts)


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
