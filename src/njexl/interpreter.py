"""Two-tier evaluator: scopes, control flow, calls, blocks, imports.

Tier 0.  A Program is compiled once into nested closures
code(interp, scope) -> value (Feeley & Lapalme, "Using closures for code
generation", 1987), with operators, literals, comparison directions and
call shapes fixed when the code is built.  A node's closure is made from
the template of its shape (codegen.template_key) that tier 1's emitter
writes the first time a node of that shape is compiled
(codegen.tier_0_template), as builtins' loops are (tier_0_loop), so the
code of every node kind, each exact-type lane included, is written once.
Compiled code never holds an Interp, a Scope or a Function, and neither
does the one state written onto syntax-tree nodes (a body's tier state,
below), so contexts are freed by reference counting alone.  An Interp
caches the code of recent source texts: a repeated predicate skips the
lexer, the parser and the compiler.

Tier 1.  Each function body and each block body keeps its tier state on its
syntax node, an ast.FuncDef or ast.AnonBlock: node.run is a function
body's code for one call or a block body's tier-0 code, node.heat its runs
counted toward tier-up, and node.tier_1 its tier-1 code for each use once
hot (see warm).  Every Function made from a FuncDef, and every call given
an AnonBlock, shares that state, whichever tier the code around it runs
in.  Nothing is built for a body until it first runs, in tier 0.  A block
body tiers up once its builtins have given it BLOCK_TIER_UP_AT elements,
before the loop that reaches that count when its source's length is known;
a function body on its FUNCTION_TIER_UP_AT-th call.  Tier-up translates
the body into one flat Python function (codegen.py) that raises the same
errors; a body nested too deep for one stays in tier 0.  Program bodies
and one-shot evaluations stay in tier 0.  Both tiers enter a function body
through Interp.enter and a block body through Interp.invoke_block (but for
the builtin calls that tier-1 block code runs inline, see Blocks), and
both look the value operations (arith, values_equal, ...) up in this
module when they run.

Calls.  A compiled call of a Function given one positional argument per
parameter, and no named ones, __args__ or block, builds the frame of them
and enters the body through Interp.enter (codegen._Call).  Any other call
of a Function goes through Interp.call_function, which binds arguments,
named ones and nulls first, and a builtin or host native through its fn,
except the block builtin calls that tier-1 block code runs inline (below).

Blocks.  A call with a block passes its AnonBlock node to the builtin,
which enters the block once per call in the frame it was called in:
Interp.invoke_block runs the builtin's whole loop, its step (codegen.STEPS)
around the body.  The sort comparators and minmax run a one-element loop
per comparison.  In tier 0 that is the step's loop around the body's
closures (_LOOPS); in tier 1 one generated function per body and step,
with the body inlined in the loop.  In a block body's tier-1 code, a call
of index, list, set, lfold or rfold whose callee is that builtin does
what the builtin and invoke_block would, with the inner block's body
inlined in the loop too (codegen._Generator.inline); that inner block
counts no heat and gets no code of its own from such a call.

Frames.  A function body runs in the frame Interp.enter builds of its
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
import operator
import os
import queue
import sys
import threading
import weakref

from . import ast
from .codegen import STEPS, generate, template_key, tier_0_loop, tier_0_template
from .errors import BreakSignal, ContinueSignal, NjexlError, ReturnSignal, guest_error
from .parser import parse_program
from .lexer import tokenize
from .values import (
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
    function's node.run becomes its tier-1 code.  A use nested too deep for
    the generator stays in tier 0.  The tier-0 closures, a block body's
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
    if function:
        return node.run
    loop, body = _LOOPS[step], node.run

    # a Python closure, not functools.partial: a C call here would take one C
    # frame per level of guest recursion through a block, which 3.12 and
    # later refuse long before the frame cap
    def run(interp, parent, items, source, partial, sink):
        return loop(body, interp, parent, items, source, partial, sink)

    return run


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
        """Call fn, a guest Function, at node: bind args and named (a dict)
        to its parameters, null to each one given neither, and enter it."""
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
        return self.enter(fn, bindings, node)

    def enter(self, fn, bindings, node=None):
        """Run the body of fn, a guest Function called at node, in a frame of
        bindings (one per parameter) and return its value.  A compiled call
        of a Function with one argument per parameter comes here directly
        (codegen._Call).  The call takes one frame of MAX_CALL_DEPTH."""
        body = fn.node
        run = body.run if body.heat < 0 else warm(body)
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise self._too_deep(node)
        try:
            return run(self, Scope(fn.scope, bindings))
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


# --- compiler: a node's code comes from its shape's template; helpers that code calls --
# Value operations (arith, values_equal, ...) are looked up as module globals when
# code runs, never bound when it is built, so that perfbench/spans.py can wrap them.


def compile_body(stmts):
    """Code that runs stmts in order and returns the last value (null if none)."""
    codes = [_compile(stmt) for stmt in stmts or ()]
    if len(codes) <= 1:
        return codes[0] if codes else lambda interp, scope: None
    init, last = tuple(codes[:-1]), codes[-1]

    def sequence(interp, scope):
        for code in init:
            code(interp, scope)
        return last(interp, scope)

    return sequence


def _compile(node):
    """Code for node: its shape's template's (codegen.tier_0_template), built on first use."""
    key = template_key(node)
    make = _TEMPLATES.get(key)
    if make is None:
        make = _TEMPLATES[key] = tier_0_template(node, globals())
    return make(node)


_TEMPLATES = {}  # codegen.template_key -> its make(node)


def _error(node, kind, message):
    return NjexlError(kind, message, getattr(node, "line", None), getattr(node, "col", None))


def _undefined(node):
    """The error for node, an ast.Identifier whose name no frame binds."""
    return _error(node, "NameError", f"'{node.name}' is not defined")


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


def _destructure(value, node):
    """The parts of value for the targets of node, an ast.MultiAssign: value
    whole when a capture follows one target."""
    count = len(node.targets)
    if count == 1 and node.capture is not None:
        return [value]
    if not isinstance(value, (list, tuple)):
        raise _error(node, "DestructureError", f"cannot split {tag(value)} into {count} values")
    if len(value) != count:
        raise _error(node, "DestructureError", f"expected {count} values, got {len(value)}")
    return value


# the orderings' tests of order_compare's answer, for the operands their lanes do not take
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ORDERINGS.update(lt=operator.lt, le=operator.le, gt=operator.gt, ge=operator.ge)


def _ordered(a, b, node):
    """An ordering operator (node) on operands that its exact-type lane does not take."""
    if is_collection(a) or is_collection(b):
        if node.op in ("<=", "le") and is_collection(a) and is_collection(b):
            return sub_collection(a, b, node.line, node.col)
        raise _error(node, "TypeError", f"cannot order {tag(a)} and {tag(b)} with {node.op}")
    return _ORDERINGS[node.op](order_compare(a, b, node.line, node.col), 0)


def _module_member(scope, node):
    """The member node.name of the module that node.alias names, for an ast.StaticCall."""
    alias, name = node.alias, node.name
    module = scope.frame_of(alias, node.line, node.col).bindings[alias]
    if not isinstance(module, Module):
        raise _error(node, "TypeError", f"'{alias}' is not a module")
    if name not in module.bindings:
        raise _error(node, "NameError", f"module {module.path} has no member '{name}'")
    return module.bindings[name]


def _call_static(interp, scope, node, fn, args):
    """Call fn, a module's member, with args for node, an ast.StaticCall.
    The only call of a host native: an error it raises without a position
    takes the call's."""
    try:
        if isinstance(fn, NativeFunction):
            return fn.fn(interp, scope, args, {}, None, node)
        if isinstance(fn, Function):
            return interp.call_function(fn, args, {}, node)
        raise _uncallable(fn, node)
    except NjexlError as exc:
        if exc.line is None:
            exc.line, exc.col = node.line, node.col
        raise


def _uncallable(fn, node):
    """The error for calling fn, which is neither a builtin nor, with a block
    given, a function."""
    if isinstance(fn, Function):
        name = fn.node.name or "<anon>"
        return _error(node, "TypeError", f"function {name} does not take a block")
    return _error(node, "TypeError", f"{tag(fn)} is not callable")


def _member(obj, node):
    name = node.name
    if isinstance(obj, range) and name in ("list", "set"):
        convert = list if name == "list" else XSet
        return NativeFunction(name, lambda i, s, a, n, b, nd: convert(obj))
    if isinstance(obj, ErrorValue) and name in ("kind", "message", "cause"):
        return getattr(obj, name)
    raise _error(node, "TypeError", f"{tag(obj)} has no member '{name}'")


def _range(start, end, step, node):
    parts = start, end, step
    for part, label in zip(parts, ("start", "end", "step")):
        if not is_int_tier(part):
            raise _error(node, "TypeError", f"range {label} must be an integer")
    if step == 0:
        raise _error(node, "TypeError", "range step must not be zero")
    return range(*parts)


def new_global_scope(args=()):
    """A fresh global frame (atop a shared-shape builtins frame) with __args__."""
    from .stdlib import BUILTINS  # local import avoids a cycle

    return Scope(Scope(None, dict(BUILTINS)), {"__args__": list(args)})
