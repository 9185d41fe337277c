"""The tree-walking evaluator njexl used before its closure compiler.

This is the old `Interp` and `BlockClosure` of njexl.interpreter, kept
verbatim as a reference: test_compiler_oracle.py runs programs through both
and requires the same value, output and error.  It shares Scope, the value
model and the builtins with the compiler, so the two differ only in how a
syntax tree is evaluated.
"""

import os

from njexl import ast
from njexl.errors import BreakSignal, ContinueSignal, NjexlError, ReturnSignal
from njexl.interpreter import _MISSING, MAX_CALL_DEPTH, Scope, new_global_scope
from njexl.lexer import tokenize
from njexl.parser import parse_program
from njexl.values import (
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
    negate,
    order_compare,
    project,
    stringify,
    sub_collection,
    tag,
    truthiness,
    values_equal,
)


class BlockClosure:
    """An anonymous block captured together with its defining scope."""

    __slots__ = ("block", "scope", "interp")

    def __init__(self, block, scope, interp):
        self.block = block
        self.scope = scope
        self.interp = interp

    def run(self, item, index, source, partial=_MISSING):
        return self.interp.invoke_block(self, item, index, source, partial)


class Interp:
    def __init__(self, io, registry=None, script_path=None):
        from njexl.stdlib import default_registry

        self.io = io
        self.registry = default_registry() if registry is None else registry
        self.module_cache = {}
        self.loading = set()
        self.depth = 0
        self.script_dir = os.path.dirname(os.path.abspath(script_path)) if script_path else None
        self._dispatch = {
            ast.Program: self._eval_program,
            ast.VarDecl: self._eval_var_decl,
            ast.Assign: self._eval_assign,
            ast.MultiAssign: self._eval_multi_assign,
            ast.Import: self._eval_import,
            ast.FuncDef: self._eval_func_def,
            ast.If: self._eval_if,
            ast.For: self._eval_for,
            ast.While: self._eval_while,
            ast.Break: self._eval_break,
            ast.Continue: self._eval_continue,
            ast.Return: self._eval_return,
            ast.Ternary: self._eval_ternary,
            ast.Binary: self._eval_binary,
            ast.Unary: self._eval_unary,
            ast.Cardinality: self._eval_cardinality,
            ast.ClockBlock: self._eval_clock,
            ast.Call: self._eval_call,
            ast.StaticCall: self._eval_static_call,
            ast.Index: self._eval_index,
            ast.Member: self._eval_member,
            ast.RangeLit: self._eval_range_lit,
            ast.ListLit: self._eval_list_lit,
            ast.MapLit: self._eval_map_lit,
            ast.Literal: self._eval_literal,
            ast.Identifier: self._eval_identifier,
        }

    # --- program / statement layer ------------------------------------------

    def run_program(self, program, scope):
        try:
            return self.exec_statements(program.body, scope)
        except ReturnSignal:
            raise NjexlError("SyntaxError", "'return' outside a function") from None
        except BreakSignal:
            raise NjexlError("SyntaxError", "'break' outside a loop") from None
        except ContinueSignal:
            raise NjexlError("SyntaxError", "'continue' outside a loop") from None

    def run_source(self, source, scope):
        tokens = tokenize(source)
        program = parse_program(tokens, scope.module_aliases())
        return self.run_program(program, scope)

    def exec_statements(self, stmts, scope):
        value = None
        for stmt in stmts:
            value = self.eval(stmt, scope)
        return value

    def eval(self, node, scope):
        return self._dispatch[type(node)](node, scope)

    def _eval_program(self, node, scope):
        return self.exec_statements(node.body, scope)

    def _eval_var_decl(self, node, scope):
        value = self.eval(node.value, scope) if node.value is not None else None
        scope.declare_global(node.name, value)
        return value

    def _eval_assign(self, node, scope):
        value = self.eval(node.value, scope)
        target = node.target
        if isinstance(target, ast.Identifier):
            if node.op == "+=":
                current = scope.lookup(target.name, target.line, target.col)
                value = arith("+", current, value, node.line, node.col)
            scope.assign(target.name, value)
            return value
        # index target
        obj = self.eval(target.obj, scope)
        key = self.eval(target.index, scope)
        if node.op == "+=":
            current = self._index_get(obj, key, target)
            value = arith("+", current, value, node.line, node.col)
        self._index_set(obj, key, value, target)
        return value

    def _index_get(self, obj, key, node):
        if isinstance(obj, XMap):
            if not obj.has(key):
                raise NjexlError(
                    "KeyError", f"key {stringify(key)} not in map", node.line, node.col
                )
            return obj.get(key)
        return project(obj, key, node.line, node.col)

    def _index_set(self, obj, key, value, node):
        if isinstance(obj, XMap):
            obj.set(key, value, node.line, node.col)
            return
        if isinstance(obj, list):
            if not is_int_tier(key):
                raise NjexlError("TypeError", "list index must be an integer", node.line, node.col)
            if not 0 <= key < len(obj):
                raise NjexlError(
                    "IndexError", f"list index {key} out of range {len(obj)}", node.line, node.col
                )
            obj[key] = value
            return
        raise NjexlError("TypeError", f"cannot assign into {tag(obj)}", node.line, node.col)

    def _eval_multi_assign(self, node, scope):
        if node.capture is None:
            value = self.eval(node.value, scope)
            parts = self._destructure(value, len(node.targets), node)
            for name, part in zip(node.targets, parts):
                scope.assign(name, part)
            return None
        try:
            value = self.eval(node.value, scope)
            if len(node.targets) == 1:
                parts = [value]
            else:
                parts = self._destructure(value, len(node.targets), node)
        except NjexlError as exc:
            for name in node.targets:
                scope.assign(name, None)
            scope.assign(node.capture, ErrorValue(exc.kind, exc.message, exc.cause))
            return None
        except RecursionError:
            for name in node.targets:
                scope.assign(name, None)
            scope.assign(node.capture, ErrorValue("StackOverflowError", "call depth exceeded"))
            return None
        for name, part in zip(node.targets, parts):
            scope.assign(name, part)
        scope.assign(node.capture, None)
        return None

    def _destructure(self, value, count, node):
        if isinstance(value, Pair):
            parts = [value.first, value.second]
        elif isinstance(value, list):
            parts = list(value)
        else:
            raise NjexlError(
                "DestructureError",
                f"cannot split {tag(value)} into {count} values",
                node.line,
                node.col,
            )
        if len(parts) != count:
            raise NjexlError(
                "DestructureError",
                f"expected {count} values, got {len(parts)}",
                node.line,
                node.col,
            )
        return parts

    def _eval_import(self, node, scope):
        module = self.import_module(node.path, node)
        scope.assign(node.alias, module)
        return None

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

    def _eval_func_def(self, node, scope):
        fn = Function(node.name, node.params, node.body, scope)
        if node.name is not None:
            scope.bindings[node.name] = fn
            return None
        return fn

    def _eval_if(self, node, scope):
        if truthiness(self.eval(node.cond, scope)):
            return self.exec_statements(node.then_body, scope)
        if node.else_body is not None:
            return self.exec_statements(node.else_body, scope)
        return None

    def _eval_for(self, node, scope):
        iterable = self.eval(node.iterable, scope)
        for item in enumerate_value(iterable, node.line, node.col):
            scope.bindings[node.var] = item
            try:
                self.exec_statements(node.body, scope)
            except ContinueSignal:
                continue
            except BreakSignal:
                break
        return None

    def _eval_while(self, node, scope):
        while truthiness(self.eval(node.cond, scope)):
            try:
                self.exec_statements(node.body, scope)
            except ContinueSignal:
                continue
            except BreakSignal:
                break
        return None

    def _eval_break(self, node, scope):
        if node.cond is None or truthiness(self.eval(node.cond, scope)):
            raise BreakSignal()
        return None

    def _eval_continue(self, node, scope):
        if node.cond is None or truthiness(self.eval(node.cond, scope)):
            raise ContinueSignal()
        return None

    def _eval_return(self, node, scope):
        value = self.eval(node.value, scope) if node.value is not None else None
        raise ReturnSignal(value)

    def _eval_ternary(self, node, scope):
        if truthiness(self.eval(node.cond, scope)):
            return self.eval(node.then, scope)
        return self.eval(node.orelse, scope)

    def _eval_binary(self, node, scope):
        op = node.op
        if op == "and":
            left = self.eval(node.left, scope)
            if not truthiness(left):
                return False
            return truthiness(self.eval(node.right, scope))
        if op == "or":
            left = self.eval(node.left, scope)
            if truthiness(left):
                return True
            return truthiness(self.eval(node.right, scope))
        left = self.eval(node.left, scope)
        right = self.eval(node.right, scope)
        if op == "xor":
            return truthiness(left) != truthiness(right)
        if op in ("==", "eq"):
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)
        if op == "@":
            return membership(left, right, node.line, node.col)
        if op in ("<", "<=", ">", ">=", "lt", "le", "gt", "ge"):
            return self._compare(op, left, right, node)
        return arith(op, left, right, node.line, node.col)

    def _compare(self, op, left, right, node):
        if op in ("<=", "le") and is_collection(left) and is_collection(right):
            return sub_collection(left, right, node.line, node.col)
        if is_collection(left) or is_collection(right):
            raise NjexlError(
                "TypeError",
                f"cannot order {tag(left)} and {tag(right)} with {op}",
                node.line,
                node.col,
            )
        c = order_compare(left, right, node.line, node.col)
        if op in ("<", "lt"):
            return c < 0
        if op in ("<=", "le"):
            return c <= 0
        if op in (">", "gt"):
            return c > 0
        return c >= 0

    def _eval_unary(self, node, scope):
        value = self.eval(node.operand, scope)
        if node.op == "not":
            return not truthiness(value)
        return negate(value, node.line, node.col)

    def _eval_cardinality(self, node, scope):
        return cardinality(self.eval(node.operand, scope), node.line, node.col)

    def _eval_clock(self, node, scope):
        frame = Scope(scope)
        start = self.io.clock()
        value = self.exec_statements(node.body, frame)
        elapsed = self.io.clock() - start
        return Pair(int(elapsed), value)

    def _eval_call(self, node, scope):
        callee = self.eval(node.callee, scope)
        args = [self.eval(a, scope) for a in node.args]
        named = {name: self.eval(v, scope) for name, v in node.named}
        if node.splat is not None:
            splat = self.eval(node.splat, scope)
            if not isinstance(splat, list):
                raise NjexlError(
                    "TypeError", f"__args__ must be a list, got {tag(splat)}", node.line, node.col
                )
            args = list(splat)
        block = BlockClosure(node.block, scope, self) if node.block is not None else None
        return self.call_value(callee, args, named, block, node, scope)

    def call_value(self, callee, args, named, block, node, scope):
        if isinstance(callee, NativeFunction):
            return callee.fn(self, scope, args, named, block, node)
        if isinstance(callee, Function):
            if block is not None:
                raise NjexlError(
                    "TypeError",
                    f"function {callee.name or '<anon>'} does not take a block",
                    node.line,
                    node.col,
                )
            return self.call_function(callee, args, named, node)
        raise NjexlError("TypeError", f"{tag(callee)} is not callable", node.line, node.col)

    def call_function(self, fn, args, named=None, node=None):
        line = getattr(node, "line", None)
        col = getattr(node, "col", None)
        if len(args) > len(fn.params):
            raise NjexlError(
                "ArityError",
                f"{fn.name or '<anon>'} takes {len(fn.params)} arguments, got {len(args)}",
                line,
                col,
            )
        frame = Scope(fn.scope)
        for name in fn.params:
            frame.bindings[name] = None
        for name, value in zip(fn.params, args):
            frame.bindings[name] = value
        for name, value in (named or {}).items():
            if name not in fn.params:
                raise NjexlError(
                    "UnknownParameter",
                    f"{fn.name or '<anon>'} has no parameter '{name}'",
                    line,
                    col,
                )
            frame.bindings[name] = value
        self._enter_frame(line, col)
        try:
            return self.exec_statements(fn.body, frame)
        except ReturnSignal as ret:
            return ret.value
        except RecursionError:
            raise NjexlError("StackOverflowError", "call depth exceeded", line, col) from None
        finally:
            self.depth -= 1

    def _enter_frame(self, line, col):
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            self.depth -= 1
            raise NjexlError(
                "StackOverflowError", f"recursion deeper than {MAX_CALL_DEPTH} frames", line, col
            )

    def invoke_block(self, closure, item, index, source, partial=_MISSING):
        """Run an anonymous block for one element.

        Returns ('value', v) normally, ('skip', None) when the block issued
        continue, and ('stop', None) when it issued break.
        """
        frame = Scope(closure.scope)
        frame.bindings["$"] = item
        frame.bindings["_"] = index
        frame.bindings["$$"] = source
        if partial is not _MISSING:
            frame.bindings["_$_"] = partial
        block = closure.block
        self._enter_frame(block.line, block.col)
        try:
            return ("value", self.exec_statements(block.body, frame))
        except ContinueSignal:
            return ("skip", None)
        except BreakSignal:
            return ("stop", None)
        except RecursionError:
            raise NjexlError(
                "StackOverflowError", "call depth exceeded", block.line, block.col
            ) from None
        finally:
            self.depth -= 1

    def _eval_static_call(self, node, scope):
        module = scope.lookup(node.alias, node.line, node.col)
        if not isinstance(module, Module):
            raise NjexlError(
                "TypeError", f"'{node.alias}' is not a module", node.line, node.col
            )
        if node.name not in module.bindings:
            raise NjexlError(
                "NameError",
                f"module {module.path} has no member '{node.name}'",
                node.line,
                node.col,
            )
        fn = module.bindings[node.name]
        args = [self.eval(a, scope) for a in node.args]
        return self.call_value(fn, args, {}, None, node, scope)

    def _eval_index(self, node, scope):
        obj = self.eval(node.obj, scope)
        key = self.eval(node.index, scope)
        return self._index_get(obj, key, node)

    def _eval_member(self, node, scope):
        obj = self.eval(node.obj, scope)
        name = node.name
        if name.isdigit():
            return project(obj, int(name), node.line, node.col)
        if isinstance(obj, Range):
            if name == "list":
                return NativeFunction("list", lambda i, s, a, n, b, nd, rng=obj: list(rng))
            if name == "set":
                return NativeFunction("set", lambda i, s, a, n, b, nd, rng=obj: XSet(rng))
        if isinstance(obj, ErrorValue):
            if name == "kind":
                return obj.kind
            if name == "message":
                return obj.message
            if name == "cause":
                return obj.cause
        raise NjexlError("TypeError", f"{tag(obj)} has no member '{name}'", node.line, node.col)

    def _eval_range_lit(self, node, scope):
        start = self.eval(node.start, scope)
        end = self.eval(node.end, scope)
        step = self.eval(node.step, scope) if node.step is not None else 1
        for part, label in ((start, "start"), (end, "end"), (step, "step")):
            if not is_int_tier(part):
                raise NjexlError(
                    "TypeError", f"range {label} must be an integer", node.line, node.col
                )
        return Range(start, end, step, node.line, node.col)

    def _eval_list_lit(self, node, scope):
        return [self.eval(item, scope) for item in node.items]

    def _eval_map_lit(self, node, scope):
        out = XMap()
        for key_node, value_node in node.entries:
            key = self.eval(key_node, scope)
            value = self.eval(value_node, scope)
            out.set(key, value, key_node.line, key_node.col)
        return out

    def _eval_literal(self, node, scope):
        return node.value

    def _eval_identifier(self, node, scope):
        return scope.lookup(node.name, node.line, node.col)
