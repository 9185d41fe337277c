"""Syntax tree nodes and a deterministic text dump used for golden tests.

A node kind's one constructor, (line, col, *fields), assigns its fields in
that order, and Node sets the kind's __match_args__ from its parameters: so
vars(node) and __match_args__ give the same field list, which codegen reads.
Nodes compare and hash by identity, with object's repr.
"""

from decimal import Decimal


class Node:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]


class Program(Node):
    def __init__(self, line, col, body):
        self.line, self.col, self.body = line, col, body


class VarDecl(Node):
    def __init__(self, line, col, name, value):
        self.line, self.col, self.name = line, col, name
        self.value = value  # Node or None


class Assign(Node):
    def __init__(self, line, col, target, op, value):
        self.line, self.col, self.target = line, col, target
        self.op = op  # '=' or '+='
        self.value = value


class MultiAssign(Node):
    def __init__(self, line, col, targets, capture, value):
        self.line, self.col = line, col
        self.targets = targets  # of str
        self.capture = capture  # str or None; always the last target when present
        self.value = value


class Import(Node):
    def __init__(self, line, col, path, alias):
        self.line, self.col, self.path = line, col, path
        self.alias = alias


class FuncDef(Node):
    def __init__(self, line, col, name, params, body):
        self.line, self.col = line, col
        self.name = name  # str or None for anonymous function expressions
        self.params, self.body = params, body

    # the body's tier state: class attributes until interpreter.warm writes
    # them onto the node, so that vars() of a fresh node is its fields only
    run = tier_1 = None
    heat = 0


class AnonBlock(Node):
    def __init__(self, line, col, body):
        self.line, self.col, self.body = line, col, body

    run = tier_1 = None  # tier state, as FuncDef's
    heat = 0


class If(Node):
    def __init__(self, line, col, cond, then_body, else_body):
        self.line, self.col, self.cond = line, col, cond
        self.then_body = then_body
        self.else_body = else_body  # list or None


class For(Node):
    def __init__(self, line, col, var, iterable, body):
        self.line, self.col, self.var = line, col, var
        self.iterable, self.body = iterable, body


class While(Node):
    def __init__(self, line, col, cond, body):
        self.line, self.col, self.cond = line, col, cond
        self.body = body


class Break(Node):
    def __init__(self, line, col, cond):
        self.line, self.col = line, col
        self.cond = cond  # Node or None


class Continue(Node):
    def __init__(self, line, col, cond):
        self.line, self.col, self.cond = line, col, cond


class Return(Node):
    def __init__(self, line, col, value):
        self.line, self.col, self.value = line, col, value


class Ternary(Node):
    def __init__(self, line, col, cond, then, orelse):
        self.line, self.col, self.cond = line, col, cond
        self.then, self.orelse = then, orelse


class Binary(Node):
    def __init__(self, line, col, op, left, right):
        self.line, self.col, self.op = line, col, op
        self.left, self.right = left, right


class Unary(Node):
    def __init__(self, line, col, op, operand):
        self.line, self.col, self.op = line, col, op
        self.operand = operand


class Cardinality(Node):
    def __init__(self, line, col, operand):
        self.line, self.col, self.operand = line, col, operand


class ClockBlock(Node):
    def __init__(self, line, col, body):
        self.line, self.col, self.body = line, col, body


class Call(Node):
    def __init__(self, line, col, callee, args, named, splat, block=None):
        self.line, self.col, self.callee = line, col, callee
        self.args = args
        self.named = named  # of (name, Node)
        self.splat = splat  # Node or None
        self.block = block  # AnonBlock or None


class StaticCall(Node):
    def __init__(self, line, col, alias, name, args):
        self.line, self.col, self.alias = line, col, alias
        self.name, self.args = name, args


class Index(Node):
    def __init__(self, line, col, obj, index):
        self.line, self.col, self.obj = line, col, obj
        self.index = index


class Member(Node):
    def __init__(self, line, col, obj, name):
        self.line, self.col, self.obj = line, col, obj
        self.name = name  # all-digits names are numeric projections


class RangeLit(Node):
    def __init__(self, line, col, start, end, step):
        self.line, self.col, self.start = line, col, start
        self.end = end
        self.step = step  # Node or None


class ListLit(Node):
    def __init__(self, line, col, items):
        self.line, self.col, self.items = line, col, items


class MapLit(Node):
    def __init__(self, line, col, entries):
        self.line, self.col = line, col
        self.entries = entries  # of (key Node, value Node)


class Literal(Node):
    def __init__(self, line, col, value):
        self.line, self.col, self.value = line, col, value


class Identifier(Node):
    def __init__(self, line, col, name):
        self.line, self.col, self.name = line, col, name


def _lit_text(value):
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
        return f"'{escaped}'"
    if isinstance(value, Decimal):
        return str(value)
    return repr(value)


def dump(node):
    """Render a node as an indented one-node-per-line text dump."""
    lines = []
    _dump(node, 0, lines)
    return "\n".join(lines)


def _dump(node, depth, lines):
    pad = "  " * depth
    pos = f"({node.line}:{node.col})"

    def put(label, children=()):
        lines.append(f"{pad}{label} {pos}")
        for child in children:
            _dump(child, depth + 1, lines)

    def put_raw(text):
        lines.append(f"{'  ' * (depth + 1)}{text}")

    if isinstance(node, Program):
        put("Program", node.body)
    elif isinstance(node, VarDecl):
        put(f"VarDecl {node.name}", [node.value] if node.value else [])
    elif isinstance(node, Assign):
        put(f"Assign {node.op}", [node.target, node.value])
    elif isinstance(node, MultiAssign):
        names = list(node.targets)
        if node.capture is not None:
            names.append(":" + node.capture)
        put(f"MultiAssign {','.join(names)}", [node.value])
    elif isinstance(node, Import):
        put(f"Import '{node.path}' as {node.alias}")
    elif isinstance(node, FuncDef):
        put(f"FuncDef {node.name or '<anon>'}({','.join(node.params)})", node.body)
    elif isinstance(node, AnonBlock):
        put("AnonBlock", node.body)
    elif isinstance(node, If):
        put("If", [node.cond])
        put_raw("then:")
        for child in node.then_body:
            _dump(child, depth + 2, lines)
        if node.else_body is not None:
            put_raw("else:")
            for child in node.else_body:
                _dump(child, depth + 2, lines)
    elif isinstance(node, For):
        put(f"For {node.var}", [node.iterable] + node.body)
    elif isinstance(node, While):
        put("While", [node.cond] + node.body)
    elif isinstance(node, Break):
        put("Break", [node.cond] if node.cond else [])
    elif isinstance(node, Continue):
        put("Continue", [node.cond] if node.cond else [])
    elif isinstance(node, Return):
        put("Return", [node.value] if node.value else [])
    elif isinstance(node, Ternary):
        put("Ternary", [node.cond, node.then, node.orelse])
    elif isinstance(node, Binary):
        put(f"Binary {node.op}", [node.left, node.right])
    elif isinstance(node, Unary):
        put(f"Unary {node.op}", [node.operand])
    elif isinstance(node, Cardinality):
        put("Cardinality", [node.operand])
    elif isinstance(node, ClockBlock):
        put("ClockBlock", node.body)
    elif isinstance(node, Call):
        flags = ""
        if node.block is not None:
            flags += " block"
        if node.splat is not None:
            flags += " splat"
        put(f"Call{flags}", [node.callee])
        if node.block is not None:
            _dump(node.block, depth + 1, lines)
        for arg in node.args:
            _dump(arg, depth + 1, lines)
        for name, arg in node.named:
            put_raw(f"NamedArg {name}:")
            _dump(arg, depth + 2, lines)
        if node.splat is not None:
            _dump(node.splat, depth + 1, lines)
    elif isinstance(node, StaticCall):
        put(f"StaticCall {node.alias}:{node.name}", node.args)
    elif isinstance(node, Index):
        put("Index", [node.obj, node.index])
    elif isinstance(node, Member):
        put(f"Member {node.name}", [node.obj])
    elif isinstance(node, RangeLit):
        children = [node.start, node.end] + ([node.step] if node.step else [])
        put("RangeLit", children)
    elif isinstance(node, ListLit):
        put("ListLit", node.items)
    elif isinstance(node, MapLit):
        put("MapLit")
        for k, v in node.entries:
            _dump(k, depth + 1, lines)
            _dump(v, depth + 1, lines)
    elif isinstance(node, Literal):
        put(f"Literal {_lit_text(node.value)}")
    elif isinstance(node, Identifier):
        put(f"Identifier {node.name}")
    else:  # pragma: no cover
        put(type(node).__name__)
