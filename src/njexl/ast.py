"""Syntax tree nodes and a deterministic text dump used for golden tests."""

from dataclasses import dataclass, field
from decimal import Decimal

# nodes compare and hash by identity, with object's repr: generating __eq__
# and __repr__ for every class was about half of this module's import time
_node = dataclass(eq=False, repr=False)


@_node
class Node:
    line: int
    col: int


@_node
class Program(Node):
    body: list


@_node
class VarDecl(Node):
    name: str
    value: object  # Node or None


@_node
class Assign(Node):
    target: Node
    op: str  # '=' or '+='
    value: Node


@_node
class MultiAssign(Node):
    targets: list  # of str
    capture: object  # str or None; always the last target when present
    value: Node


@_node
class Import(Node):
    path: str
    alias: str


@_node
class FuncDef(Node):
    name: object  # str or None for anonymous function expressions
    params: list
    body: list
    # the body's tier state (interpreter.warm); class attributes, not fields
    run = None
    heat = 0
    tier_1 = None


@_node
class AnonBlock(Node):
    body: list
    run = None
    heat = 0
    tier_1 = None


@_node
class If(Node):
    cond: Node
    then_body: list
    else_body: object  # list or None


@_node
class For(Node):
    var: str
    iterable: Node
    body: list


@_node
class While(Node):
    cond: Node
    body: list


@_node
class Break(Node):
    cond: object  # Node or None


@_node
class Continue(Node):
    cond: object


@_node
class Return(Node):
    value: object


@_node
class Ternary(Node):
    cond: Node
    then: Node
    orelse: Node


@_node
class Binary(Node):
    op: str
    left: Node
    right: Node


@_node
class Unary(Node):
    op: str
    operand: Node


@_node
class Cardinality(Node):
    operand: Node


@_node
class ClockBlock(Node):
    body: list


@_node
class Call(Node):
    callee: Node
    args: list
    named: list = field(default_factory=list)  # of (name, Node)
    splat: object = None  # Node or None
    block: object = None  # AnonBlock or None


@_node
class StaticCall(Node):
    alias: str
    name: str
    args: list


@_node
class Index(Node):
    obj: Node
    index: Node


@_node
class Member(Node):
    obj: Node
    name: str  # all-digits names are numeric projections


@_node
class RangeLit(Node):
    start: Node
    end: Node
    step: object  # Node or None


@_node
class ListLit(Node):
    items: list


@_node
class MapLit(Node):
    entries: list  # of (key Node, value Node)


@_node
class Literal(Node):
    value: object


@_node
class Identifier(Node):
    name: str


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
