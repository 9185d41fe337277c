"""Tier 1: a hot function or block body as one flat Python function.

interpreter.warm calls generate() once a body is hot, with the body's
syntax node (an ast.FuncDef or ast.AnonBlock), which keeps the body's tier
state, and the use to generate for: a call of a function body, or a
block-taking builtin's whole loop (a STEPS key) around a block body.  The
body's syntax tree is translated into three-address Python source: each
operation is one statement on local names and constants, so expressions
never nest.  The source is compiled once and run with the interpreter
module's dict as its globals, so the value operations it calls (arith,
values_equal, order_compare through _ordered, membership, sub_collection,
...) are looked up there at each call, as tier-0 code does.

The function it returns does what the body's tier-0 closures do.  A
function body's is run(interp, frame), in the frame Interp.enter built;
names are read and written through frame.bindings and the parent chain,
`var` writes the global frame, and a nested def or block gets its own
syntax node as a constant, so it shares one tier state with the tier-0
code of this body.  Each node kind's code is written once: tier-1 code
inlines it, a literal operand's type decided here, and tier 0 makes the
code of every kind from templates written by the same methods
(tier_0_template), as it makes its loops (tier_0_loop).  Every error is
raised with the kind, message, line and column that tier 0 gives it.  A
guest loop is a Python loop, and `break` and `continue` inside it are
Python's; `return` in a function body is Python's.  Everywhere else they
raise the signal that tier 0 raises.  A #clock body runs in a frame of its
own, through which it reads every name, and a #(...) assignment with a
capture catches its value's error as tier 0 does.

A block body's code, one function per (node, step), is run(interp, parent,
items, source, partial, sink): `for index, item in enumerate(items):`
around the inlined body, then the step's rule on the body's value (STEPS),
the same loop that tier_0_loop wraps around tier-0 code.  There a guest
`continue` or `break` in the body is Python's.  Each element runs in a
frame binding $, _, $$ and, when the step gives a partial, _$_, built by
the same line in both tiers, unless the body can do without one
(_own_writes): it holds no call, def, nested block, #clock, import, for or
#(...) assignment, and assigns no name other than those the frame binds.
A call keeps the frame because a native callee receives its caller's frame
(eval runs in it, and a def made there captures it); a def, a block or
#clock captures it itself.  In a frameless body those names are the Python
locals item, index, source and partial (each name the body assigns gets a
fresh copy per element, so a filter still sinks the row as given), and
every other name, _$_ under a step that gives no partial included, is read
through parent.  index is then known to be a plain int in 0..INT_MAX
unless the body assigns _, so its type and range tests go.

A call of a Function (by type) with one positional argument per
parameter, and no named ones, __args__ or block, enters its body directly
in a frame of them (Interp.enter), skipping the argument handling of
Interp.call_function; any other callee takes the generic call beside it.
In a block body, a call of index, list, set, lfold or rfold by name with a
block, no named arguments or __args__ and a count the builtin takes runs
the builtin inline when its callee is that builtin (inline): the
builtin's own work on its arguments, the frame of depth Interp.invoke_block
takes, and the step's loop with the inner block's body inlined, framed or
frameless as its own code would be, under names of its own.  Any other
callee takes the generic call beside it, and so does every call of a site
whose inner body is nested too deep to inline; the inner block's own heat
and tier-1 code are left alone.

A body that cannot be one Python function stays in tier 0: generate
returns None.  That is a body nested too deep: CPython refuses more than
20 statically nested blocks (a loop and its try each take one, a
builtin's loop included), so no suite is opened at _MAX_NESTING or
deeper.

A tier-0 template is the code the emitter writes for a stand-in of a node
that keeps only what template_key holds of it (its kind, its op, and so
on); make(node) binds the rest of each node of that shape, and its code
calls each child's and each body's own tier-0 code where tier 1 inlines
it.
"""

import functools
import re

from .ast import Assign, Call, ClockBlock, For, FuncDef, Identifier, Import, Index, Literal
from .ast import Member, MultiAssign, Node, StaticCall
from .stdlib import BUILTINS, _iter_arg
from .values import INT_MAX, INT_MIN

# no suite opens this deep in run(), so a line is inside at most 19 suites: within
# CPython's 20 statically nested blocks, counting the two of an except clause
_MAX_NESTING = 20
# a block body's own names, as the Python locals of a frameless run()
_LOCALS = {"$": "item", "_": "index", "$$": "source", "_$_": "partial"}
# nodes that capture or hand on the frame they run in, or bind a name in it
_FRAMED = (Call, StaticCall, FuncDef, ClockBlock, Import, For, MultiAssign)
_ORDER = {"<": "<", "lt": "<", "<=": "<=", "le": "<=", ">": ">", "gt": ">", ">=": ">="}
_ORDER.update({"ge": ">=", "==": "==", "eq": "==", "!=": "!="})
_ARITH = {"+": "+", "-": "-", "*": "*", "/": "//", "%": "%"}
# the int lane of + - * / %: plain ints low <= a <= INT_MAX and low < b <= INT_MAX, low from
# this table (/ and % need a >= 0 < b, where floor division truncates), and a result within
# INT_MIN..INT_MAX; every other input goes through arith()
_INT_LANE_LOW = {"+": INT_MIN, "-": INT_MIN, "*": INT_MIN, "/": 0, "%": 0}
# a block-taking builtin's loop step: the statement run on each element's
# value (unless a continue skips it), and the one that ends the loop once
# the items run out or a break stops it.  index: the first index whose value
# is truthy, else -1; map: each value to sink; fold: each value is the next
# element's partial (_$_), and the last is the result; filter: each element
# whose value is truthy to sink; compare: the truth of the first value, None
# if a continue or break skipped it
STEPS = {
    "index": ("if {truth}: return index", "return -1"),
    "map": ("sink({value})", "return None"),
    "fold": ("partial = {value}", "return partial"),
    "filter": ("if {truth}: sink(item)", "return None"),
    "compare": ("return {truth}", "return None"),
}
# the steps whose builtin gives a partial, bound as _$_
_PARTIAL = ("fold", "filter")
# the block builtins whose calls a block body's tier-1 code runs inline: each
# one's step, the counts of arguments it takes with a block, what it gives if
# its loop adds or finds nothing (a fold gives its partial), and the step's
# rule on each element's value, as STEPS has it
_INLINED = {
    "index": ("index", (1,), "-1", "if {truth}: {out} = {index} ; break"),
    "list": ("map", (1,), "[]", "{out}.append({value})"),
    "set": ("map", (1,), "XSet()", "{out}.add({value}, {line}, {col})"),
    "lfold": ("fold", (1, 2), None, "{partial} = {value}"),
    "rfold": ("fold", (1, 2), None, "{partial} = {value}"),
}
# the generator's state that belongs to the body it emits (start_body)
_BODY_STATE = ("step", "partial", "suffix", "loop", "own", "frameless", "writes", "locals",
               "spans", "scope", "B", "parent")


class _Unsupported(Exception):
    """The body nests too deep for one Python function."""


def generate(node, namespace, step=None):
    """Tier-1 code for the body of node (an ast.FuncDef or ast.AnonBlock),
    run with namespace (the interpreter module's dict) as its globals; None
    if it nests too deep and stays in tier 0.  A block body's step (a STEPS
    key) is the builtin's loop its code runs.  Nothing here refers to the interpreter
    module itself, so a dropped copy of njexl is still freed by reference
    counting."""
    params = node.params if isinstance(node, FuncDef) else None
    try:
        gen = _Generator(params, step, node.body)
        lines = gen.module(node.body)
    except (_Unsupported, RecursionError):
        return None
    return _define(lines, "_make", namespace, "<njexl tier 1>")(*gen.consts)


def tier_0_loop(step, namespace):
    """The loop of step (a STEPS key) for a block body in tier 0, made once
    with namespace as its globals: loop(run, interp, parent, items, source,
    partial, sink) runs the body's tier-0 code, run(interp, frame), in each
    element's frame, as the step's rule needs."""
    gen = _Generator(None, step)  # given no body, a frame per element
    gen.lines = ["def loop(run, interp, parent, items, source, partial, sink):"]

    def element():
        gen.frame()
        gen.emit("value = run(interp, scope)")
        return "value"

    gen.fused(element)
    return _define(gen.lines, "loop", namespace, "<njexl tier 0>")


def tier_0_template(node, namespace):
    """The tier-0 code of node's shape (template_key), made once with
    namespace as its globals: make(node) returns code(interp, scope) for any
    node of that shape.  The emitter writes code for a stand-in of node that
    keeps what template_key holds; each other part of it is one of make()'s
    names, bound only when the code uses it: a text field its text, a
    Literal or an own Literal child its value, any other child or body its
    tier-0 code, run where tier 1 inlines it, a literal's items or entries
    one tuple of their codes, whatever their count, and a node of the tree;
    a position (or a #(...)'s targets) is read from node when the code
    needs it."""
    gen = _Generator((), None)  # no own names: every name is read through the frames
    gen.function = False  # a return raises ReturnSignal, as in all tier-0 code
    binds = {}  # make()'s names, each to what make() binds it to

    def bind(prefix, value):
        name = f"{prefix}{len(binds)}"
        binds[name] = value
        return name

    def part(value, path, field, own):
        if value is None:
            return None
        if isinstance(value, str):
            return _Text(bind("t", path))
        if field == "args":
            return [part(arg, f"{path}[{i}]", None, own) for i, arg in enumerate(value)]
        if field == "named":
            return [(_Text(bind("t", f"{path}[{i}][0]")), part(arg, f"{path}[{i}][1]", None, own))
                    for i, (_, arg) in enumerate(value)]
        if field == "items":  # a ListLit's: one tuple of their codes, of any length
            return _Hole(bind("c", f"tuple([_compile(item) for item in {path}])"))
        if field == "entries":  # a MapLit's: each key's and value's code and the key's position
            codes = "(_compile(key), _compile(value), key.line, key.col)"
            return _Hole(bind("c", f"tuple([{codes} for key, value in {path}])"))
        if isinstance(value, list):  # a body, or a FuncDef's params, which no code reads
            return _Hole(bind("c", f"compile_body({path})"))
        if own and isinstance(value, Literal):
            return _Hole(bind("k", f"{path}.value"), literal=True)
        if field == "target":
            return stand_in(value, path, False)  # its children are the node's grandchildren
        hole = _Hole(bind("c", f"_compile({path})"))
        gen.const_names[id(hole)] = bind("n", path)
        return hole

    def stand_in(real, path, own):
        kind = type(real)
        if kind is Literal and real.value is not None:  # a value of any type
            return _Hole(bind("k", f"{path}.value"), literal=True)
        node = object.__new__(kind)  # of real's class, for the emitter's dispatch and tests
        node.line, node.col = f"{path}.line", f"{path}.col"
        gen.const_names[id(node)] = "node" if path == "node" else bind("n", path)
        for field in kind.__match_args__[2:]:  # after line and col
            value = getattr(real, field)
            if kind is Member and field == "name" and value.isdigit():
                value = _Digits(bind("t", f"int({path}.name)"))
            elif field != "op":
                value = part(value, f"{path}.{field}", field, own)
            setattr(node, field, value)
        return node

    top = stand_in(node, "node", True)
    gen.lines, gen.depth = [], 2
    gen.emit(f"return {gen.node(top)}")
    used = set(re.findall(r"\w+", "\n".join(gen.lines)))
    lines = ["def make(node):", *(f"    {name} = {value}" for name, value in binds.items()
                                   if name in used)]
    lines.append("    def code(interp, scope):")
    if "B" in used:
        lines.append("        B = scope.bindings")
    return _define([*lines, *gen.lines, "    return code"], "make", namespace, "<njexl tier 0>")


def template_key(node):
    """What tier_0_template(node) keeps of node: its kind, its op, whether a
    Member's name is digits, which optional fields are None, which own
    children are literals (each argument and named argument's too) and an
    Assign target's kind: a key from a fixed set of values for each kind
    and count of arguments, whatever names and numbers the text holds."""
    return _key_function(type(node))(node)


@functools.cache
def _key_function(kind):
    """template_key for nodes of kind, written once from its fields: a loop
    over the fields at each node made tier-0 compile about 1.45 times slower."""
    parts = []
    for field in kind.__match_args__[2:]:  # after line and col
        value = f"node.{field}"
        if field == "op":
            parts.append(value)
        elif field == "name" and kind is Member:
            parts.append(f"{value}.isdigit()")
        elif field == "target":
            parts.append(f"type({value})")
        elif field in ("args", "named"):
            arg = "arg" if field == "args" else "(_, arg)"
            parts.append(f"tuple([type(arg) is Literal for {arg} in {value}])")
        else:
            parts.append(f"None if {value} is None else type({value}) is Literal")
    line = f"def key(node): return (kind, {', '.join(parts)})"
    return _define([line], "key", {"kind": kind, "Literal": Literal}, "<njexl template key>")


class _Text(str):
    """A text field of a template's node: make()'s name for it, which repr() prints."""

    def __repr__(self):
        return str(self)


class _Digits(_Text):
    """A digit Member's name in a template: make()'s name for its index."""

    def isdigit(self):
        return True


class _Hole:
    """A child or a body of a template's node: make()'s name for its tier-0
    code (a tuple of codes for a literal's items or entries), or for its
    value when it is a Literal (literal)."""

    def __init__(self, name, literal=False):
        self.name, self.literal = name, literal


def _define(lines, name, namespace, filename):
    """The function that lines of source, run with namespace as its globals, bind to name."""
    made = {}
    exec(compile("".join(f"{line}\n" for line in lines), filename, "exec"), namespace, made)
    return made[name]


def _own_writes(nodes, own, writes):
    """The names among own, the names a block body's frame binds ($, _, $$,
    and _$_ under a step that gives a partial), that the body assigns, added
    to writes; None if the body needs a frame of its own: something in it
    captures its frame or hands it on (a call passes it to a native callee,
    a def or block keeps it), or it binds another name there, _$_ under a
    step that gives no partial included."""
    for node in nodes:
        if isinstance(node, (list, tuple)):
            if _own_writes(node, own, writes) is None:
                return None
        elif isinstance(node, Node):
            if isinstance(node, _FRAMED):
                return None
            if isinstance(node, Assign) and isinstance(node.target, Identifier):
                if node.target.name not in own:
                    return None
                writes.add(node.target.name)
            if _own_writes(vars(node).values(), own, writes) is None:
                return None
    return writes


class _Generator:
    def __init__(self, params, step, body=None):
        self.function = params is not None
        self.consts = []  # values handed to _make as K0, K1, ...
        self.const_names = {}  # id(value) -> its K name
        self.kinds = {}  # literal operand text -> its exact Python type
        self.bools = set()  # temporaries known to hold a bool
        self.count = 0
        self.depth, self.lines = 1, []
        # the Python names of the frame the body runs in, of its bindings, and of
        # the frame a block element's frame is made in
        self.scope, self.B, self.parent = "scope", "B", "parent"
        self.start_body(params, step, body, "")

    def start_body(self, params, step, body, suffix):
        """Take up the state of a body: a function's (params), or a block's run
        by step, whose Python locals item, index, source and partial end in
        suffix; None as body when the emitter makes a frame per element."""
        self.step, self.partial, self.suffix, self.loop = step, step in _PARTIAL, suffix, False
        # names bound in the body's own frame whenever it runs
        own = ("$", "_", "$$", "_$_") if self.partial else ("$", "_", "$$")
        self.own = frozenset(own if params is None else params)
        # a frameless block's own names are locals, each one it writes a fresh
        # copy per element; its scope is the parent frame
        writes = None if body is None or self.function else _own_writes(body, self.own, set())
        self.frameless, self.writes = writes is not None, writes or set()
        self.locals = {name: _LOCALS[name] + suffix for name in self.own} if self.frameless else {}
        self.locals.update({name: f"{self.locals[name]}_" for name in self.writes})
        # operands known to hold a plain int, and its bounds: a loop's own index
        # (a list is shorter than INT_MAX), and int-lane results computed from those
        natural = self.frameless and "_" not in self.writes
        self.spans = {"index" + suffix: (0, INT_MAX - 1)} if natural else {}

    # --- output --------------------------------------------------------------

    def module(self, stmts):
        if self.function:
            self.lines = ["def run(interp, scope):"]
            self.emit("B = scope.bindings")
            self.emit(f"return {self.body(stmts)}")
        else:
            scope = "scope" if self.frameless else "parent"
            self.lines = [f"def run(interp, {scope}, items, source, partial, sink):"]
            if self.frameless:
                self.emit("B = scope.bindings")

            def element():
                self.frame()
                return self.body(stmts)

            self.fused(element)
        params = ", ".join(f"K{i}" for i in range(len(self.consts)))
        return [f"def _make({params}):", *(f"    {line}" for line in self.lines), "    return run"]

    def fused(self, element):
        """Emit the loop of the builtin's step (STEPS) around element(),
        which emits one element's code and returns the operand of its value."""
        rule, end = STEPS[self.step]
        self.open("for index, item in enumerate(items):")
        value = self.loop_body(element)
        self.emit(rule.format(value=value, truth=self.truth(value)))
        self.close()
        self.emit(end)

    def frame(self):
        """Emit the start of one element's run of the body in a builtin's
        loop: its frame, or fresh copies of the own names it writes."""
        s = self.suffix
        if self.frameless:
            for name in sorted(self.writes):
                self.emit(f"{self.locals[name]} = {_LOCALS[name]}{s}")
        else:
            partial = f", '_$_': partial{s}" if self.partial else ""
            self.emit(f"{self.B} = {{'$': item{s}, '_': index{s}, '$$': source{s}{partial}}}")
            self.emit(f"{self.scope} = Scope({self.parent}, {self.B})")

    def emit(self, line):
        self.lines.append("    " * self.depth + line)

    def open(self, header):
        if self.depth >= _MAX_NESTING:
            raise _Unsupported("nested too deep")
        self.emit(header)
        self.depth += 1

    def close(self, count=1):
        self.depth -= count

    def new(self):
        self.count += 1
        return f"v{self.count}"

    def const(self, value):
        name = self.const_names.get(id(value))
        if name is None:
            name = self.const_names[id(value)] = f"K{len(self.consts)}"
            self.consts.append(value)
        return name

    def literal(self, value):
        """The operand for a literal value: its Python text, or a constant."""
        kind = type(value)
        if (
            kind in (str, bool, type(None))
            or (kind is int and INT_MIN <= value <= INT_MAX)
            or (kind is float and value - value == 0.0)  # finite: repr reads back as itself
        ):
            text = repr(value)
            self.kinds[text] = kind
            return text
        return self.const(value)

    def truth(self, operand):
        """A condition true when operand is truthy."""
        return operand if operand in self.bools else f"truthiness({operand})"

    def kind(self, operand):
        """The exact Python type operand is known to hold here, or None."""
        return int if operand in self.spans else self.kinds.get(operand)

    def span(self, operand):
        """The bounds of the plain int operand is known to hold here, or None."""
        if self.kinds.get(operand) is int:
            return int(operand), int(operand)
        return self.spans.get(operand)

    def test(self, operand, kind):
        """The text of `type(operand) is kind`, or True/False when known here."""
        known = self.kind(operand)
        return f"type({operand}) is {kind.__name__}" if known is None else known is kind

    def cases(self, cases, fallback):
        """Emit an if/elif chain over cases, (conds, lane) pairs, and fallback
        as its else; a lane whose conds are known false here is left out, and
        one known true ends the chain."""
        keyword = "if"
        for conds, lane in cases:
            if False in conds:
                continue
            conds = [c for c in conds if c is not True]
            if not conds:
                fallback = lane
                break
            self.open(f"{keyword} {' and '.join(conds)}:")
            lane()
            self.close()
            keyword = "elif"
        if keyword == "if":
            return fallback()
        self.open("else:")
        fallback()
        self.close()

    # --- statements and expressions --------------------------------------------

    def body(self, stmts):
        """Emit stmts in order; the operand holding the last one's value."""
        if isinstance(stmts, _Hole):
            return self.hole(stmts)
        value = "None"
        for stmt in stmts or ():
            value = self.node(stmt)
        return value

    def node(self, node):
        if isinstance(node, _Hole):
            return self.hole(node)
        return getattr(self, "_" + type(node).__name__)(node)

    def hole(self, hole):
        """The operand of a template's hole: its literal value, or what its code gives."""
        if hole.literal:
            return hole.name
        out = self.new()
        self.emit(f"{out} = {hole.name}(interp, {self.scope})")
        return out

    def _Literal(self, node):
        return self.literal(node.value)

    def _Identifier(self, node):
        out, name = self.new(), repr(node.name)
        local = self.locals.get(node.name)
        if local is not None and node.name not in self.writes:
            return local  # it holds this value all through the body
        elif local is not None:
            self.emit(f"{out} = {local}")
        elif node.name in self.own:
            self.emit(f"{out} = {self.B}[{name}]")
        else:
            self.lookup(out, node)
        return out

    def lookup(self, out, node):
        """Emit out = the value of node's name in the nearest frame binding it."""
        name = repr(node.name)
        self.open(f"if {name} in {self.B}:")
        self.emit(f"{out} = {self.B}[{name}]")
        self.close()
        self.open("else:")
        self.emit(f"{out} = {self.scope}.parent")
        self.open(f"while {name} not in {out}.bindings:")
        self.emit(f"{out} = {out}.parent")
        self.open(f"if {out} is None:")
        self.emit(f"raise _undefined({self.const(node)})")
        self.close(2)
        self.emit(f"{out} = {out}.bindings[{name}]")
        self.close()

    def _VarDecl(self, node):
        value = "None" if node.value is None else self.node(node.value)
        self.emit(f"{self.scope}.declare_global({node.name!r}, {value})")
        return value

    def _Assign(self, node):
        value, target = self.node(node.value), node.target
        if isinstance(target, Index):
            obj, index = self.node(target.obj), self.node(target.index)
            if node.op == "+=":
                old, out = self.new(), self.new()
                self.emit(f"{old} = _index_get({obj}, {index}, {self.const(target)})")
                self.emit(f"{out} = arith('+', {old}, {value}, {node.line}, {node.col})")
                value = out
            self.emit(f"_index_set({obj}, {index}, {value}, {self.const(target)})")
            return value
        if target.name in self.locals:
            return self.assign_local(node, value)
        return self.assign_name(node, target, repr(target.name), value)

    def assign_name(self, node, target, name, value):
        """Emit node's `name = value` or `name += value` to target, a name
        whose text is name; the operand of its value."""
        if node.op == "=":
            if target.name in self.own:
                self.emit(f"{self.B}[{name}] = {value}")
            else:
                self.open(f"if {name} in {self.B}:")
                self.emit(f"{self.B}[{name}] = {value}")
                self.close()
                self.open("else:")
                self.emit(f"{self.scope}.assign({name}, {value})")
                self.close()
            return value
        # +=: the nearest frame's value; a builtin's name is bound here
        old, frame, out = self.new(), self.new(), self.new()
        if target.name in self.own:
            self.emit(f"{old}, {frame} = {self.B}[{name}], {self.B}")
        else:
            self.open(f"if {name} in {self.B}:")
            self.emit(f"{old}, {frame} = {self.B}[{name}], {self.B}")
            self.close()
            self.open("else:")
            self.emit(f"{frame} = {self.scope}.frame_of({name}, {target.line}, {target.col})")
            self.emit(f"{old} = {frame}.bindings[{name}]")
            self.emit(f"{frame} = ({self.scope} if {frame}.parent is None else {frame}).bindings")
            self.close()
        self.arith("+", old, value, out, node)
        self.emit(f"{frame}[{name}] = {out}")
        return out

    def assign_local(self, node, value):
        """Emit `$ = value` or `$ += value` (or _, $$, _$_) in a frameless body."""
        if node.op == "+=":
            old, out = self._Identifier(node.target), self.new()
            self.arith("+", old, value, out, node)
            value = out
        self.emit(f"{self.locals[node.target.name]} = {value}")
        return value

    def _Import(self, node):
        module = f"interp.import_module({node.path!r}, {self.const(node)})"
        self.emit(f"{self.scope}.assign({node.alias!r}, {module})")
        return "None"

    def _FuncDef(self, node):
        out = self.new()
        self.emit(f"{out} = Function({self.const(node)}, {self.scope})")
        if node.name is None:
            return out
        self.emit(f"{self.B}[{node.name!r}] = {out}")
        return "None"

    def choice(self, cond, then, orelse):
        """Emit `then() if cond is truthy else orelse()`; the operand of its value."""
        cond, out = self.node(cond), self.new()
        self.open(f"if {self.truth(cond)}:")
        self.emit(f"{out} = {then()}")
        self.close()
        self.open("else:")
        self.emit(f"{out} = {orelse()}")
        self.close()
        return out

    def _If(self, node):
        return self.choice(
            node.cond, lambda: self.body(node.then_body), lambda: self.body(node.else_body)
        )

    def _Ternary(self, node):
        return self.choice(node.cond, lambda: self.node(node.then), lambda: self.node(node.orelse))

    def loop_body(self, body):
        """Emit a loop's body, body(), where continue and break are Python's
        own; the operand of its value."""
        saved, self.loop = self.loop, True
        self.open("try:")
        value = body()
        self.emit("pass")  # the body may be empty
        self.close()
        self.open("except ContinueSignal:")
        self.emit("continue")
        self.close()
        self.open("except BreakSignal:")
        self.emit("break")
        self.close()
        self.loop = saved
        return value

    def _For(self, node):
        items, item = self.node(node.iterable), self.new()
        self.open(f"for {item} in enumerate_value({items}, {node.line}, {node.col}):")
        self.emit(f"{self.B}[{node.var!r}] = {item}")
        self.loop_body(lambda: self.body(node.body))
        self.close()
        return "None"

    def _While(self, node):
        self.open("while True:")
        cond = self.node(node.cond)
        self.open(f"if not {self.truth(cond)}:")
        self.emit("break")
        self.close()
        self.loop_body(lambda: self.body(node.body))
        self.close()
        return "None"

    def jump(self, node, keyword, signal):
        if node.cond is not None:
            self.open(f"if {self.truth(self.node(node.cond))}:")
        self.emit(keyword if self.loop else f"raise {signal}()")
        if node.cond is not None:
            self.close()
        return "None"

    def _Break(self, node):
        return self.jump(node, "break", "BreakSignal")

    def _Continue(self, node):
        return self.jump(node, "continue", "ContinueSignal")

    def _Return(self, node):
        value = "None" if node.value is None else self.node(node.value)
        self.emit(f"return {value}" if self.function else f"raise ReturnSignal({value})")
        return "None"

    def _Binary(self, node):
        op, out = node.op, self.new()
        if op in ("and", "or", "xor"):
            self.bools.add(out)
            left = self.truth(self.node(node.left))
            if op == "xor":
                self.emit(f"{out} = {left} != {self.truth(self.node(node.right))}")
                return out
            self.open(f"if {left if op == 'and' else 'not ' + left}:")
            self.emit(f"{out} = {self.truth(self.node(node.right))}")
            self.close()
            self.open("else:")
            self.emit(f"{out} = {op == 'or'}")
            self.close()
            return out
        self.binary(op, self.node(node.left), self.node(node.right), out, node)
        return out

    def binary(self, op, a, b, out, node):
        """Emit out = a op b, for op other than and, or and xor: the
        exact-type lanes, else the value function."""
        if op in _ARITH:
            self.arith(op, a, b, out, node)
        elif op == "@":
            self.bools.add(out)
            self.cases(
                [([self.test(b, list), f"(type({a}) is int or type({a}) is str)",
                   f"native_kind({b}) is type({a})"], lambda: self.emit(f"{out} = {a} in {b}"))],
                lambda: self.emit(f"{out} = membership({a}, {b}, {node.line}, {node.col})"),
            )
        else:
            self.bools.add(out)
            if op in ("==", "eq", "!="):
                negated = op == "!="
                slow = f"values_equal({a}, {b}, {node.line}, {node.col}) is not {negated}"
            else:
                slow = f"_ordered({a}, {b}, {self.const(node)})"
            self.cases(
                [(self.same_plain_type(a, b), lambda: self.emit(f"{out} = {a} {_ORDER[op]} {b}"))],
                lambda: self.emit(f"{out} = {slow}"),
            )

    def same_plain_type(self, a, b):
        """Conditions under which a and b are both plain ints or both plain strs."""
        for x, y in ((a, b), (b, a)):
            kind = self.kind(y)
            if kind is not None:
                return [self.test(x, kind)] if kind in (int, str) else [False]
        return [f"type({a}) is type({b})", f"(type({a}) is int or type({a}) is str)"]

    def arith(self, op, a, b, out, node):
        """Emit out = a op b: the exact-type lanes of tier 0, else arith()."""
        low = _INT_LANE_LOW[op]

        def slow():
            self.emit(f"{out} = arith({op!r}, {a}, {b}, {node.line}, {node.col})")

        def lane(text):
            return lambda: self.emit(f"{out} = {text}")

        def int_lane():
            self.emit(f"{out} = {a} {_ARITH[op]} {b}")
            if exact is not None:  # the operands' bounds keep the result in range
                self.spans[out] = exact
                return
            self.open(f"if not {INT_MIN} <= {out} <= {INT_MAX}:")
            slow()
            self.close()

        x, y, exact = self.span(a), self.span(b), None
        if op in ("+", "-") and x and y and y[0] > INT_MIN:  # the lane's bounds hold
            exact = (x[0] + y[0], x[1] + y[1]) if op == "+" else (x[0] - y[1], x[1] - y[0])
            if not (INT_MIN <= exact[0] and exact[1] <= INT_MAX):
                exact = None

        cases = [([self.test(a, int), self.test(b, int), self.bound(a, low, False),
                   self.bound(b, low, True)], int_lane)]
        if op == "+":  # two strs, or a str and an int that stringify spells as str() does
            cases += [
                ([self.test(a, str), self.test(b, str)], lane(f"{a} + {b}")),
                ([self.test(a, str), self.test(b, int), self.bound(b, INT_MIN, False)],
                 lane(f"{a} + str({b})")),
                ([self.test(a, int), self.bound(a, INT_MIN, False), self.test(b, str)],
                 lane(f"str({a}) + {b}")),
            ]
        self.cases(cases, slow)

    def bound(self, operand, low, strict):
        """The text of `low <= operand <= INT_MAX` (`<` when strict), or a
        bool when operand is a literal."""
        if self.kinds.get(operand) is int:
            value = int(operand)
            return (low < value if strict else low <= value) and value <= INT_MAX
        span = self.spans.get(operand)
        if span is not None and (low < span[0] if strict else low <= span[0]):
            return True
        return f"{low} {'<' if strict else '<='} {operand} <= {INT_MAX}"

    def _Unary(self, node):
        operand, out = self.node(node.operand), self.new()
        if node.op == "not":
            self.bools.add(out)
            self.emit(f"{out} = not {self.truth(operand)}")
        else:
            self.emit(f"{out} = negate({operand}, {node.line}, {node.col})")
        return out

    def _Cardinality(self, node):
        operand, out = self.node(node.operand), self.new()
        self.emit(f"{out} = cardinality({operand}, {node.line}, {node.col})")
        return out

    def _Call(self, node):
        callee, out, where = self.node(node.callee), self.new(), self.const(node)
        args = [self.node(arg) for arg in node.args]
        values = "[" + ", ".join(args) + "]"
        keywords = ", ".join(f"{name!r}: {self.node(arg)}" for name, arg in node.named)
        keywords = "{" + keywords + "}"
        if node.splat is not None:
            splat, values = self.node(node.splat), self.new()
            self.open(f"if not isinstance({splat}, list):")
            message = "'__args__ must be a list, got ' + tag(" + splat + ")"
            self.emit(f"raise _error({where}, 'TypeError', {message})")
            self.close()
            self.emit(f"{values} = list({splat})")
        block = "None" if node.block is None else self.const(node.block)

        def lane(line):
            return lambda: self.emit(line)

        # a Function given one argument per parameter enters its body directly,
        # in a frame of them: call_function would only bind them so
        cases = []
        if node.block is None:
            if not node.named and node.splat is None:
                params = self.new()
                frame = ", ".join(f"{params}[{i}]: {arg}" for i, arg in enumerate(args))
                cases.append(([f"type({callee}) is Function",
                               f"len({params} := {callee}.node.params) == {len(args)}"],
                              lane(f"{out} = interp.enter({callee}, {{{frame}}}, {where})")))
            cases.append(([f"isinstance({callee}, Function)"], lane(
                f"{out} = interp.call_function({callee}, {values}, {keywords}, {where})")))
        cases.append(([f"not isinstance({callee}, NativeFunction)"],
                      lane(f"raise _uncallable({callee}, {where})")))
        generic = lane(
            f"{out} = {callee}.fn(interp, {self.scope}, {values}, {keywords}, {block}, {where})")
        name = self.inlined(node)
        if name is not None:  # the builtin itself runs inline, any other callee as above
            mark = len(self.lines), self.depth
            test = f"{callee} is {self.const(BUILTINS[name])}"
            try:
                self.cases([([test], lambda: self.inline(node, name, args, out)), *cases], generic)
                return out
            except (_Unsupported, RecursionError):  # this call alone keeps the generic call
                del self.lines[mark[0]:]
                self.depth = mark[1]
        self.cases(cases, generic)
        return out

    def inlined(self, node):
        """The name of the block builtin (_INLINED) that node, a call in a block
        body, runs inline when its callee is that builtin, or None: a call by
        the builtin's name, with a block, no named arguments or __args__, and
        a count of arguments the builtin takes with a block."""
        if self.step is None or node.block is None or node.named or node.splat is not None:
            return None
        name = node.callee.name if isinstance(node.callee, Identifier) else None
        return name if name in _INLINED and len(node.args) in _INLINED[name][1] else None

    def inline(self, node, name, args, out):
        """Emit out = the value of node, a call of the block builtin name with
        args, run here: what _native, the builtin's body and
        Interp.invoke_block do, with the step's loop around the block's body
        inlined.  That body runs in a frame per element, or frameless, as its
        own tier-1 code would (_own_writes); its parent frame is this body's
        scope, and its Python locals end in a suffix of this call's own."""
        step, _, start, rule = _INLINED[name]
        where, block = self.const(node), self.const(node.block)
        s = self.new()[1:]  # a number no other temporary or inlined call has
        items, source, partial = f"items{s}", f"source{s}", f"partial{s}"
        self.open("try:")  # _native: an error with no position takes the call's
        self.emit(f"{source} = {args[0]}")
        iterate = f"{self.const(_iter_arg)}({where}, {name!r}, {source})"
        if start is None:  # b_fold: a snapshot of the source, reversed for rfold
            self.emit(f"{items} = {source}.copy() if type({source}) is list else list({iterate})")
            if name == "rfold":
                self.emit(f"{items}.reverse()")
            self.emit(f"{partial} = {args[1] if len(args) == 2 else 'None'}")
        else:  # b_index, b_collect
            self.emit(f"{items} = {iterate}")
            self.emit(f"{out} = {start}")
        self.emit("interp.depth += 1")  # invoke_block: the loop takes one frame
        self.open("if interp.depth > MAX_CALL_DEPTH:")
        self.emit(f"raise interp._too_deep({block})")
        self.close()
        self.open("try:")
        body, parent = node.block.body, self.scope
        saved = {attr: getattr(self, attr) for attr in _BODY_STATE}
        try:
            self.start_body(None, step, body, s)
            if not self.frameless:
                self.parent, self.B, self.scope = parent, f"B{s}", f"scope{s}"

            def element():
                self.frame()
                return self.body(body)

            self.open(f"for index{s}, item{s} in enumerate({items}):")
            value = self.loop_body(element)
            self.emit(rule.format(truth=self.truth(value), value=value, out=out, index=f"index{s}",
                                  partial=partial, line=node.line, col=node.col))
            self.close()
        finally:
            vars(self).update(saved)
        if start is None:
            self.emit(f"{out} = {partial}")
        self.close()
        self.open("except RecursionError:")
        self.emit(f"raise _error({block}, 'StackOverflowError', 'call depth exceeded') from None")
        self.close()
        self.open("finally:")
        self.emit("interp.depth -= 1")
        self.close(2)
        self.open("except NjexlError as exc:")
        self.open("if exc.line is None:")
        self.emit(f"exc.line, exc.col = {node.line}, {node.col}")
        self.close()
        self.emit("raise")
        self.close()

    def _StaticCall(self, node):
        where, fn, out = self.const(node), self.new(), self.new()
        self.emit(f"{fn} = _module_member({self.scope}, {where})")
        args = ", ".join(self.node(arg) for arg in node.args)
        self.emit(f"{out} = _call_static(interp, {self.scope}, {where}, {fn}, [{args}])")
        return out

    def _Index(self, node):
        obj, index, out = self.node(node.obj), self.node(node.index), self.new()
        self.index(obj, index, out, node)
        return out

    def index(self, obj, index, out, node):
        """Emit out = obj[index]: a list's own item, else _index_get."""
        self.cases(
            [([self.test(obj, list), self.test(index, int), f"0 <= {index} < len({obj})"],
              lambda: self.emit(f"{out} = {obj}[{index}]"))],
            lambda: self.emit(f"{out} = _index_get({obj}, {index}, {self.const(node)})"),
        )

    def _Member(self, node):
        obj, out = self.node(node.obj), self.new()
        if node.name.isdigit():  # a template's index is one of make()'s names
            index = node.name if isinstance(node.name, _Text) else int(node.name)
            self.emit(f"{out} = project({obj}, {index}, {node.line}, {node.col})")
        else:
            self.emit(f"{out} = _member({obj}, {self.const(node)})")
        return out

    def _RangeLit(self, node):
        start, end = self.node(node.start), self.node(node.end)
        step = "1" if node.step is None else self.node(node.step)
        out = self.new()
        self.emit(f"{out} = _range({start}, {end}, {step}, {self.const(node)})")
        return out

    def _ListLit(self, node):
        out = self.new()
        if isinstance(node.items, _Hole):  # a template's: one tuple of their codes
            self.emit(f"{out} = [item(interp, {self.scope}) for item in {node.items.name}]")
        else:
            self.emit(f"{out} = [{', '.join([self.node(item) for item in node.items])}]")
        return out

    def _MapLit(self, node):
        out = self.new()
        self.emit(f"{out} = XMap()")
        if isinstance(node.entries, _Hole):  # a template's: one tuple of their codes
            scope = self.scope
            self.open(f"for key, value, line, col in {node.entries.name}:")
            self.emit(f"{out}.set(key(interp, {scope}), value(interp, {scope}), line, col)")
            self.close()
            return out
        for key, value in node.entries:
            k, v = self.node(key), self.node(value)
            self.emit(f"{out}.set({k}, {v}, {key.line}, {key.col})")
        return out

    def _ClockBlock(self, node):
        """Emit `#clock{ body }`: the body run in a frame of its own, where
        every name, the body's own names too, is read through the frames;
        its value is the pair of the clock's ticks over that run and the
        body's value."""
        s = self.new()[1:]
        scope, B, start = f"scope{s}", f"B{s}", f"start{s}"
        self.emit(f"{B} = {{}}")
        self.emit(f"{scope}, {start} = Scope({self.scope}, {B}), interp.io.clock()")
        saved = self.scope, self.B, self.own, self.locals
        self.scope, self.B, self.own, self.locals = scope, B, frozenset(), {}
        value = self.body(node.body)
        self.scope, self.B, self.own, self.locals = saved
        out = self.new()
        self.emit(f"{out} = (int(interp.io.clock() - {start}), {value})")
        return out

    def _MultiAssign(self, node):
        """Emit `#(targets) = value`: each target gets its part of the value
        (_destructure), assigned through the frames in target order.  With a
        capture, an error in the value or its split is caught: each target
        gets null, and the capture the error (else null)."""
        where, parts, error = self.const(node), self.new(), self.new()
        if node.capture is not None:
            self.open("try:")
        self.emit(f"{parts} = _destructure({self.node(node.value)}, {where})")
        if node.capture is not None:
            self.emit(f"{error} = None")
            self.close()
            self.open("except (NjexlError, RecursionError) as exc:")
            self.emit("exc = guest_error(exc)")
            self.emit(f"{parts}, {error} = [None] * len({where}.targets), "
                      "ErrorValue(exc.kind, exc.message, exc.cause)")
            self.close()
        self.open(f"for name, part in zip({where}.targets, {parts}):")
        self.emit(f"{self.scope}.assign(name, part)")
        self.close()
        if node.capture is not None:
            self.emit(f"{self.scope}.assign({where}.capture, {error})")
        return "None"
