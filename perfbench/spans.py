"""Span tracing for the traced run, installed from outside the program.

`install` replaces njexl's layer entry points, where the rest of njexl looks
them up, with wrappers that record one span per call: its name, start, end,
parent span and op id.  Spans stay in flat in-memory arrays until the run
ends; a layer's self time is its spans' durations minus the time their child
spans cover.  Nothing here runs in an untraced process.
"""

import time
from array import array
from collections import Counter

# builtins whose calls and self time are reported (all builtins are traced)
REPORTED_BUILTINS = (
    "index", "list", "lfold", "sorta", "minmax", "join", "set", "size", "print", "read", "lines",
)
# value-model operations, by the name njexl binds them under
VALUE_OPS = {
    "values_equal": "values.equal",
    "sub_collection": "values.sub_collection",
    "membership": "values.membership",
    "order_compare": "values.order",
}


def _layer_metrics():
    """(metric, unit, kind, key): kind 'calls' and 'self' read a span name,
    kind 'count' reads a counter."""
    rows = [
        ("lexer.calls", "count", "calls", "lexer"),
        ("lexer.tokens", "count", "count", "lexer.tokens"),
        ("lexer.s", "s", "self", "lexer"),
        ("parser.calls", "count", "calls", "parser"),
        ("parser.nodes", "count", "count", "parser.nodes"),
        ("parser.s", "s", "self", "parser"),
        ("interpreter.deep_stack.calls", "count", "calls", "interpreter.deep_stack"),
        ("interpreter.deep_stack.s", "s", "self", "interpreter.deep_stack"),
        ("interpreter.run.s", "s", "self", "interpreter.run"),
        ("interpreter.function_calls", "count", "calls", "interpreter.function"),
        ("interpreter.function.s", "s", "self", "interpreter.function"),
        ("interpreter.block_calls", "count", "calls", "interpreter.block"),
        ("interpreter.block.s", "s", "self", "interpreter.block"),
    ]
    for name in REPORTED_BUILTINS:
        rows.append((f"stdlib.{name}.calls", "count", "calls", f"stdlib.{name}"))
        rows.append((f"stdlib.{name}.s", "s", "self", f"stdlib.{name}"))
    for span in VALUE_OPS.values():
        rows.append((f"{span}.calls", "count", "calls", span))
        rows.append((f"{span}.s", "s", "self", span))
    rows.append(("values.arith.calls", "count", "count", "values.arith.calls"))
    for name in ("bind", "get"):
        rows.append((f"embed.{name}.calls", "count", "calls", f"embed.{name}"))
        rows.append((f"embed.{name}.s", "s", "self", f"embed.{name}"))
    rows.append(("embed.evaluate.calls", "count", "calls", "embed.evaluate"))
    rows.append(("embed.evaluate.s", "s", "self", "embed.evaluate"))
    rows.append(("cli.main.calls", "count", "calls", "cli.main"))
    rows.append(("cli.main.s", "s", "self", "cli.main"))
    return rows


LAYER_METRICS = _layer_metrics()
# every per-layer metric name with its unit, as the traced run reports them
PER_LAYER = [(name, unit) for name, unit, _, _ in LAYER_METRICS] + [
    ("trace.overhead_ratio", "ratio")
]


class Tracer:
    """In-memory span store.  One tracer serves every thread: njexl's
    deep-stack worker runs while its caller waits in join, so spans nest on
    one stack."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = Counter()
        self.programs = []

    def span(self, name, fn):
        """fn wrapped so that each call records a span called name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        return traced

    def counted(self, key, fn):
        """fn wrapped so that each call adds one to counter key, with no span."""
        def traced(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return traced

    def totals(self):
        """Span count and self time (s) per span name."""
        calls, self_s = Counter(), Counter()
        child = [0.0] * len(self.start)
        # a child is always recorded after its parent, so a reverse sweep
        # has every child's duration summed before its parent is reached
        for i in range(len(self.start) - 1, -1, -1):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += duration
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += duration - child[i]
        return calls, self_s

    def metrics(self, node_type):
        """Every per-layer metric except the overhead ratio, as name -> value."""
        calls, self_s = self.totals()
        counts = Counter(self.counts)
        counts["parser.nodes"] = sum(count_nodes(p, node_type) for p in self.programs)
        source = {"calls": calls, "self": self_s, "count": counts}
        return {name: source[kind][key] for name, _, kind, key in LAYER_METRICS}

    def write(self, path):
        """All spans as tab-separated lines, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op[i]}\t{self.names[self.name_id[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


def count_nodes(root, node_type):
    """Number of syntax-tree nodes reachable from root."""
    count, stack = 0, [root]
    while stack:
        item = stack.pop()
        if isinstance(item, node_type):
            count += 1
            stack.extend(vars(item).values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return count


def install(tracer, nj):
    """Wrap the entry points of every layer of the imported njexl package."""
    interp_mod = nj.interpreter

    def wrap(owner, attr, name):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr)))

    tokenize = interp_mod.tokenize

    def counted_tokenize(source):
        tokens = tokenize(source)
        tracer.counts["lexer.tokens"] += len(tokens)
        return tokens

    interp_mod.tokenize = tracer.span("lexer", counted_tokenize)

    parse_program = interp_mod.parse_program

    def kept_parse(*args, **kwargs):
        program = parse_program(*args, **kwargs)
        tracer.programs.append(program)  # nodes are counted after the run
        return program

    interp_mod.parse_program = tracer.span("parser", kept_parse)

    wrap(nj.embed, "run_on_deep_stack", "interpreter.deep_stack")
    wrap(nj.cli, "run_on_deep_stack", "interpreter.deep_stack")
    wrap(interp_mod.Interp, "run_program", "interpreter.run")
    wrap(interp_mod.Interp, "call_function", "interpreter.function")
    wrap(interp_mod.Interp, "invoke_block", "interpreter.block")

    # scopes hold these NativeFunction objects, so wrapping fn in place
    # reaches contexts that already exist
    for name, native in nj.stdlib.BUILTINS.items():
        native.fn = tracer.span(f"stdlib.{name}", native.fn)

    for module in (interp_mod, nj.stdlib):
        for attr, name in VALUE_OPS.items():
            if hasattr(module, attr):
                wrap(module, attr, name)
        if hasattr(module, "arith"):
            module.arith = tracer.counted("values.arith.calls", module.arith)

    for attr in ("bind", "get", "evaluate"):
        traced = tracer.span(f"embed.{attr}", getattr(nj.embed, attr))
        setattr(nj.embed, attr, traced)
        setattr(nj, attr, traced)
    wrap(nj.cli, "main", "cli.main")
