"""Built-in functions, I/O ports, resource loading, and native modules.

Builtins are ordinary values living in a frame below the global one, so a
script binding `min` or `size` shadows the builtin in its own scope without
destroying it.  Every builtin has the native signature (interp, scope, args,
named, block, node), which host modules passed as registry= share; block
is the call's ast.AnonBlock, or None when it has none.  A host module's
natives never get one: an Alias:name call takes no block.  A native returns
guest values (see values.py): a tuple it returns is read as a pair.  A builtin
declares its shape, `@_builtin(name, count=..., block=...)`, and one check
of named arguments, block and count runs before its body.  A builtin runs
a block given to it through Interp.invoke_block, in the frame it was
called in (scope), which runs the builtin's whole loop (a codegen.STEPS
step) and handles continue and break itself: index, list, set, lfold, rfold
and join once per call, minmax and the sort comparators once per
comparison, over the one pair compared.  Each element counts toward the
block's tier-up.
"""

import datetime
import itertools
import re
import time
from functools import cmp_to_key, partial

from .errors import NjexlError
from .values import (
    BigInt,
    Module,
    NativeFunction,
    XSet,
    as_decimal,
    cardinality,
    enumerate_value,
    int_result,
    is_numeric,
    native_kind,
    order_compare,
    stringify,
    tag,
)


# ---------------------------------------------------------------------------
# I/O ports

# seconds an http(s) fetch may take, and wait for the server to connect or
# send more, before it fails as an IoError: no server can hang read()/lines()
FETCH_TIMEOUT_S = 30


class ResourceLoader:
    """Scheme-dispatching reader: plain paths and file:// hit the filesystem,
    http(s):// is refused unless enabled.  url_map rewrites path prefixes
    first, which is how tests and the CLI point URLs at local fixtures.
    A loader holds no mutable state after construction and may be shared
    between evaluation contexts running in parallel."""

    def __init__(self, url_map=None, http_enabled=False):
        self.url_map = dict(url_map or {})
        self.http_enabled = http_enabled

    def _resolve(self, path):
        for prefix in sorted(self.url_map, key=len, reverse=True):
            if path.startswith(prefix):
                return self.url_map[prefix] + path[len(prefix):]
        return path

    def _open_target(self, path):
        path = self._resolve(path)
        if "://" in path:
            scheme = path.split("://", 1)[0]
            if scheme == "file":
                return path.split("://", 1)[1], None
            if scheme in ("http", "https"):
                if not self.http_enabled:
                    raise NjexlError("IoError", f"http access disabled: {path}")
                return None, path
            raise NjexlError("IoError", f"unsupported scheme '{scheme}'")
        return path, None

    def read_text(self, path):
        local, url = self._open_target(path)
        if url is not None:
            return self._fetch(url)
        try:
            with open(local, "r", encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            raise NjexlError("FileNotFound", f"no such file: {path}") from None
        except OSError as exc:
            raise NjexlError("IoError", f"cannot read {path}: {exc}") from None

    def iter_lines(self, path):
        local, url = self._open_target(path)
        if url is not None:
            # no seekable handle on a socket; buffer the body up front
            return iter(self._fetch(url).splitlines())

        def generate():
            try:
                handle = open(local, "r", encoding="utf-8")
            except FileNotFoundError:
                raise NjexlError("FileNotFound", f"no such file: {path}") from None
            except OSError as exc:
                raise NjexlError("IoError", f"cannot read {path}: {exc}") from None
            with handle:
                yield None
                for line in handle:
                    yield line.rstrip("\r\n")

        # run up to the first yield: the file is opened (or the error raised) here,
        # and from now on dropping the iterator closes it, even if never iterated
        lines = generate()
        next(lines)
        return lines

    def write_text(self, path, content):
        local, url = self._open_target(path)
        if url is not None:
            raise NjexlError("IoError", f"cannot write to a URL: {path}")
        try:
            with open(local, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            raise NjexlError("IoError", f"cannot write {path}: {exc}") from None

    def _fetch(self, url):
        import urllib.request

        deadline, chunks = time.monotonic() + FETCH_TIMEOUT_S, []
        try:
            with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
                # read1 returns what has arrived; read(n) would wait for all n bytes
                while chunk := resp.read1(65536):
                    if time.monotonic() > deadline:
                        raise TimeoutError("timed out")
                    chunks.append(chunk)
            return b"".join(chunks).decode("utf-8", errors="replace")
        except Exception as exc:  # noqa: BLE001 - network failure surface
            raise NjexlError("IoError", f"cannot fetch {url}: {exc}") from None


class FakeClock:
    """Deterministic monotonic clock advancing a fixed step per reading."""

    def __init__(self, step_ns):
        self.step = int(step_ns)
        self.now = 0

    def __call__(self):
        self.now += self.step
        return self.now


class IoPorts:
    """Injectable world access for one evaluation context (see default_io)."""

    __slots__ = ("out", "err", "loader", "clock", "env")

    def __init__(self, out, err, loader, clock, env):
        self.out, self.err, self.loader = out, err, loader
        self.clock, self.env = clock, env


# ---------------------------------------------------------------------------
# builtin plumbing

BUILTINS = {}


def _native(name, body, count=None, block="optional"):
    """NativeFunction name: one check of the call's arguments, then
    body(interp, scope, args, block, node, name).

    count is the number of positional arguments: an int, a (low, high) pair,
    or None for any number.  block is "optional", "needed", or "maps":
    optional, with count holding only when a block is given (without one,
    the arguments are the values themselves).  The check refuses named
    arguments first, then a missing needed block, then a wrong count.  An
    error leaving body without a position (one a loader raised, say) takes
    the call's.
    """
    low, high = (count, count) if isinstance(count, int) else count or (None, None)
    wanted = f"{low}" if low == high else f"{low}..{high}"

    def fn(interp, scope, args, named, given, node):
        if named:
            _fail(node, "UnknownParameter", f"{name} takes no named arguments")
        if given is None and block == "needed":
            _fail(node, "TypeError", f"{name} needs a {{...}} block")
        if low is not None and not low <= len(args) <= high:
            if given is not None or block != "maps":
                _fail(node, "ArityError", f"{name} takes {wanted} arguments, got {len(args)}")
        try:
            return body(interp, scope, args, given, node, name)
        except NjexlError as exc:
            if exc.line is None:
                exc.line, exc.col = getattr(node, "line", None), getattr(node, "col", None)
            raise

    return NativeFunction(name, fn)


def _builtin(name, count=None, block="optional"):
    """Register the decorated body as builtin name (see _native)."""

    def register(body):
        BUILTINS[name] = _native(name, body, count, block)
        return body

    return register


def _fail(node, kind, message):
    raise NjexlError(kind, message, getattr(node, "line", None), getattr(node, "col", None))


def _iter_arg(node, name, value):
    try:
        return enumerate_value(value)
    except NjexlError:
        _fail(node, "TypeError", f"{name} cannot iterate a {tag(value)}")


# ---------------------------------------------------------------------------
# conversions


_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _parse_with(pattern, text):
    text = text.strip()
    if not pattern.fullmatch(text):
        raise ValueError(text)
    return text


# each conversion's text pattern, and its converter of that text or a number
_CONVERSIONS = {
    "int": (_INT_RE, lambda v: int_result(int(v))),
    "INT": (_INT_RE, BigInt),
    "float": (_FLOAT_RE, float),
    "DEC": (_FLOAT_RE, as_decimal),
}


@_builtin("int", count=(1, 2))
@_builtin("INT", count=(1, 2))
@_builtin("float", count=(1, 2))
@_builtin("DEC", count=(1, 2))
def b_number(interp, scope, args, block, node, name):
    """Read decimal text or convert a number, or give the fallback argument
    if it cannot: int and INT truncate toward zero, INT's result always
    carries the arbitrary-precision tag, and DEC reads a float's shortest form."""
    pattern, convert = _CONVERSIONS[name]
    value = args[0]
    try:
        if isinstance(value, str):
            return convert(_parse_with(pattern, value))
        if is_numeric(value):
            return convert(value)
    except (ValueError, ArithmeticError):
        pass
    if len(args) == 2:
        return args[1]
    _fail(node, "NumberFormatError", f"cannot read {stringify(value)!r} as {name}")


_DATE_FIELDS = [("yyyy", "%Y"), ("MM", "%m"), ("dd", "%d"), ("HH", "%H"), ("mm", "%M"), ("ss", "%S")]


def _translate_pattern(pattern, node):
    out = []
    has_time = False
    i = 0
    while i < len(pattern):
        for name, fmt in _DATE_FIELDS:
            if pattern.startswith(name, i):
                out.append(fmt)
                has_time = has_time or fmt in ("%H", "%M", "%S")
                i += len(name)
                break
        else:
            c = pattern[i]
            if c.isalpha():
                _fail(node, "PatternError", f"unsupported date field at '{pattern[i:]}'")
            out.append(c.replace("%", "%%"))
            i += 1
    return "".join(out), has_time


@_builtin("date", count=2)
def b_date(interp, scope, args, block, node, name):
    """date(text, pattern) with yyyy MM dd HH mm ss fields."""
    text, pattern = args
    if not isinstance(text, str) or not isinstance(pattern, str):
        _fail(node, "TypeError", "date() expects two strings")
    fmt, has_time = _translate_pattern(pattern, node)
    try:
        parsed = datetime.datetime.strptime(text, fmt)
    except ValueError:
        _fail(node, "DateParseError", f"'{text}' does not match '{pattern}'")
    return parsed if has_time else parsed.date()


# ---------------------------------------------------------------------------
# I/O builtins


@_builtin("print")
def b_print(interp, scope, args, block, node, name):
    """Write canonical forms, space separated, with a trailing newline."""
    interp.io.out.write(" ".join(stringify(a) for a in args) + "\n")
    return None


@_builtin("read", count=1)
def b_read(interp, scope, args, block, node, name):
    if not isinstance(args[0], str):
        _fail(node, "TypeError", "read() expects a path string")
    return interp.io.loader.read_text(args[0])


@_builtin("lines", count=1)
def b_lines(interp, scope, args, block, node, name):
    """Lazy iterator of lines with the terminators stripped."""
    if not isinstance(args[0], str):
        _fail(node, "TypeError", "lines() expects a path string")
    return iter(interp.io.loader.iter_lines(args[0]))


@_builtin("write", count=2)
def b_write(interp, scope, args, block, node, name):
    path, content = args
    if not isinstance(path, str) or not isinstance(content, str):
        _fail(node, "TypeError", "write() expects a path and a string")
    interp.io.loader.write_text(path, content)
    return None


@_builtin("eval", count=1)
def b_eval(interp, scope, args, block, node, name):
    """Run text as a program in a child scope of the call site."""
    from .interpreter import Scope

    if not isinstance(args[0], str):
        _fail(node, "TypeError", "eval() expects a string")
    return interp.run_source(args[0], Scope(scope))


# ---------------------------------------------------------------------------
# collection builtins


@_builtin("size", count=1)
def b_size(interp, scope, args, block, node, name):
    if args[0] is None:
        _fail(node, "TypeError", "size of null")
    return cardinality(args[0], getattr(node, "line", None), getattr(node, "col", None))


@_builtin("index", count=1, block="needed")
def b_index(interp, scope, args, block, node, name):
    """First index where the block is truthy; -1 when there is none."""
    items = _iter_arg(node, name, args[0])
    return interp.invoke_block(block, scope, "index", items, args[0])


@_builtin("list", count=1, block="maps")
@_builtin("set", count=1, block="maps")
def b_collect(interp, scope, args, block, node, name):
    """list(a, b, ...) collects values; list{ f }(c) maps a collection.  set
    does the same, and duplicates collapse by value equality."""
    line, col = getattr(node, "line", None), getattr(node, "col", None)
    out = [] if name == "list" else XSet()
    sink = out.append if name == "list" else partial(out.add, line=line, col=col)
    if block is None:
        # one non-string collection argument converts element-wise, so that
        # set(tuple) deduplicates the tuple's members; anything else is
        # taken as explicit values, as in set(1,2,2,2,3)
        if len(args) == 1 and not isinstance(args[0], str):
            try:
                items = enumerate_value(args[0])
            except NjexlError:
                items = iter(args)
        else:
            items = iter(args)
        for v in items:
            sink(v)
        return out
    items = _iter_arg(node, name, args[0])
    interp.invoke_block(block, scope, "map", items, args[0], sink=sink)
    return out


def _less(interp, scope, node, block, a, b, source=None):
    if block is not None:
        less = interp.invoke_block(block, scope, "compare", ((a, b),), source)
        if less is None:  # a continue or break skipped the comparison
            _fail(node, "TypeError", "break/continue not allowed in a comparator block")
        return less
    return order_compare(a, b, getattr(node, "line", None), getattr(node, "col", None)) < 0


@_builtin("minmax", count=1)
def b_minmax(interp, scope, args, block, node, name):
    """One-pass (min, max) pair; first-encountered value wins ties."""
    if block is None and type(args[0]) is list and native_kind(args[0]):
        return min(args[0]), max(args[0])  # both keep the first of equals
    lowest = highest = None
    seen = False
    for item in _iter_arg(node, name, args[0]):
        if not seen:
            lowest = highest = item
            seen = True
            continue
        if _less(interp, scope, node, block, item, lowest, args[0]):
            lowest = item
        if _less(interp, scope, node, block, highest, item, args[0]):
            highest = item
    if not seen:
        _fail(node, "EmptyCollection", "minmax of an empty collection")
    return lowest, highest


@_builtin("lfold", count=(1, 2), block="needed")
@_builtin("rfold", count=(1, 2), block="needed")
def b_fold(interp, scope, args, block, node, name):
    """Left fold, the running partial visible in the block as _$_; rfold is
    the same fold over reversed iteration order."""
    source = args[0]
    # a snapshot the block cannot change; list.copy() is about 6 times faster
    # than list(iterator) for the short rows a table predicate folds
    items = source.copy() if type(source) is list else list(_iter_arg(node, name, source))
    if name == "rfold":
        items.reverse()
    partial = args[1] if len(args) == 2 else None
    return interp.invoke_block(block, scope, "fold", items, source, partial)


@_builtin("join")
def b_join(interp, scope, args, block, node, name):
    """Cartesian product in odometer order, filtered by the optional block;
    in the block, $$ is the list of arguments and _$_ the rows kept so far."""
    if not args:
        _fail(node, "ArityError", "join needs at least one collection")
    pools = [list(_iter_arg(node, name, a)) for a in args]
    rows = map(list, itertools.product(*pools))
    if block is None:
        return list(rows)
    out = []
    interp.invoke_block(block, scope, "filter", rows, list(args), out, out.append)
    return out


@_builtin("sorta", count=1)
@_builtin("sortd", count=1)
def b_sort(interp, scope, args, block, node, name):
    """New list in ascending (sorta) or descending (sortd) order; stable; the
    input is left untouched.  sorted() only asks whether a < b, so the
    comparator answers that alone: -1 when a precedes b, else 0 or more."""
    items = list(_iter_arg(node, name, args[0]))
    if block is not None:
        less = partial(_less, interp, scope, node, block)
        key = cmp_to_key(lambda a, b: -1 if less(a, b, args[0]) else 0)
    elif native_kind(items):
        key = None  # plain ints or plain strs: Python's own order is the guest's
    else:
        line, col = getattr(node, "line", None), getattr(node, "col", None)
        key = cmp_to_key(partial(order_compare, line=line, col=col))
    return sorted(items, key=key, reverse=name == "sortd")


# ---------------------------------------------------------------------------
# native module registry


def _shim_parse_int(interp, scope, args, block, node, name):
    text = args[0]
    if not isinstance(text, str):
        _fail(node, "NumberFormatError", f"for input: {stringify(text)}")
    try:
        return int_result(int(_parse_with(_INT_RE, text)))
    except ValueError:
        _fail(node, "NumberFormatError", f"for input string: '{text}'")


def default_registry():
    """Native modules importable by exact path string."""
    parse_int = _native("parseInt", _shim_parse_int, count=1)
    return {"java.lang.Integer": Module("java.lang.Integer", {"parseInt": parse_int})}


def default_io(out=None, err=None, loader=None, clock=None, env=None):
    import os
    import sys

    if env is None:  # NJEXL_PATH is the one variable read: take it as it is now
        path = os.environ.get("NJEXL_PATH")
        env = {} if path is None else {"NJEXL_PATH": path}
    return IoPorts(
        out=out if out is not None else sys.stdout,
        err=err if err is not None else sys.stderr,
        loader=loader if loader is not None else ResourceLoader(),
        clock=clock if clock is not None else time.perf_counter_ns,
        env=env,
    )
