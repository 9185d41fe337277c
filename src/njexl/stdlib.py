"""Built-in functions, I/O ports, resource loading, and native modules.

Builtins are ordinary values living in a frame below the global one, so a
script binding `min` or `size` shadows the builtin in its own scope without
destroying it.  Every builtin has the same native signature: (interp,
scope, args, named, block, node).
"""

import datetime
import itertools
import re
import time
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import cmp_to_key

from .errors import NjexlError
from .values import (
    BigInt,
    LazySeq,
    Module,
    NativeFunction,
    Pair,
    XSet,
    cardinality,
    enumerate_value,
    float_to_decimal,
    int_result,
    is_numeric,
    order_compare,
    stringify,
    tag,
    truthiness,
)


# ---------------------------------------------------------------------------
# I/O ports


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

        try:
            with urllib.request.urlopen(url) as resp:
                return resp.read().decode("utf-8", errors="replace")
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


@dataclass
class IoPorts:
    """Injectable world access for one evaluation context."""

    out: object
    err: object
    loader: ResourceLoader = field(default_factory=ResourceLoader)
    clock: object = time.perf_counter_ns
    env: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# builtin plumbing

BUILTINS = {}


def _builtin(name):
    def register(fn):
        BUILTINS[name] = NativeFunction(name, fn)
        return fn

    return register


def _fail(node, kind, message):
    raise NjexlError(kind, message, getattr(node, "line", None), getattr(node, "col", None))


def _need_args(node, name, args, low, high=None):
    high = low if high is None else high
    if not low <= len(args) <= high:
        wanted = str(low) if low == high else f"{low}..{high}"
        _fail(node, "ArityError", f"{name} takes {wanted} arguments, got {len(args)}")


def _no_named(node, name, named):
    if named:
        _fail(node, "UnknownParameter", f"{name} takes no named arguments")


def _need_block(node, name, block):
    if block is None:
        _fail(node, "TypeError", f"{name} needs a {{...}} block")


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


def _to_int(value):
    if isinstance(value, str):
        return int(_parse_with(_INT_RE, value))
    if isinstance(value, bool) or not is_numeric(value):
        raise ValueError(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(value)
        return int(value)
    return int(value)


def _convert(node, name, args, named, converter):
    _no_named(node, name, named)
    _need_args(node, name, args, 1, 2)
    try:
        return converter(args[0])
    except (ValueError, ArithmeticError, InvalidOperation):
        if len(args) == 2:
            return args[1]
        _fail(node, "NumberFormatError", f"cannot read {stringify(args[0])!r} as {name}")


@_builtin("int")
def b_int(interp, scope, args, named, block, node):
    """Parse decimal integer text or truncate a number toward zero."""
    return _convert(node, "int", args, named, lambda v: int_result(_to_int(v)))


@_builtin("INT")
def b_big_int(interp, scope, args, named, block, node):
    """Like int(), but the result always carries the arbitrary-precision tag."""
    return _convert(node, "INT", args, named, lambda v: BigInt(_to_int(v)))


@_builtin("float")
def b_float(interp, scope, args, named, block, node):
    def conv(v):
        if isinstance(v, str):
            return float(_parse_with(_FLOAT_RE, v))
        if isinstance(v, bool) or not is_numeric(v):
            raise ValueError(v)
        return float(v)

    return _convert(node, "float", args, named, conv)


@_builtin("DEC")
def b_dec(interp, scope, args, named, block, node):
    def conv(v):
        if isinstance(v, str):
            return Decimal(_parse_with(_FLOAT_RE, v))
        if isinstance(v, bool) or not is_numeric(v):
            raise ValueError(v)
        if isinstance(v, float):
            return float_to_decimal(v)
        if isinstance(v, Decimal):
            return v
        return Decimal(int(v))

    return _convert(node, "DEC", args, named, conv)


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


@_builtin("date")
def b_date(interp, scope, args, named, block, node):
    """date(text, pattern) with yyyy MM dd HH mm ss fields."""
    _no_named(node, "date", named)
    _need_args(node, "date", args, 2)
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
def b_print(interp, scope, args, named, block, node):
    """Write canonical forms, space separated, with a trailing newline."""
    _no_named(node, "print", named)
    interp.io.out.write(" ".join(stringify(a) for a in args) + "\n")
    return None


@_builtin("read")
def b_read(interp, scope, args, named, block, node):
    _no_named(node, "read", named)
    _need_args(node, "read", args, 1)
    if not isinstance(args[0], str):
        _fail(node, "TypeError", "read() expects a path string")
    return interp.io.loader.read_text(args[0])


@_builtin("lines")
def b_lines(interp, scope, args, named, block, node):
    """Lazy iterator of lines with the terminators stripped."""
    _no_named(node, "lines", named)
    _need_args(node, "lines", args, 1)
    if not isinstance(args[0], str):
        _fail(node, "TypeError", "lines() expects a path string")
    return LazySeq(interp.io.loader.iter_lines(args[0]))


@_builtin("write")
def b_write(interp, scope, args, named, block, node):
    _no_named(node, "write", named)
    _need_args(node, "write", args, 2)
    path, content = args
    if not isinstance(path, str) or not isinstance(content, str):
        _fail(node, "TypeError", "write() expects a path and a string")
    interp.io.loader.write_text(path, content)
    return None


@_builtin("eval")
def b_eval(interp, scope, args, named, block, node):
    """Run text as a program in a child scope of the call site."""
    from .interpreter import Scope

    _no_named(node, "eval", named)
    _need_args(node, "eval", args, 1)
    if not isinstance(args[0], str):
        _fail(node, "TypeError", "eval() expects a string")
    return interp.run_source(args[0], Scope(scope))


# ---------------------------------------------------------------------------
# collection builtins


@_builtin("size")
def b_size(interp, scope, args, named, block, node):
    _no_named(node, "size", named)
    _need_args(node, "size", args, 1)
    if args[0] is None:
        _fail(node, "TypeError", "size of null")
    return cardinality(args[0], getattr(node, "line", None), getattr(node, "col", None))


@_builtin("index")
def b_index(interp, scope, args, named, block, node):
    """First index where the block is truthy; -1 when there is none."""
    _no_named(node, "index", named)
    _need_block(node, "index", block)
    _need_args(node, "index", args, 1)
    source = args[0]
    for i, item in enumerate(_iter_arg(node, "index", source)):
        status, value = block.run(item, i, source)
        if status == "stop":
            return -1
        if status == "value" and truthiness(value):
            return i
    return -1


def _map_into(interp, node, name, args, block, sink):
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
        return
    _need_args(node, name, args, 1)
    source = args[0]
    for i, item in enumerate(_iter_arg(node, name, source)):
        status, value = block.run(item, i, source)
        if status == "stop":
            break
        if status == "skip":
            continue
        sink(value)


@_builtin("list")
def b_list(interp, scope, args, named, block, node):
    """list(a, b, ...) collects values; list{ f }(c) maps a collection."""
    _no_named(node, "list", named)
    out = []
    _map_into(interp, node, "list", args, block, out.append)
    return out


@_builtin("set")
def b_set(interp, scope, args, named, block, node):
    """set(a, b, ...) or set{ f }(c); duplicates collapse by value equality."""
    _no_named(node, "set", named)
    out = XSet()
    _map_into(interp, node, "set", args, block, out.add)
    return out


def _less(interp, node, block, a, b, source=None):
    if block is not None:
        status, value = block.run(Pair(a, b), 0, source)
        if status != "value":
            _fail(node, "TypeError", "break/continue not allowed in a comparator block")
        return truthiness(value)
    return order_compare(a, b, getattr(node, "line", None), getattr(node, "col", None)) < 0


@_builtin("minmax")
def b_minmax(interp, scope, args, named, block, node):
    """One-pass (min, max) pair; first-encountered value wins ties."""
    _no_named(node, "minmax", named)
    _need_args(node, "minmax", args, 1)
    lowest = highest = None
    seen = False
    for item in _iter_arg(node, "minmax", args[0]):
        if not seen:
            lowest = highest = item
            seen = True
            continue
        if _less(interp, node, block, item, lowest, args[0]):
            lowest = item
        if _less(interp, node, block, highest, item, args[0]):
            highest = item
    if not seen:
        _fail(node, "EmptyCollection", "minmax of an empty collection")
    return Pair(lowest, highest)


def _fold(interp, node, name, args, block, reverse):
    _need_block(node, name, block)
    _need_args(node, name, args, 1, 2)
    seed = args[1] if len(args) == 2 else None
    items = list(_iter_arg(node, name, args[0]))
    if reverse:
        items.reverse()
    partial = seed
    for i, item in enumerate(items):
        status, value = block.run(item, i, args[0], partial)
        if status == "stop":
            break
        if status == "skip":
            continue
        partial = value
    return partial


@_builtin("lfold")
def b_lfold(interp, scope, args, named, block, node):
    """Left fold; the running partial is visible in the block as _$_ ."""
    _no_named(node, "lfold", named)
    return _fold(interp, node, "lfold", args, block, reverse=False)


@_builtin("rfold")
def b_rfold(interp, scope, args, named, block, node):
    """Right fold: identical to lfold over reversed iteration order."""
    _no_named(node, "rfold", named)
    return _fold(interp, node, "rfold", args, block, reverse=True)


@_builtin("join")
def b_join(interp, scope, args, named, block, node):
    """Cartesian product in odometer order, filtered by the optional block."""
    _no_named(node, "join", named)
    if not args:
        _fail(node, "ArityError", "join needs at least one collection")
    pools = [list(_iter_arg(node, "join", a)) for a in args]
    out = []
    count = 0
    for combo in itertools.product(*pools):
        row = list(combo)
        if block is None:
            out.append(row)
            continue
        status, value = block.run(row, count, list(args), out)
        count += 1
        if status == "stop":
            break
        if status == "skip":
            continue
        if truthiness(value):
            out.append(row)
    return out


def _sorted(interp, node, name, args, named, block, descending):
    _no_named(node, name, named)
    _need_args(node, name, args, 1)
    items = list(_iter_arg(node, name, args[0]))

    def cmp(a, b):
        if _less(interp, node, block, a, b, args[0]):
            return -1
        if _less(interp, node, block, b, a, args[0]):
            return 1
        return 0

    return sorted(items, key=cmp_to_key(cmp), reverse=descending)


@_builtin("sorta")
def b_sorta(interp, scope, args, named, block, node):
    """New ascending list; stable; the input is left untouched."""
    return _sorted(interp, node, "sorta", args, named, block, descending=False)


@_builtin("sortd")
def b_sortd(interp, scope, args, named, block, node):
    """New descending list; stable; the input is left untouched."""
    return _sorted(interp, node, "sortd", args, named, block, descending=True)


# ---------------------------------------------------------------------------
# native module registry


def _shim_parse_int(interp, scope, args, named, block, node):
    _no_named(node, "parseInt", named)
    _need_args(node, "parseInt", args, 1)
    text = args[0]
    if not isinstance(text, str):
        _fail(node, "NumberFormatError", f"for input: {stringify(text)}")
    try:
        return int_result(int(_parse_with(_INT_RE, text)))
    except ValueError:
        _fail(node, "NumberFormatError", f"for input string: '{text}'")


def default_registry():
    """Native modules importable by exact path string."""
    integer = Module(
        "java.lang.Integer",
        {"parseInt": NativeFunction("parseInt", _shim_parse_int)},
    )
    return {"java.lang.Integer": integer}


def default_io(out=None, err=None, loader=None, clock=None, env=None):
    import os
    import sys

    return IoPorts(
        out=out if out is not None else sys.stdout,
        err=err if err is not None else sys.stderr,
        loader=loader if loader is not None else ResourceLoader(),
        clock=clock if clock is not None else time.perf_counter_ns,
        env=dict(os.environ) if env is None else env,
    )
