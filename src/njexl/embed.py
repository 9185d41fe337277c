"""Host-facing engine API: isolated contexts, data bridging, safe evaluate.

A context owns one global scope, one module cache, and one set of I/O
ports.  Contexts are fully isolated from each other and must each be used
from one thread at a time; distinct contexts may run in parallel freely.

Data crosses the boundary by deep copy in both directions, so host
collections are never aliased by script values: a host 2-tuple becomes a
pair of copied elements and a range crosses as itself (both ways: it is
immutable), and an iterator leaves as a list.  A host module's natives
(registry=) take and return guest values, not host data: a tuple one
returns is read as a pair.  evaluate() never raises: every failure comes
back as a StructuredError value.
"""

import datetime
import re
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal

from .errors import NjexlError, guest_error
from .interpreter import Interp, new_global_scope, run_on_deep_stack
from .lexer import KEYWORDS
from .stdlib import default_io
from .values import ErrorValue, XMap, XSet, tag

_MAX_BRIDGE_DEPTH = 64
# exact types whose values cross the bridge unchanged both ways, so elements of
# a plain list below the depth cap are copied inline, and the list itself is
# tested for before any other type: a table row costs one comprehension (bool
# and the INT tag BigInt are int subclasses, not these types, and recurse)
_SAME = (int, str)


@dataclass
class StructuredError:
    """A failure reported as data: kind, message, optional position."""

    kind: str
    message: str
    line: object = None
    col: object = None


class ConversionError(ValueError):
    """Host datum cannot be bridged into (or out of) the engine."""


class EngineContext:
    def __init__(self, io, registry=None):
        self.io = io
        self.interp = Interp(io, registry)
        self.scope = new_global_scope()


def create_context(*, out=None, err=None, loader=None, clock=None, env=None, registry=None):
    """Fresh, isolated context with seeded builtins and module registry."""
    io = default_io(out=out, err=err, loader=loader, clock=clock, env=env)
    return EngineContext(io, registry)


_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


def bind(ctx, name, value):
    """Deep-copy a host datum into the context's global scope."""
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name) or name in KEYWORDS:
        raise ConversionError(f"invalid identifier: {name!r}")
    ctx.scope.bindings[name] = _to_value(value, 0)
    return None


def get(ctx, name):
    """Deep-copy a global binding back out as host data."""
    if name not in ctx.scope.bindings:
        raise LookupError(f"no binding named {name!r}")
    return _from_value(ctx.scope.bindings[name], 0)


def evaluate(ctx, source):
    """Run source in the context; returns host data or a StructuredError."""
    def job():
        return ctx.interp.run_source(source, ctx.scope)

    try:
        result = run_on_deep_stack(job)
    except Exception as exc:  # noqa: BLE001 - the no-abort contract
        # rebind exc, not a new name: leaving the clause unbinds exc, so its
        # traceback leaves no cycle through this frame that holds the context
        exc = guest_error(exc)
        return StructuredError(exc.kind, exc.message, exc.line, exc.col)
    try:
        return _from_value(result, 0)
    except ConversionError as exc:
        return StructuredError("ConversionError", str(exc))


def _to_value(value, depth):
    if type(value) is list and depth < _MAX_BRIDGE_DEPTH:
        return [v if type(v) in _SAME else _to_value(v, depth + 1) for v in value]
    if depth > _MAX_BRIDGE_DEPTH:
        raise ConversionError("host data nested too deeply")
    if value is None or isinstance(value, (int, str, float, Decimal, range)):  # bool is an int
        return value
    if isinstance(value, (datetime.datetime, datetime.date)):
        return value
    if isinstance(value, tuple) and len(value) == 2:
        return (_to_value(value[0], depth + 1), _to_value(value[1], depth + 1))
    if isinstance(value, (list, tuple)):  # a subclass, a tuple, or a list at the cap
        return [_to_value(v, depth + 1) for v in value]
    if isinstance(value, (set, frozenset)):
        return XSet(_to_value(v, depth + 1) for v in value)
    if isinstance(value, dict):
        out = XMap()
        for k, v in value.items():
            key, v = _to_value(k, depth + 1), _to_value(v, depth + 1)
            try:
                out.set(key, v)
            except NjexlError:
                message = f"host dict key becomes a {tag(key)}, which cannot be a map key"
                raise ConversionError(message) from None
        return out
    raise ConversionError(f"cannot bridge host {type(value).__name__} into a script value")


def _from_value(value, depth):
    if type(value) is list and depth < _MAX_BRIDGE_DEPTH:
        return [v if type(v) in _SAME else _from_value(v, depth + 1) for v in value]
    if depth > _MAX_BRIDGE_DEPTH:
        raise ConversionError("script data nested too deeply")
    if type(value) in _SAME or value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float, Decimal)):
        return int(value) if isinstance(value, int) else value
    if isinstance(value, (datetime.datetime, datetime.date, range)):
        return value
    if isinstance(value, tuple):
        return tuple(_from_value(v, depth + 1) for v in value)
    if isinstance(value, (list, Iterator)):  # an iterator, or a list at the cap
        return [_from_value(v, depth + 1) for v in value]
    if isinstance(value, XSet):
        try:
            return {_from_value(v, depth + 1) for v in value}
        except TypeError:
            raise ConversionError("set contains unhashable host elements") from None
    if isinstance(value, XMap):
        return {
            _as_host_key(_from_value(k, depth + 1)): _from_value(v, depth + 1)
            for k, v in value.items()
        }
    if isinstance(value, ErrorValue):
        return StructuredError(value.kind, value.message)
    raise ConversionError(f"cannot bridge a {type(value).__name__} value back to the host")


def _as_host_key(k):
    try:
        hash(k)
    except TypeError:
        raise ConversionError("map key is unhashable host data") from None
    return k
