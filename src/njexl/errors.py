"""Error signals and control-flow signals shared across the engine.

Every user-visible failure is an NjexlError carrying a kind string (the
name scripts see when they catch it with an ``#(ok,:err)`` assignment),
a message, and an optional source position.  Break/Continue/Return are
ordinary control flow and deliberately do not inherit from NjexlError so
that error capture can never swallow them.
"""


class NjexlError(Exception):
    """A guest-level error: raisable by the engine, catchable by scripts."""

    def __init__(self, kind, message, line=None, col=None, cause=None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.line = line
        self.col = col
        self.cause = cause

    def describe(self):
        if self.line is not None:
            return f"{self.kind}: {self.message} (line {self.line}, col {self.col})"
        return f"{self.kind}: {self.message}"


def guest_error(exc):
    """The NjexlError that reports exc, an exception raised by a guest run."""
    if isinstance(exc, NjexlError):
        return exc
    if isinstance(exc, RecursionError):
        return NjexlError("StackOverflowError", "evaluation nested too deeply")
    return NjexlError("InternalError", f"{type(exc).__name__}: {exc}")


class BreakSignal(Exception):
    pass


class ContinueSignal(Exception):
    pass


class ReturnSignal(Exception):
    def __init__(self, value):
        super().__init__()
        self.value = value
