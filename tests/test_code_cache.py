"""A context compiles each source text once, per set of module aliases."""

import gc
import weakref

import njexl.interpreter
from njexl import StructuredError, create_context, evaluate
from njexl.interpreter import CODE_CACHE_SIZE, Interp, new_global_scope
from njexl.stdlib import default_io

from conftest import Capture


def test_repeated_source_skips_lexer_and_parser(ctx, monkeypatch):
    calls = []
    tokenize = njexl.interpreter.tokenize
    monkeypatch.setattr(njexl.interpreter, "tokenize", lambda src: calls.append(src) or tokenize(src))
    evaluate(ctx, "def inc(x){ x + 1 }")
    assert [evaluate(ctx, "inc(41)") for _ in range(3)] == [42, 42, 42]
    assert calls == ["def inc(x){ x + 1 }", "inc(41)"]


def test_import_reparses_cached_source(ctx):
    # before the import, [M:parseInt('7')] parses as the range [M : parseInt('7')]
    source = "[M:parseInt('7')]"
    before = evaluate(ctx, source)
    assert isinstance(before, StructuredError) and before.kind == "NameError"
    assert evaluate(ctx, "import 'java.lang.Integer' as M") is None
    assert evaluate(ctx, source) == [7]


def test_parse_error_is_reported_on_every_evaluate(ctx):
    first, second = evaluate(ctx, "x = (1 +"), evaluate(ctx, "x = (1 +")
    assert isinstance(first, StructuredError) and first.kind == "ParseError"
    assert second == first
    assert ctx.interp.code_cache == {}


def test_eval_sees_the_callers_aliases(ctx):
    source = "eval(\"[M:parseInt('5')]\")"
    assert evaluate(ctx, source).kind == "NameError"
    evaluate(ctx, "import 'java.lang.Integer' as M")
    assert evaluate(ctx, source) == [5]
    assert evaluate(ctx, "import 'java.lang.Integer' as N\neval(\"N:parseInt('6')\")") == 6


def test_cache_stays_within_its_bound_and_keeps_hot_sources(ctx):
    for i in range(2 * CODE_CACHE_SIZE):
        assert evaluate(ctx, "6 * 7") == 42
        assert evaluate(ctx, f"{i} + 1") == i + 1
    assert len(ctx.interp.code_cache) == CODE_CACHE_SIZE
    assert ("6 * 7", frozenset()) in ctx.interp.code_cache


def test_interp_is_freed_by_reference_counting():
    gc.collect()
    gc.disable()
    try:
        interp = Interp(default_io(out=Capture(), err=Capture(), env={}))
        scope = new_global_scope()
        source = "def inc(x){ x + 1 }\nlist{ inc($) }([1, 2])"
        assert interp.run_source(source, scope) == [2, 3]
        freed = weakref.ref(interp)
        del interp
        assert freed() is None
    finally:
        gc.enable()


def test_context_is_freed_by_reference_counting_after_evaluate():
    gc.collect()
    gc.disable()
    try:
        ctx = create_context(out=Capture(), err=Capture())
        assert evaluate(ctx, "def inc(x){ x + 1 }\nlist{ inc($) }([1, 2])") == [2, 3]
        error = evaluate(ctx, "def bad(x){ x / 0 }\nbad(inc(1))")
        assert isinstance(error, StructuredError) and error.kind == "DivideByZero"
        freed = weakref.ref(ctx)
        del ctx
        assert freed() is None
    finally:
        gc.enable()
