"""The big-stack worker: one per host thread, reused, and gone with its thread."""

import decimal
import gc
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import njexl
from njexl import StructuredError, bind, create_context, evaluate
from njexl.errors import NjexlError
from njexl.interpreter import run_on_deep_stack
from njexl.values import DEC_DIV_PRECISION

from conftest import Capture


def fresh():
    return create_context(out=Capture(), err=Capture())


def workers():
    return {t for t in threading.enumerate() if t.name == "njexl-eval"}


def raiser(exc):
    def job():
        raise exc

    return job


def test_evaluations_reuse_one_worker():
    ctx = fresh()
    before = threading.active_count()
    assert [evaluate(ctx, "6 * 7") for _ in range(1000)] == [42] * 1000
    assert threading.active_count() <= before + 1


def test_host_threads_run_concurrently_and_their_workers_stop():
    before = workers()
    barrier = threading.Barrier(4)
    results = {}

    def host(n):
        ctx = fresh()
        bind(ctx, "n", n)
        barrier.wait(10)
        got = []
        for i in range(50):
            bind(ctx, "i", i)
            got.append(evaluate(ctx, "n * n + i"))
        results[n] = got

    hosts = [threading.Thread(target=host, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-handoff included
    try:
        for t in hosts:
            t.start()
        for t in hosts:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not [t for t in hosts if t.is_alive()]
    assert results == {n: [n * n + i for i in range(50)] for n in range(4)}
    gc.collect()
    started = workers() - before
    for t in started:
        t.join(timeout=10)
    assert not [t for t in started if t.is_alive()]


@pytest.mark.parametrize(
    "exc",
    [NjexlError("TypeError", "boom", 1, 2), RecursionError("deep"), SystemExit(3)],
    ids=["NjexlError", "RecursionError", "SystemExit"],
)
def test_job_exception_reaches_the_caller_and_the_worker_survives(exc):
    with pytest.raises(type(exc)) as raised:
        run_on_deep_stack(raiser(exc))
    assert raised.value is exc
    assert run_on_deep_stack(lambda: "next") == "next"


def test_nested_call_returns_its_value():
    host = threading.get_ident()

    def outer():
        inner = run_on_deep_stack(threading.get_ident)
        return threading.get_ident(), inner

    outer_ident, inner_ident = run_on_deep_stack(outer)
    assert len({host, outer_ident, inner_ident}) == 3
    assert run_on_deep_stack(lambda: run_on_deep_stack(lambda: 41) + 1) == 42


def test_recursion_cap_then_a_normal_evaluate():
    ctx = fresh()
    result = evaluate(ctx, "def spin(n){ spin(n + 1) }\nspin(0)")
    assert isinstance(result, StructuredError) and result.kind == "StackOverflowError"
    assert evaluate(ctx, "def down(n){ if (n == 0) { return 0 }\n1 + down(n - 1) }\ndown(9000)") == 9000


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_interrupted_wait_neither_blocks_nor_feeds_a_later_call():
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("SIGINT is delivered to the main thread")
    started, release = threading.Event(), threading.Event()

    def slow():
        started.set()
        release.wait(10)
        return "first"

    def interrupt():
        started.wait(10)
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    sender = threading.Thread(target=interrupt)
    sender.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_on_deep_stack(slow)
        sender.join(timeout=10)
        assert not sender.is_alive()
        # the interrupted job is still running; this call does not wait for it
        assert run_on_deep_stack(lambda: "second") == "second"
    finally:
        release.set()
    assert run_on_deep_stack(lambda: "third") == "third"


def test_no_decimal_state_carries_over_between_evaluations():
    ctx = fresh()
    division = "DEC('2') / DEC('7')"
    first = evaluate(ctx, division)
    worker_context = run_on_deep_stack(lambda: str(decimal.getcontext()))
    for i in range(98):
        evaluate(ctx, f"DEC('1.{i}') * DEC('3.{i}') + DEC('1') / DEC('{i + 3}') - 7 % DEC('0.{i + 1}')")
    hundredth = evaluate(ctx, division)
    with decimal.localcontext() as cx:
        cx.prec = DEC_DIV_PRECISION
        expected = decimal.Decimal(2) / decimal.Decimal(7)
    assert first == hundredth == expected
    assert len(hundredth.as_tuple().digits) == DEC_DIV_PRECISION
    assert run_on_deep_stack(lambda: str(decimal.getcontext())) == worker_context


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_worker():
    ctx = fresh()
    assert evaluate(ctx, "6 * 7") == 42  # the parent's worker exists now
    pid = os.fork()
    if pid == 0:
        os._exit(0 if evaluate(ctx, "6 * 7") == 42 else 1)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung in evaluate")
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_dropped_copy_of_njexl_stops_its_workers():
    script = """
import gc, importlib, sys, threading
gc.disable()
def fresh_njexl():
    for name in [m for m in sys.modules if m.split(".")[0] == "njexl"]:
        del sys.modules[name]
    return importlib.import_module("njexl")
for _ in range(3):
    nj = fresh_njexl()
    assert nj.evaluate(nj.create_context(), "6 * 7") == 42
started = [t for t in threading.enumerate() if t.name == "njexl-eval"]
nj = fresh_njexl()
for t in started:
    t.join(timeout=10)
print(len(started), sum(t.is_alive() for t in started))
"""
    src = os.path.dirname(os.path.dirname(njexl.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    started, alive = map(int, done.stdout.split())
    assert started >= 1 and alive == 0
