import datetime
import gc
import itertools
import random
from collections import Counter
from decimal import Decimal

import pytest

from njexl.errors import NjexlError
from njexl.values import BigInt

from conftest import fixture_path, run_source, to_src


def run(source, **kw):
    return run_source(source, **kw)[0]


# --- index -------------------------------------------------------------------


def test_index_examples():
    assert run("index{ _ > 0 and $$[_-1] > $ }([1,2,3])") == -1
    assert run("index{ true }(['x'])") == 0
    assert run("index{ $ > 2 }([1,3,2,4])") == 1


def test_index_against_linear_scan_oracle():
    rng = random.Random(31)
    for _ in range(1000):
        xs = [rng.randrange(10) for _ in range(rng.randrange(9))]
        threshold = rng.randrange(10)
        got = run(f"index{{ $ > {threshold} }}({xs!r})")
        want = next((i for i, x in enumerate(xs) if x > threshold), -1)
        assert got == want
        if got >= 0:
            assert xs[got] > threshold
            assert all(not (x > threshold) for x in xs[:got])


def test_index_requires_block():
    with pytest.raises(NjexlError):
        run("index([1])")


# --- list / set ---------------------------------------------------------------


def test_set_constructor_dedupes():
    assert sorted(run("set(1,2,2,2,3)")) == [1, 2, 3]
    assert len(run("set()")) == 0


def test_set_spreads_a_single_collection():
    assert sorted(run("set([1,2,2])")) == [1, 2]
    assert run("#|set('aa')|") == 1  # strings are scalars here


def test_list_forms():
    assert run("list{ $ }([])") == []
    assert run("list(1,2,3)") == [1, 2, 3]
    assert run("l = [0,1,2]\nlist{ l }([0:3])") == [[0, 1, 2]] * 3
    assert run("[0:3].list()") == [0, 1, 2]
    assert run("[0:0].list()") == []
    assert run("[0:10:3].list()") == [0, 3, 6, 9]
    assert sorted(run("[0:3].set()")) == [0, 1, 2]


def test_list_block_skip_and_stop():
    assert run("list{ continue( $ % 2 == 0 ) ; $ }([1,2,3,4,5])") == [1, 3, 5]
    assert run("list{ break( $ > 2 ) ; $ }([1,2,3,4])") == [1, 2]


# --- minmax ---------------------------------------------------------------------


def test_minmax_examples():
    assert run("minmax{ size($.0) < size($.1) }(['a','ccc','bb'])") == ("a", "ccc")
    assert run("minmax([7])") == (7, 7)
    assert run("minmax([3,1,2])") == (1, 3)


def test_minmax_first_encountered_wins_ties():
    lo, hi = run("minmax{ size($.0) < size($.1) }(['aa','bb','c','dd'])")
    assert lo == "c" and hi == "aa"


def test_minmax_empty_collection():
    with pytest.raises(NjexlError) as err:
        run("minmax([])")
    assert err.value.kind == "EmptyCollection"


def test_minmax_scan_oracle():
    rng = random.Random(37)
    for _ in range(300):
        xs = [rng.randrange(100) for _ in range(rng.randrange(1, 10))]
        assert run(f"minmax({xs!r})") == (min(xs), max(xs))


# --- folds ------------------------------------------------------------------------


def test_lfold_examples():
    assert run("word = 'abc'\nlfold{ _$_ += word[$] }([2,0,1], '')") == "cab"
    assert run("lfold{ _$_ }([9,9,9], 'seed')") == "seed"
    assert run("lfold{ _$_ + $ }([1,2,3], 0)") == 6


def test_rfold_reverses_order():
    assert run("rfold{ _$_ + $ }(['a','b','c'], '')") == "cba"


def test_fold_oracles_on_random_input():
    rng = random.Random(43)
    for _ in range(200):
        xs = [rng.randrange(-20, 20) for _ in range(rng.randrange(8))]
        assert run(f"lfold{{ _$_ + $ }}({xs!r}, 0)") == sum(xs)
        words = [rng.choice(["a", "bb", "c"]) for _ in range(rng.randrange(6))]
        assert run(f"lfold{{ _$_ + $ }}({words!r}, '')") == "".join(words)
        assert run(f"lfold{{ _$_ + $ }}({xs!r}, [])") == xs


# --- join ----------------------------------------------------------------------------


def test_join_singletons():
    assert run("join(['x'],['y'])") == [["x", "y"]]


def test_join_counts_match_product_of_sizes():
    assert len(run("join{ true }([1,2], [1,2,3], [1,2,3,4])")) == 24


def _product_oracle(pools):
    if not pools:
        return [[]]
    rest = _product_oracle(pools[1:])
    return [[x] + tail for x in pools[0] for tail in rest]


def test_join_matches_recursive_product_oracle():
    rng = random.Random(47)
    for _ in range(60):
        k = rng.randrange(1, 5)
        pools = [[rng.randrange(5) for _ in range(rng.randrange(1, 6))] for _ in range(k)]
        args = ", ".join(repr(p) for p in pools)
        assert run(f"join({args})") == _product_oracle(pools)


def test_join_splat_equivalent_to_positional():
    explicit = run("join([0,1],[0,1])")
    splatted = run("ll = [[0,1],[0,1]]\njoin(__args__ = ll)")
    assert explicit == splatted == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_join_block_filter_skip_stop():
    assert run("join{ $[0] == $[1] }([1,2],[1,2])") == [[1, 1], [2, 2]]
    assert run("join{ continue( $[0] == $[1] ) ; true }([1,2],[1,2])") == [[1, 2], [2, 1]]
    assert run("join{ break( $[1] == 2 ) ; true }([1,2],[1,2,3])") == [[1, 1]]


def test_join_block_sees_the_kept_rows_and_one_argument_list():
    # _$_ is the list of rows kept so far; $$ is one list of the arguments per call
    assert run("join{ #|_$_| < 2 }([1,2],[3,4])") == [[1, 3], [1, 4]]
    assert run("join{ r = #|$$[0]| == 2 ; $$[0] = [9] ; r }([1,2],[3])") == [[1, 3]]


def test_permutation_corpus_property():
    # distinct-character words of length n yield n! distinct strings,
    # each a character multiset match of the input
    script = """
n = #|word|
l = [0:n].list()
ll = list{ l }([0:n])
permutations = set()
join{
    continue( #|set($)| != #|$| )
    indices = $
    p = lfold{ _$_ += word[$] }(indices,'')
    permutations += p ; false
}(__args__ = ll )
sorta(permutations)
"""
    import math

    for word in ("a", "ab", "abc", "abcd", "abcde", "abcdef"):
        got = run(f"word = {word!r}\n" + script)
        assert len(got) == math.factorial(len(word))
        assert len(set(got)) == len(got)
        assert all(Counter(p) == Counter(word) for p in got)
        assert got == sorted("".join(p) for p in itertools.permutations(word))


# --- sorting ------------------------------------------------------------------------


def test_sort_examples():
    assert run("sortd([1,3,2])") == [3, 2, 1]
    assert run("sorta([])") == []
    assert run("sorta(['b','a','c'])") == ["a", "b", "c"]


def test_sort_is_stable_and_pure():
    value, _, _ = run_source("xs = [[1,'a'],[0,'b'],[1,'c']]\nsortd{ $.0[0] < $.1[0] }(xs)\nxs")
    assert value == [[1, "a"], [0, "b"], [1, "c"]]  # input untouched
    got = run("sortd{ $.0[0] < $.1[0] }([[1,'a'],[0,'b'],[1,'c']])")
    assert got == [[1, "a"], [1, "c"], [0, "b"]]  # equal keys keep order


def test_sorted_permutation_property():
    rng = random.Random(51)
    for _ in range(500):
        xs = [rng.randrange(20) for _ in range(rng.randrange(12))]
        assert run(f"sorta({xs!r})") == sorted(xs)
        desc = run(f"sortd({xs!r})")
        assert desc == sorted(xs, reverse=True)  # descending order, element-wise
        assert run(f"sortd({xs!r}) == {xs!r}") is True  # and a permutation


class _CountedLess:
    """An int whose < counts how often sorted() asks it."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        _CountedLess.calls += 1
        return self.value < other.value


@pytest.mark.parametrize("name", ["sorta", "sortd"])
def test_a_block_sort_asks_its_comparator_once_per_comparison(name):
    rng = random.Random(8)
    for n in (0, 1, 2, 3, 10, 100, 300):
        xs = [rng.randrange(40) for _ in range(n)]
        _CountedLess.calls = 0
        sorted(map(_CountedLess, xs), reverse=name == "sortd")
        asked, _, scope = run_source(f"k = 0\nys = {name}{{ k += 1; $.0 < $.1 }}({xs!r})\nk")
        assert asked == _CountedLess.calls
        assert scope.bindings["ys"] == sorted(xs, reverse=name == "sortd")


def test_block_sorts_are_stable_both_ways():
    rng = random.Random(9)
    pairs = [[rng.randrange(20), i] for i in range(3000)]
    for name, descending in (("sorta", False), ("sortd", True)):
        got = run(f"{name}{{ $.0[0] < $.1[0] }}(__args__[0])", args=[pairs])
        assert got == sorted(pairs, key=lambda p: p[0], reverse=descending)


def test_sort_incomparable_elements():
    with pytest.raises(NjexlError) as err:
        run("sorta([1, 'a'])")
    assert err.value.kind == "TypeError"


# --- conversions -----------------------------------------------------------------------


def test_int_examples():
    assert run("int('42', 0)") == 42
    assert run("int('junk', 0)") == 0
    assert run("int(0.1 * 30)") == 3
    assert run("int('  -7  ')") == -7
    assert run("int(-3.9)") == -3


def test_int_without_default_raises():
    with pytest.raises(NjexlError) as err:
        run("int('junk')")
    assert err.value.kind == "NumberFormatError"


def test_big_and_decimal_conversions():
    big = run("INT('123456789012345678901234567890')")
    assert isinstance(big, BigInt)
    assert big == 123456789012345678901234567890
    small = run("INT(7) / INT(2)")
    assert small == Decimal("3.5")
    dec = run("DEC('0.1') + DEC('0.2')")
    assert dec == Decimal("0.3")
    assert run("float('2.5')") == 2.5
    assert run("float('x', 1.5)") == 1.5


def test_date_examples():
    assert run("date('19470815','yyyyMMdd')") == datetime.date(1947, 8, 15)
    assert run("date('20000101','yyyyMMdd')") == datetime.date(2000, 1, 1)
    stamp = run("date('2001-02-03 04:05:06','yyyy-MM-dd HH:mm:ss')")
    assert stamp == datetime.datetime(2001, 2, 3, 4, 5, 6)


def test_date_errors():
    with pytest.raises(NjexlError) as err:
        run("date('2020-02-30','yyyy-MM-dd')")
    assert err.value.kind == "DateParseError"
    with pytest.raises(NjexlError) as err:
        run("date('2020','QQQQ')")
    assert err.value.kind == "PatternError"


def test_dates_compare_and_stringify():
    assert run("date('19470815','yyyyMMdd') < date('20000101','yyyyMMdd')") is True
    _, out, _ = run_source("print(date('19470815','yyyyMMdd'))")
    assert out == "1947-08-15\n"


# --- io ---------------------------------------------------------------------------------


def test_print_forms():
    _, out, _ = run_source("print(null)\nprint(1, 'a', [2])\nprint()")
    assert out == "null\n1 a [2]\n\n"


def test_read_and_lines(tmp_path):
    target = tmp_path / "data.txt"
    target.write_text("one\ntwo\nthree\n")
    path = str(target)
    assert run(f"read({path!r})") == "one\ntwo\nthree\n"
    assert run(f"list{{ $ }}(lines({path!r}))") == ["one", "two", "three"]
    assert run(f"#|list(lines({path!r}))|") == 3


def test_lines_is_lazy_iterator():
    got = run(f"it = lines({fixture_path('lines.txt')!r})\nindex{{ $ == 'cccc' }}(it)")
    assert got == 1


def test_unused_lines_value_closes_its_file(tmp_path, recwarn):
    target = tmp_path / "data.txt"
    target.write_text("one\ntwo\n")
    for source in (f"it = lines({str(target)!r})\n1", f"lines({str(target)!r})\n2"):
        run(source)
        gc.collect()
    assert not [w for w in recwarn if issubclass(w.category, ResourceWarning)]


def test_lines_fails_at_the_call(tmp_path):
    for path, kind in (("definitely_missing.txt", "FileNotFound"), (str(tmp_path), "IoError")):
        with pytest.raises(NjexlError) as err:
            run(f"it = lines({path!r})\nnull")
        assert err.value.kind == kind


def test_read_missing_file():
    with pytest.raises(NjexlError) as err:
        run("read('definitely_missing.txt')")
    assert err.value.kind == "FileNotFound"


def test_write_replaces_content(tmp_path):
    target = str(tmp_path / "out.txt")
    run(f"write({target!r}, 'first')\nwrite({target!r}, 'second')")
    assert (tmp_path / "out.txt").read_text() == "second"


def test_write_into_a_missing_directory_fails_at_the_call(tmp_path):
    target = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(NjexlError) as err:
        run(f"x = 1\n  write({target!r}, 'a')")
    got = err.value
    assert (got.kind, got.line, got.col) == ("IoError", 2, 3)
    assert got.message.startswith(f"cannot write {target}: ")


def test_http_disabled_by_default():
    with pytest.raises(NjexlError) as err:
        run("read('http://example.com/x')")
    assert err.value.kind == "IoError"


@pytest.mark.parametrize("builtin", ["read", "lines"])
def test_a_fetch_from_a_silent_server_times_out(monkeypatch, builtin):
    import socket
    import time
    import warnings

    from njexl import stdlib

    monkeypatch.setattr(stdlib, "FETCH_TIMEOUT_S", 0.3)
    monkeypatch.setenv("no_proxy", "*")  # straight to the local listener
    loader = stdlib.ResourceLoader(http_enabled=True)
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen(1)  # the connection completes, but nothing ever answers
        url = f"http://127.0.0.1:{server.getsockname()[1]}/x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.monotonic()
            with pytest.raises(NjexlError) as err:
                run(f"{builtin}({url!r})", loader=loader)
            elapsed = time.monotonic() - start
            gc.collect()
    assert err.value.kind == "IoError" and "timed out" in err.value.message
    assert elapsed < 5
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("builtin", ["read", "lines"])
def test_a_fetch_from_a_trickling_server_times_out(monkeypatch, builtin):
    """A server that answers at once and then sends one byte every 0.1 s
    never lets a single socket wait time out; the fetch's deadline ends it."""
    import socket
    import threading
    import time
    import warnings

    from njexl import stdlib

    def trickle(server, stop):
        conn, _ = server.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n")
            while not stop.wait(0.1):
                try:
                    conn.sendall(b"x")
                except OSError:  # the client gave up and closed
                    return

    monkeypatch.setattr(stdlib, "FETCH_TIMEOUT_S", 0.3)
    monkeypatch.setenv("no_proxy", "*")  # straight to the local server
    loader = stdlib.ResourceLoader(http_enabled=True)
    stop = threading.Event()
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        url = f"http://127.0.0.1:{server.getsockname()[1]}/x"
        sender = threading.Thread(target=trickle, args=(server, stop))
        sender.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.monotonic()
                with pytest.raises(NjexlError) as err:
                    run(f"{builtin}({url!r})", loader=loader)
                elapsed = time.monotonic() - start
                gc.collect()
        finally:
            stop.set()
            sender.join()
    assert err.value.kind == "IoError" and "timed out" in err.value.message
    assert elapsed < 2
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_eval_examples():
    assert run("eval('1+1')") == 2
    assert run("x = 5\neval('x+1')") == 6


def test_size_builtin():
    assert run("size('word')") == 4
    assert run("size([1,2])") == 2
    with pytest.raises(NjexlError):
        run("size(null)")


def test_builtins_are_shadowable():
    assert run("min = 'mine'\nmin") == "mine"
    assert run("#(min,MAX) = minmax([2,1,3])\n[min, MAX]") == [1, 3]
    # rebinding size locally hides the builtin in that scope
    got = run("def f(){ size = 9 ; size }\n[f(), size('ab')]")
    assert got == [9, 2]


def test_set_dedup_equivalence_class_count():
    rng = random.Random(53)
    for _ in range(300):
        xs = [rng.choice([0, 1, 2, 1.0, 2.0, "a", None]) for _ in range(rng.randrange(10))]
        got = run(f"#|set(list{{ $ }}({to_src(xs)}))|")
        from njexl.values import canonical_key

        assert got == len({canonical_key(x) for x in xs})


# --- argument checks: kind, message and position of every builtin ------------------

_NAMED = "UnknownParameter", "{} takes no named arguments"
_BLOCK = "TypeError", "{} needs a {{...}} block"

# (call, kind, message); each call sits at line 2, col 7 of its program
_ARGUMENT_ERRORS = [
    *[(f"{name}(1, a=2)", *_NAMED) for name in (
        "int", "INT", "float", "DEC", "date", "print", "read", "lines", "write", "eval",
        "size", "index", "list", "set", "minmax", "lfold", "rfold", "join", "sorta", "sortd",
    )],
    ("index(a=2)", *_NAMED),  # named arguments are checked before the block
    *[(f"{name}()", *_BLOCK) for name in ("index", "lfold", "rfold")],  # block before count
    ("int()", "ArityError", "int takes 1..2 arguments, got 0"),
    ("INT(1, 2, 3)", "ArityError", "INT takes 1..2 arguments, got 3"),
    ("float()", "ArityError", "float takes 1..2 arguments, got 0"),
    ("DEC('1', 2, 3)", "ArityError", "DEC takes 1..2 arguments, got 3"),
    ("date('2020')", "ArityError", "date takes 2 arguments, got 1"),
    ("read()", "ArityError", "read takes 1 arguments, got 0"),
    ("lines('a', 'b')", "ArityError", "lines takes 1 arguments, got 2"),
    ("write('a')", "ArityError", "write takes 2 arguments, got 1"),
    ("eval()", "ArityError", "eval takes 1 arguments, got 0"),
    ("size([1], [2])", "ArityError", "size takes 1 arguments, got 2"),
    ("index{ $ }([1], [2])", "ArityError", "index takes 1 arguments, got 2"),
    ("list{ $ }([1], [2])", "ArityError", "list takes 1 arguments, got 2"),
    ("set{ $ }()", "ArityError", "set takes 1 arguments, got 0"),
    ("minmax()", "ArityError", "minmax takes 1 arguments, got 0"),
    ("minmax{ true }([1], [2])", "ArityError", "minmax takes 1 arguments, got 2"),
    ("lfold{ $ }()", "ArityError", "lfold takes 1..2 arguments, got 0"),
    ("rfold{ $ }([1], 0, 0)", "ArityError", "rfold takes 1..2 arguments, got 3"),
    ("join()", "ArityError", "join needs at least one collection"),
    ("sorta([1], [2])", "ArityError", "sorta takes 1 arguments, got 2"),
    ("sortd{ true }()", "ArityError", "sortd takes 1 arguments, got 0"),
    ("I:parseInt()", "ArityError", "parseInt takes 1 arguments, got 0"),
    ("I:parseInt('1', '2')", "ArityError", "parseInt takes 1 arguments, got 2"),
    *[(call, "TypeError", "break/continue not allowed in a comparator block") for call in (
        "sorta{ break }([1, 2])", "sortd{ continue }([1, 2])", "minmax{ break }([1, 2])",
    )],
    ("date(1, 'yyyy')", "TypeError", "date() expects two strings"),
    ("read(1)", "TypeError", "read() expects a path string"),
    ("lines(1)", "TypeError", "lines() expects a path string"),
    ("write(1, 'x')", "TypeError", "write() expects a path and a string"),
    ("eval(1)", "TypeError", "eval() expects a string"),
    ("I:parseInt(1)", "NumberFormatError", "for input: 1"),
    # errors raised below a builtin with no position of their own take the call's
    ("read('nope')", "FileNotFound", "no such file: nope"),
    ("lines('nope')", "FileNotFound", "no such file: nope"),
    ("eval('return 1')", "SyntaxError", "'return' outside a function"),
    ("eval('break')", "SyntaxError", "'break' outside a loop"),
    *[(call, "TypeError", "{} cannot iterate a int") for call in (
        "index{ $ }(1)", "list{ $ }(1)", "set{ $ }(1)", "minmax{ true }(1)", "lfold{ $ }(1)",
        "rfold{ $ }(1, 0)", "join{ true }(1)", "sorta{ true }(1)", "sortd{ true }(1)",
    )],
]


@pytest.mark.parametrize("call, kind, message", _ARGUMENT_ERRORS)
def test_builtin_argument_errors_keep_kind_message_and_position(call, kind, message):
    with pytest.raises(NjexlError) as err:
        run(f"import 'java.lang.Integer' as I\n  y = {call}")
    name = call.split("(")[0].split("{")[0].split(":")[-1]
    got = err.value
    assert (got.kind, got.message, got.line, got.col) == (kind, message.format(name), 2, 7)


def test_native_module_function_rejects_named_arguments():
    # static calls cannot pass named arguments, so a host calls the function itself
    from types import SimpleNamespace

    from njexl.stdlib import default_registry

    parse_int = default_registry()["java.lang.Integer"].bindings["parseInt"]
    node = SimpleNamespace(line=2, col=7)
    with pytest.raises(NjexlError) as err:
        parse_int.fn(None, None, ["1"], {"a": 2}, None, node)
    got = err.value
    assert (got.kind, got.message, got.line, got.col) == (
        "UnknownParameter", "parseInt takes no named arguments", 2, 7
    )
