"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import random
import string
import time
from collections import Counter
from decimal import Decimal

from njexl import StructuredError, bind, create_context, evaluate
from njexl.values import ErrorValue, XSet, cardinality, enumerate_value
from njexl.values import membership, sub_collection, values_equal

from conftest import Capture, corpus_path, fixture_path, run_cli, run_source
from test_values import check_arith_against_oracle


def _report(number, label, ok=True):
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def fresh_ctx(**kw):
    return create_context(out=Capture(), err=Capture(), **kw)


# --- criterion 1: bundled corpus goldens ----------------------------------------


def test_criterion_1_corpus_goldens():
    started = time.perf_counter()
    checks = [
        (
            ["run", corpus_path("glance.njxl")],
            "42\n1947-08-15\n[1, 2, 3]\n{0 : false, 1 : true}\n{1, 2, 3}\n"
            "0.100101000017181881881888188981313873444111\n5\n",
        ),
        (
            ["run", corpus_path("fizzbuzz.njxl")],
            "1\n2\nFizz\n4\nBuzz\nFizz\n7\n8\nFizz\nBuzz\n11\nFizz\n13\n14\nFizzBuzz\n",
        ),
        (
            ["run", corpus_path("fizzbuzz_literal.njxl")],
            "1\n2\nFizz\n4\nBuzz\nFizz\n7\n8\nFizz\nBuzz\n11\nFizz\n13\n14\n15\n",
        ),
        (
            ["run", corpus_path("largest_line.njxl"), "--", fixture_path("lines.txt")],
            "cccc\n",
        ),
        (
            ["run", corpus_path("permutations.njxl"), "--", "abc"],
            "6\n[abc, acb, bac, bca, cab, cba]\n",
        ),
        (
            ["run", corpus_path("permutations.njxl"), "--", "aab"],
            "3\n[aab, aba, baa]\n",
        ),
        (
            [
                "--seed-clock",
                "1000",
                "--map-url",
                "http://www.google.co.in=" + fixture_path("page.txt"),
                "run",
                corpus_path("benchmark.njxl"),
            ],
            "1000\n",
        ),
        (
            ["run", corpus_path("import_error.njxl")],
            "null\nNumberFormatError: for input string: 'The answer to everything is 42'\n",
        ),
    ]
    for argv, expected in checks:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        assert out == expected, argv
    # the glance decimal kept all 42 fractional digits
    digits = "100101000017181881881888188981313873444111"
    assert len(digits) == 42
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"corpus took {elapsed:.2f}s"
    _report(1, "bundled corpus goldens, < 5 s")


# --- criterion 2: validation predicates vs brute-force oracles -------------------


def _load_predicate_ctx(script):
    ctx = fresh_ctx()
    with open(corpus_path(script), encoding="utf-8") as fh:
        source = fh.read()
    # keep the definitions, drop the demo print tail
    body = "\n".join(
        line for line in source.splitlines() if not line.startswith("print(")
    )
    result = evaluate(ctx, body + "\nnull")
    assert not isinstance(result, StructuredError), result
    return ctx


def _sorted_perm_oracle(l_i, l_o):
    return sorted(l_i) == sorted(l_o) and all(
        l_o[i - 1] <= l_o[i] for i in range(1, len(l_o))
    )


def test_criterion_2_predicates_agree_with_oracles():
    rng = random.Random(2024)

    # is_sorted_permutation: 1000 random + adversarial cases
    ctx = _load_predicate_ctx("sorted_check.njxl")
    cases = []
    for _ in range(1000):
        l_i = [rng.randrange(10) for _ in range(rng.randrange(13))]
        mode = rng.randrange(4)
        if mode == 0:
            l_o = sorted(l_i)
        elif mode == 1:
            l_o = l_i[:]
            rng.shuffle(l_o)
        elif mode == 2:
            l_o = sorted(l_i)
            if len(l_o) >= 2:
                k = rng.randrange(len(l_o) - 1)
                l_o[k], l_o[k + 1] = l_o[k + 1], l_o[k]  # near-sorted, one swap
        else:
            l_o = [rng.randrange(10) for _ in range(rng.randrange(13))]
        cases.append((l_i, l_o))
    cases += [
        ([1, 1, 2], [1, 2, 2]),          # duplicates, unequal multisets
        ([1, 2, 2], [2, 1, 2]),          # equal multisets, different order
        ([3, 1, 2], [1, 2, 3]),
        ([], []),
        ([5], [5]),
    ]
    for l_i, l_o in cases:
        bind(ctx, "l_i", l_i)
        bind(ctx, "l_o", l_o)
        got = evaluate(ctx, "is_sorted_permutation(l_i, l_o)")
        assert got == _sorted_perm_oracle(l_i, l_o), (l_i, l_o)

    # verify_applied_filter: 500 random (list, predicate) pairs
    fctx = _load_predicate_ctx("filter_check.njxl")
    predicates = [
        ("def(x){ x % 2 == 0 }", lambda x: x % 2 == 0),
        ("def(x){ x > 4 }", lambda x: x > 4),
        ("def(x){ x @ [1,2,3] }", lambda x: x in (1, 2, 3)),
    ]
    def contained(a, b):
        need, have = Counter(a), Counter(b)
        return all(have[k] >= n for k, n in need.items())

    for _ in range(500):
        src, pred = predicates[rng.randrange(len(predicates))]
        l = [rng.randrange(10) for _ in range(rng.randrange(10))]
        l_f = [x for x in l if pred(x)]
        mode = rng.randrange(4)
        if mode == 1 and l:
            l_f = l_f + [rng.choice([x for x in l if not pred(x)] or [99])]  # violator
        elif mode == 2:
            l_f = l_f + [77]  # not drawn from l
        elif mode == 3 and l_f:
            l_f = l_f[: rng.randrange(len(l_f))]  # partial output is still valid
        bind(fctx, "l", l)
        bind(fctx, "l_F", l_f)
        evaluate(fctx, f"P = {src}")
        got = evaluate(fctx, "verify_applied_filter(P, l, l_F)")
        want = all(pred(x) for x in l_f) and contained(l_f, l)
        assert got == want, (src, l, l_f)

    # verify_tables: 200 random table pairs with shuffled rows and permuted columns
    tctx = _load_predicate_ctx("table_check.njxl")

    def canon(rows, order):
        return Counter(
            "".join(str(row[i]) + "#" for i in order) for row in rows
        )

    for _ in range(200):
        cols = rng.randrange(1, 5)
        height = rng.randrange(1, 6)
        left = [
            [rng.choice([rng.randrange(10), rng.choice("abcd")]) for _ in range(cols)]
            for _ in range(height)
        ]
        sigma = list(range(cols))
        rng.shuffle(sigma)
        right = [[row[sigma[j]] for j in range(cols)] for row in left]
        rng.shuffle(right)
        i_l = list(range(cols))
        i_r = [sigma.index(i) for i in range(cols)]
        if rng.random() < 0.35 and right:  # one-cell perturbation
            r = rng.randrange(len(right))
            c = rng.randrange(cols)
            right[r][c] = "zz"
        bind(tctx, "t_left", left)
        bind(tctx, "t_right", right)
        bind(tctx, "I_l", i_l)
        bind(tctx, "I_r", i_r)
        got = evaluate(tctx, "verify_tables(t_left, t_right, I_l, I_r)")
        want = canon(left, i_l) == canon(right, i_r)
        assert got == want, (left, right, i_l, i_r)

    _report(2, "validation predicates agree with brute-force oracles")


# --- criterion 3: collection-algebra property suite --------------------------------


def _random_value(rng, depth=2):
    pick = rng.randrange(8 if depth else 6)
    if pick == 0:
        return None
    if pick == 1:
        return rng.choice([True, False])
    if pick == 2:
        return rng.randrange(-3, 4)
    if pick == 3:
        return rng.choice([0.0, 1.0, 2.5])
    if pick == 4:
        return rng.choice(["", "a", "b"])
    if pick == 5:
        return Decimal(rng.randrange(-2, 3))
    if pick == 6:
        return [_random_value(rng, depth - 1) for _ in range(rng.randrange(3))]
    return XSet(_random_value(rng, depth - 1) for _ in range(rng.randrange(3)))


def test_criterion_3_collection_algebra_properties():
    rng = random.Random(3003)

    for _ in range(1000):  # equivalence laws
        a = _random_value(rng)
        b = _random_value(rng)
        c = rng.choice([a, b, _random_value(rng)])
        assert values_equal(a, a)
        assert values_equal(a, b) == values_equal(b, a)
        if values_equal(a, b) and values_equal(b, c):
            assert values_equal(a, c)

    for _ in range(1000):  # partial-order laws on multisets
        base = [rng.randrange(4) for _ in range(rng.randrange(5))]
        bigger = base + [rng.randrange(4) for _ in range(rng.randrange(4))]
        biggest = bigger + [rng.randrange(4) for _ in range(rng.randrange(4))]
        rng.shuffle(bigger)
        rng.shuffle(biggest)
        assert sub_collection(base, base)
        assert sub_collection(base, bigger) and sub_collection(bigger, biggest)
        assert sub_collection(base, biggest)
        other = [rng.randrange(4) for _ in range(rng.randrange(5))]
        if sub_collection(base, other) and sub_collection(other, base):
            assert values_equal(base, other)

    for _ in range(1000):  # membership matches a linear scan
        c = [rng.randrange(6) for _ in range(rng.randrange(8))]
        x = rng.randrange(8)
        assert membership(x, c) == any(values_equal(x, e) for e in c)

    for _ in range(1000):  # cardinality matches enumeration
        kind = rng.randrange(3)
        if kind == 0:
            v = [rng.randrange(5) for _ in range(rng.randrange(9))]
        elif kind == 1:
            v = XSet(rng.randrange(5) for _ in range(rng.randrange(9)))
        else:
            v = "".join(rng.choice("xyz") for _ in range(rng.randrange(9)))
        assert cardinality(v) == sum(1 for _ in enumerate_value(v))

    _report(3, "collection algebra: 4 x 1000 generated cases")


# --- criterion 4: numeric tower ------------------------------------------------------


def test_criterion_4_numeric_tower():
    assert check_arith_against_oracle(10_000, seed=404) == 10_000

    value, _, _ = run_source("4611686018427387904 * 4")  # 2^62 * 4 promotes
    assert value == 18446744073709551616

    literal = "0.100101000017181881881888188981313873444111"
    stringified, _, _ = run_source(f"'' + {literal}")
    assert stringified == literal

    _report(4, "numeric tower: 10,000 oracle cases, overflow promotion, digits")


# --- criterion 5: interpreter semantics ------------------------------------------------


def test_criterion_5_interpreter_semantics():
    # closure capture
    src = """
def make(){ c = 0 ; def inc(){ c = c + 1 ; c } ; inc }
ctr = make()
ctr() ; ctr() ; ctr()
"""
    assert run_source(src)[0] == 3

    # var writes the global frame from inside a call
    assert run_source("def f(){ var g = 11 }\nf()\ng")[0] == 11

    # error-capture totality over 500 generated expressions
    rng = random.Random(505)
    atoms = [
        "1", "0", "'s'", "[1,2]", "nope", "int('x')", "1/0", "null", "{1:2}",
        "idx[9]", "index{ 1/0 }([1])", "lfold{ _$_ + $ }([1,'a'], 0)",
        "#clock{ missing }.1", "eval('(')", "minmax([])", "size(null)",
        "date('x','yyyy')", "[1][5]",
    ]
    ops = [" + ", " - ", " * ", " / ", " % ", " @ ", " <= ", " == ", " < "]
    for _ in range(500):
        parts = [rng.choice(atoms)]
        for _ in range(rng.randrange(0, 3)):
            parts.append(rng.choice(ops))
            parts.append(rng.choice(atoms))
        src = "idx = []\n#(o,:e) = " + "".join(parts) + "\n[o, e]"
        o, e = run_source(src)[0]  # must not abort
        assert (e is None) != isinstance(e, ErrorValue)
        if isinstance(e, ErrorValue):
            assert o is None

    # for-loop over ranges matches an independent counter
    for a, b in [(-3, 7), (0, 0), (5, 2), (1, 16)]:
        src = f"n = 0\nfor (i : [{a}:{b}]) {{ n = n + 1 }}\nn"
        assert run_source(src)[0] == len(range(a, b))

    # the recursion cap surfaces as a catchable error
    value, _, _ = run_source("def spin(n){ spin(n+1) }\n#(o,:e) = spin(0)\ne.kind")
    assert value == "StackOverflowError"

    _report(5, "interpreter semantics: closures, var, capture totality, loops, cap")


# --- criterion 6: CLI contract -----------------------------------------------------------


def test_criterion_6_cli_contract(tmp_path):
    good = tmp_path / "good.njxl"
    good.write_text("print(6 * 7)\n")
    parse_bad = tmp_path / "parse_bad.njxl"
    parse_bad.write_text("x = (\n")
    run_bad = tmp_path / "run_bad.njxl"
    run_bad.write_text("1/0\n")

    assert run_cli(["run", str(good)]) == (0, "42\n", "")
    code, _, err = run_cli(["run", str(parse_bad)])
    assert code == 1 and "ParseError" in err
    code, _, err = run_cli(["run", str(run_bad)])
    assert code == 1 and "DivideByZero" in err
    code, _, err = run_cli(["run", str(tmp_path / "absent.njxl")])
    assert code == 1 and "FileNotFound" in err
    code, _, err = run_cli(["--bogus"])
    assert code == 2 and "usage" in err

    assert run_cli(["--eval", "1+1"]) == (0, "2\n", "")

    # REPL persistence and error recovery transcripts
    assert run_cli([], "x = 2\nx * 21\n:quit\n") == (0, "42\n", "")
    code, out, err = run_cli([], "1/0\n40 + 2\n:quit\n")
    assert code == 0 and out == "42\n" and "DivideByZero" in err
    code, out, err = run_cli([], "#(o,:e) = int('zz')\ne\n:quit\n")
    assert code == 0 and out.startswith("NumberFormatError") and err == ""

    _report(6, "CLI exit-code matrix, --eval, REPL transcripts")


# --- criterion 7: embed API ---------------------------------------------------------------


def garbage(rng):
    """One malformed input text, drawn from rng."""
    kind = rng.randrange(4)
    if kind == 0:
        return "".join(rng.choice("()[]{}#|?:;,.'\"") for _ in range(rng.randrange(1, 14)))
    if kind == 1:
        return "".join(rng.choice(string.printable) for _ in range(rng.randrange(1, 24)))
    if kind == 2:
        return "(" * rng.randrange(1, 60)
    return rng.choice(["def", "if (", "#(", "a @ @", "1 ? 2", "import", "{ 1 :", "x ="])


def test_criterion_7_embed_api():
    rng = random.Random(707)

    def build(depth):
        if depth == 0:
            return rng.choice([None, True, False, 3, -7, 1.5, "txt", ""])
        if rng.random() < 0.5:
            return [build(depth - 1) for _ in range(rng.randrange(3))]
        return {
            "".join(rng.choice("abc") for _ in range(2)): build(depth - 1)
            for _ in range(rng.randrange(3))
        }

    ctx = fresh_ctx()
    for _ in range(300):
        value = build(4)
        bind(ctx, "v", value)
        assert evaluate(ctx, "v") == value

    # 500 malformed inputs produce structured errors, never host aborts
    errors = 0
    for _ in range(500):
        result = evaluate(ctx, garbage(rng))
        if isinstance(result, StructuredError):
            errors += 1
            assert result.kind and isinstance(result.message, str)
    assert errors > 400  # nearly all of these are genuinely malformed

    _report(7, "embed API: depth-4 round trips, 500-input no-abort fuzz")
