"""The three benchmark workloads: input generation, set-up, one op, checks.

Every workload makes its inputs from a seed with Python's own `random`
before njexl is touched, and keeps a reference answer for every op that
njexl does not compute: Python oracles for the paper's predicates, the
hand-written goldens of the bundled corpus, and values computed in Python
for the generated scripts.  The seed changes values, never sizes, so every
seed costs the same work.

A workload is used in this order: construct (generates inputs), `setup(nj)`
(possibly several times; the last call wins), then `op(k)` and
`check(k, out)` for op numbers k = 0, 1, ..., and finally `close()`.
"""

import io
import os
import random
import shutil
from collections import Counter

# The paper's three filter predicates, as njexl source and as Python.
FILTER_PREDICATES = [
    ("def(x){ x % 2 == 0 }", lambda x: x % 2 == 0),
    ("def(x){ x > 4 }", lambda x: x > 4),
    ("def(x){ x @ [1,2,3] }", lambda x: x in (1, 2, 3)),
]


def sorted_perm_oracle(l_i, l_o):
    return sorted(l_i) == sorted(l_o) and all(
        l_o[i - 1] <= l_o[i] for i in range(1, len(l_o))
    )


def filter_oracle(pred, l, l_f):
    need, have = Counter(l_f), Counter(l)
    return all(pred(x) for x in l_f) and all(have[k] >= n for k, n in need.items())


def table_oracle(left, right, i_l, i_r):
    def canon(rows, order):
        return Counter("".join(str(row[i]) + "#" for i in order) for row in rows)

    return canon(left, i_l) == canon(right, i_r)


def permuted_table(rng, cols, height):
    """A table, the same rows with columns permuted and rows shuffled, and
    the two column-index lists that line the columns up again."""
    left = [
        [rng.choice([rng.randrange(10), rng.choice("abcd")]) for _ in range(cols)]
        for _ in range(height)
    ]
    sigma = list(range(cols))
    rng.shuffle(sigma)
    right = [[row[sigma[j]] for j in range(cols)] for row in left]
    rng.shuffle(right)
    return left, right, list(range(cols)), [sigma.index(i) for i in range(cols)]


class SetupError(RuntimeError):
    """njexl could not load what the workload needs."""


def load_predicates(nj, root):
    """One context per corpus predicate script, with its definitions loaded
    (the demo print lines dropped), plus the three filter predicates bound
    as P0, P1, P2 in the filter context."""
    contexts = {}
    for script in ("sorted_check.njxl", "filter_check.njxl", "table_check.njxl"):
        ctx = nj.create_context(out=io.StringIO(), err=io.StringIO())
        with open(os.path.join(root, "corpus", script), encoding="utf-8") as fh:
            source = fh.read()
        body = "\n".join(
            line for line in source.splitlines() if not line.startswith("print(")
        )
        result = nj.evaluate(ctx, body + "\nnull")
        if isinstance(result, nj.StructuredError):
            raise SetupError(f"{script}: {result.kind}: {result.message}")
        contexts[script.split("_")[0]] = ctx
    for j, (src, _) in enumerate(FILTER_PREDICATES):
        result = nj.evaluate(contexts["filter"], f"P{j} = {src}\nnull")
        if isinstance(result, nj.StructuredError):
            raise SetupError(f"P{j}: {result.kind}: {result.message}")
    return contexts


class PredicateBulk:
    name = "predicate_bulk"
    why = (
        "the paper's three predicates at n=1000: per-element work (blocks, multiset "
        "equality, containment, bridging) dominates the fixed cost per call"
    )
    trace_ops = 10

    def __init__(self, root, seed, small):
        self.root = root
        rng = random.Random(seed)
        n = 60 if small else 1000
        rows = n // 4
        self.batches = [self._batch(rng, b, n, rows) for b in range(6)]

    @staticmethod
    def _batch(rng, b, n, rows):
        # sorted-permutation: duplicates, one adjacent swap near the end so
        # the failing scan costs about as much as the passing one
        l_i = [rng.randrange(n // 2) for _ in range(n)]
        l_ok = sorted(l_i)
        steps = [i for i in range(n - 1) if l_ok[i] != l_ok[i + 1]]
        k = rng.choice([i for i in steps if i >= n * 9 // 10] or steps)
        l_bad = l_ok[:]
        l_bad[k], l_bad[k + 1] = l_bad[k + 1], l_bad[k]

        # filter: predicate j, a valid partial output of fixed size, and a
        # failing output with a violator or a foreign element appended
        j = b % 3
        src, pred = FILTER_PREDICATES[j]
        domain = [v for v in range(10) if j != 2 or v != 3]  # 3 stays foreign to P2
        l = [rng.choice(domain) for _ in range(n)]
        f_ok = [x for x in l if pred(x)][: n // 4]
        if b % 2 == 0:
            extra = rng.choice([x for x in l if not pred(x)])
        else:
            extra = 3 if j == 2 else 10
        f_bad = f_ok + [extra]

        # table: shuffled rows, permuted columns; the failing copy has one cell changed
        left, right, i_l, i_r = permuted_table(rng, 4, rows)
        right_bad = [row[:] for row in right]
        right_bad[rng.randrange(rows)][rng.randrange(4)] = "zz"

        want = (
            sorted_perm_oracle(l_i, l_ok),
            sorted_perm_oracle(l_i, l_bad),
            filter_oracle(pred, l, f_ok),
            filter_oracle(pred, l, f_bad),
            table_oracle(left, right, i_l, i_r),
            table_oracle(left, right_bad, i_l, i_r),
        )
        if want != (True, False) * 3:
            raise AssertionError(f"batch {b}: generated cases do not pass and fail")
        return {
            "l_i": l_i, "l_ok": l_ok, "l_bad": l_bad,
            "pred": f"P{j}", "l": l, "f_ok": f_ok, "f_bad": f_bad,
            "left": left, "right": right, "right_bad": right_bad, "i_l": i_l, "i_r": i_r,
            "want": want,
            "readback": {
                "sorted": {"l_i": l_i, "l_o": l_bad},
                "filter": {"l": l, "l_F": f_bad},
                "table": {"t_left": left, "t_right": right_bad, "I_l": i_l, "I_r": i_r},
            },
        }

    def setup(self, nj):
        self.nj = nj
        self.ctx = load_predicates(nj, self.root)

    def op(self, k):
        nj, ctx, c = self.nj, self.ctx, self.batches[k % len(self.batches)]
        s, f, t = ctx["sorted"], ctx["filter"], ctx["table"]
        results = []
        nj.bind(s, "l_i", c["l_i"])
        nj.bind(s, "l_o", c["l_ok"])
        results.append(nj.evaluate(s, "is_sorted_permutation(l_i, l_o)"))
        nj.bind(s, "l_o", c["l_bad"])
        results.append(nj.evaluate(s, "is_sorted_permutation(l_i, l_o)"))
        call = f"verify_applied_filter({c['pred']}, l, l_F)"
        nj.bind(f, "l", c["l"])
        nj.bind(f, "l_F", c["f_ok"])
        results.append(nj.evaluate(f, call))
        nj.bind(f, "l_F", c["f_bad"])
        results.append(nj.evaluate(f, call))
        call = "verify_tables(t_left, t_right, I_l, I_r)"
        nj.bind(t, "t_left", c["left"])
        nj.bind(t, "t_right", c["right"])
        nj.bind(t, "I_l", c["i_l"])
        nj.bind(t, "I_r", c["i_r"])
        results.append(nj.evaluate(t, call))
        nj.bind(t, "t_right", c["right_bad"])
        results.append(nj.evaluate(t, call))
        readback = {
            key: {name: nj.get(ctx[key], name) for name in names}
            for key, names in c["readback"].items()
        }
        return results, readback

    def check(self, k, out):
        results, readback = out
        c = self.batches[k % len(self.batches)]
        return (
            all(type(r) is bool and r == w for r, w in zip(results, c["want"]))
            and readback == c["readback"]
        )

    def close(self):
        pass


class PredicateStream:
    name = "predicate_stream"
    why = (
        "a host checking record after record: small inputs (n about 10), so the "
        "fixed cost of each bind and evaluate dominates"
    )
    trace_ops = 1000

    def __init__(self, root, seed, small):
        self.root = root
        rng = random.Random(seed)
        self.records = [self._record(rng) for _ in range(50 if small else 2000)]

    @staticmethod
    def _record(rng):
        # the case generators and failure modes of acceptance criterion 2
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
                l_o[k], l_o[k + 1] = l_o[k + 1], l_o[k]
        else:
            l_o = [rng.randrange(10) for _ in range(rng.randrange(13))]

        j = rng.randrange(len(FILTER_PREDICATES))
        pred = FILTER_PREDICATES[j][1]
        l = [rng.randrange(10) for _ in range(rng.randrange(10))]
        l_f = [x for x in l if pred(x)]
        mode = rng.randrange(4)
        if mode == 1 and l:
            l_f = l_f + [rng.choice([x for x in l if not pred(x)] or [99])]
        elif mode == 2:
            l_f = l_f + [77]
        elif mode == 3 and l_f:
            l_f = l_f[: rng.randrange(len(l_f))]

        left, right, i_l, i_r = permuted_table(rng, rng.randrange(1, 5), rng.randrange(1, 6))
        if rng.random() < 0.35:
            right[rng.randrange(len(right))][rng.randrange(len(i_l))] = "zz"

        return {
            "sorted": {"l_i": l_i, "l_o": l_o},
            "filter": {"l": l, "l_F": l_f},
            "table": {"t_left": left, "t_right": right, "I_l": i_l, "I_r": i_r},
            "filter_call": f"verify_applied_filter(P{j}, l, l_F)",
            "want": (
                sorted_perm_oracle(l_i, l_o),
                filter_oracle(pred, l, l_f),
                table_oracle(left, right, i_l, i_r),
            ),
        }

    def setup(self, nj):
        self.nj = nj
        self.ctx = load_predicates(nj, self.root)

    def op(self, k):
        nj, ctx, r = self.nj, self.ctx, self.records[k % len(self.records)]
        for key in ("sorted", "filter", "table"):
            for name, value in r[key].items():
                nj.bind(ctx[key], name, value)
        return (
            nj.evaluate(ctx["sorted"], "is_sorted_permutation(l_i, l_o)"),
            nj.evaluate(ctx["filter"], r["filter_call"]),
            nj.evaluate(ctx["table"], "verify_tables(t_left, t_right, I_l, I_r)"),
        )

    def check(self, k, out):
        want = self.records[k % len(self.records)]["want"]
        return all(type(r) is bool and r == w for r, w in zip(out, want))

    def close(self):
        pass


# Goldens of acceptance criterion 1, written by hand; {corpus} and
# {fixtures} are filled in with absolute paths.
CORPUS_RUNS = [
    (
        ["run", "{corpus}/glance.njxl"],
        "42\n1947-08-15\n[1, 2, 3]\n{0 : false, 1 : true}\n{1, 2, 3}\n"
        "0.100101000017181881881888188981313873444111\n5\n",
    ),
    (
        ["run", "{corpus}/fizzbuzz.njxl"],
        "1\n2\nFizz\n4\nBuzz\nFizz\n7\n8\nFizz\nBuzz\n11\nFizz\n13\n14\nFizzBuzz\n",
    ),
    (
        ["run", "{corpus}/fizzbuzz_literal.njxl"],
        "1\n2\nFizz\n4\nBuzz\nFizz\n7\n8\nFizz\nBuzz\n11\nFizz\n13\n14\n15\n",
    ),
    (["run", "{corpus}/largest_line.njxl", "--", "{fixtures}/lines.txt"], "cccc\n"),
    (["run", "{corpus}/permutations.njxl", "--", "abc"], "6\n[abc, acb, bac, bca, cab, cba]\n"),
    (["run", "{corpus}/permutations.njxl", "--", "aab"], "3\n[aab, aba, baa]\n"),
    (
        [
            "--seed-clock", "1000",
            "--map-url", "http://www.google.co.in={fixtures}/page.txt",
            "run", "{corpus}/benchmark.njxl",
        ],
        "1000\n",
    ),
    (
        ["run", "{corpus}/import_error.njxl"],
        "null\nNumberFormatError: for input string: 'The answer to everything is 42'\n",
    ),
]


def generated_scripts(rng, small):
    """(file name, source, expected stdout) for scripts whose answers Python
    computes.  Sizes are fixed; the seed picks only constants."""
    scale = 4 if small else 1
    scripts = []

    n, offset = 6 if small else 12, rng.randrange(1000)

    def fib(x):
        a, b = 0, 1
        for _ in range(x):
            a, b = b, a + b
        return a

    scripts.append((
        "fib.njxl",
        "def fib(n){ n < 2 ? n : fib(n - 1) + fib(n - 2) }\n"
        f"print(fib({n}) + {offset})\n",
        f"{fib(n) + offset}\n",
    ))

    steps, a, m = 600 // scale, rng.randrange(1, 1000), rng.randrange(2, 1000)
    scripts.append((
        "while.njxl",
        "i = 0\ns = 0\n"
        f"while (i < {steps}) {{\n  s = s + (i * {a}) % {m}\n  i = i + 1\n}}\nprint(s)\n",
        f"{sum((i * a) % m for i in range(steps))}\n",
    ))

    count, mult, add = 300 // scale, rng.randrange(1, 10007), rng.randrange(10007)
    values = sorted((mult * i + add) % 10007 for i in range(count))
    scripts.append((
        "sorta.njxl",
        f"l = list{{ ({mult} * $ + {add}) % 10007 }}([0:{count}])\nprint(sorta(l))\n",
        "[" + ", ".join(map(str, values)) + "]\n",
    ))

    depth, base = 2000 // scale, rng.randrange(1000)
    scripts.append((
        "deep.njxl",
        f"def down(n){{ n == 0 ? {base} : down(n - 1) + 1 }}\nprint(down({depth}))\n",
        f"{base + depth}\n",
    ))

    lines, env = ["v0 = 1"], [1]
    for i in range(1, 200 // scale):
        x, y = rng.randrange(i), rng.randrange(i)
        c, d = rng.randrange(1, 50), rng.randrange(100)
        lines.append(f"v{i} = (v{x} * {c} + v{y} + {d}) % 1000")
        env.append((env[x] * c + env[y] + d) % 1000)
    lines.append(f"print(v{len(env) - 1})")
    scripts.append(("long.njxl", "\n".join(lines) + "\n", f"{env[-1]}\n"))
    return scripts


class ScriptRun:
    name = "script_run"
    why = (
        "the CLI on the corpus and generated scripts: lexer and parser on a long "
        "source, calls, loops, deep recursion, and ordering through sorta"
    )
    trace_ops = 10

    def __init__(self, root, seed, small):
        rng = random.Random(seed)
        corpus = os.path.join(root, "corpus")
        fixtures = os.path.join(corpus, "fixtures")
        self.runs = [
            ([a.format(corpus=corpus, fixtures=fixtures) for a in argv], want)
            for argv, want in CORPUS_RUNS
        ]
        self.workdir = os.path.join(root, ".bench_build", "perfbench", f"scripts-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        for file_name, source, want in generated_scripts(rng, small):
            path = os.path.join(self.workdir, file_name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            self.runs.append((["run", path], want))

    def setup(self, nj):
        self.nj = nj

    def op(self, k):
        results = []
        for argv, _ in self.runs:
            out, err = io.StringIO(), io.StringIO()
            code = self.nj.cli.main(argv, stdin=io.StringIO(""), stdout=out, stderr=err)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, k, out):
        return len(out) == len(self.runs) and all(
            got == (0, want, "") for got, (_, want) in zip(out, self.runs)
        )

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PredicateBulk, PredicateStream, ScriptRun)}
