"""Differential oracle: the closure compiler against the tree walker it replaced.

Every program runs in a fresh context through njexl.interpreter and through
tree_walker.py (the old evaluator, kept verbatim), with the same ports.  Both
must give the same value, the same printed output, and the same error kind,
message, line and column.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tree_walker
from njexl.errors import NjexlError
from njexl.interpreter import Interp, new_global_scope, run_on_deep_stack
from njexl.stdlib import FakeClock, ResourceLoader, default_io
from njexl.values import stringify

from conftest import CORPUS, Capture, fixture_path
from test_fuzz import ATOMS, OPS, STMTS, structured_programs, token_soups

CORPUS_ARGS = {
    "largest_line.njxl": [fixture_path("lines.txt")],
    "permutations.njxl": ["abc"],
}
LOADER = ResourceLoader({"http://www.google.co.in": fixture_path("page.txt")})

# constructs the fuzz templates leave out: named and spread arguments, maps,
# destructuring, loops with break/continue, projections, ranges, closures
MORE_STMTS = [
    "def g(a, b){ return a + EXPR }\ng(EXPR, b=EXPR)",
    "def g(a, b){ [a, b] }\ng(__args__=[EXPR, EXPR])",
    "d = { EXPR : EXPR }\nd[EXPR] += EXPR\nd",
    "#(a, b) = [EXPR, EXPR]\n[b, a]",
    "#(p, q, :e) = EXPR\n[p, q, e]",
    "n = 0\nwhile (n < 5) { n += 1 ; continue(n == 2) ; break(EXPR) }\nn",
    "for (v : [EXPR, EXPR]) { if (v) { print(v) } else { break } }",
    "#|EXPR| + -EXPR",
    "[1:EXPR:2].list()",
    "(EXPR).0",
    "index{ _ > 0 and $$[_-1] > $ }([EXPR, EXPR])",
    "set{ $ }([EXPR, EXPR, 1])",
    "sortd{ $.0 < $.1 }([EXPR, 2, 1])",
    "k = def(x){ def(y){ x + y } }\nk(EXPR)(EXPR)",
    "#(r, :e) = eval('EXPR')\n[r, e.kind]",
]
MORE_OPS = [" > ", " >= ", " lt ", " le ", " gt ", " ge "]


def outcome(interp_class, source, path=None, args=()):
    """(result, stdout) of running source in a fresh context."""
    out = Capture()
    io_ports = default_io(out=out, err=Capture(), loader=LOADER, clock=FakeClock(1000), env={})
    interp = interp_class(io_ports, script_path=path)
    scope = new_global_scope(args)
    try:
        result = ("value", stringify(run_on_deep_stack(lambda: interp.run_source(source, scope))))
    except NjexlError as exc:
        result = ("error", exc.kind, exc.message, exc.line, exc.col)
    except RecursionError:
        result = ("error", "RecursionError")
    return result, out.getvalue()


def assert_agree(source, path=None, args=()):
    compiled = outcome(Interp, source, path, args)
    walked = outcome(tree_walker.Interp, source, path, args)
    assert compiled == walked, f"compiler and walker differ on:\n{source}"


def test_corpus_agrees():
    scripts = sorted(CORPUS.glob("*.njxl"))
    assert len(scripts) >= 10
    for script in scripts:
        args = CORPUS_ARGS.get(script.name, [])
        assert_agree(script.read_text(encoding="utf-8"), str(script), args)


def test_fuzz_corpora_agree():
    for source in structured_programs():
        assert_agree(source)
    for source in token_soups():
        assert_agree(source)


def test_recursion_cap_agrees():
    assert_agree("def spin(n){ spin(n + 1) }\nspin(0)")
    assert_agree("def spin(n){ spin(n + 1) }\n#(o, :e) = spin(0)\n[o, e.kind]")
    assert_agree("def down(n){ n == 0 ? 0 : list{ down(n - 1) }([1])[0] }\ndown(6000)")


def _fill(template, exprs):
    for expr in exprs:
        template = template.replace("EXPR", expr, 1)
    return template


expressions = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(OPS + MORE_OPS), inner).map("".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"not {e}"),
        st.tuples(inner, inner, inner).map(lambda t: f"{t[0]} ? {t[1]} : {t[2]}"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]}, {t[1]}][0]"),
    ),
    max_leaves=6,
)
statements = st.builds(
    _fill, st.sampled_from(STMTS + MORE_STMTS), st.lists(expressions, min_size=4, max_size=4)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(statements, min_size=1, max_size=4).map("\n".join))
def test_generated_programs_agree(source):
    assert_agree(source)
