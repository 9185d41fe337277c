import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from njexl.errors import NjexlError
from njexl.lexer import (
    DEC,
    EOF,
    IDENT,
    INT,
    KEYWORD,
    KEYWORDS,
    OP,
    PUNCT,
    STR,
    tokenize,
)

from conftest import CORPUS


def kinds_and_lexemes(source):
    return [(t.kind, t.lexeme) for t in tokenize(source)]


def test_cast_call_token_stream():
    assert kinds_and_lexemes("x = int('42', 0)") == [
        (IDENT, "x"),
        (OP, "="),
        (IDENT, "int"),
        (PUNCT, "("),
        (STR, "'42'"),
        (PUNCT, ","),
        (INT, "0"),
        (PUNCT, ")"),
        (EOF, ""),
    ]


def test_empty_source_is_just_eof():
    assert kinds_and_lexemes("") == [(EOF, "")]


def test_cardinality_tokens():
    assert kinds_and_lexemes("#|word|") == [
        (OP, "#|"),
        (IDENT, "word"),
        (OP, "|"),
        (EOF, ""),
    ]


def test_multi_char_operators():
    src = "== != <= >= += #( #| #clock ? : @"
    kinds = [t.lexeme for t in tokenize(src) if t.kind == OP]
    assert kinds == ["==", "!=", "<=", ">=", "+=", "#(", "#|", "#clock", "?", ":", "@"]


def test_implicit_variable_names_are_identifiers():
    for name in ("$", "_", "$$", "_$_", "__args__"):
        toks = tokenize(name)
        assert toks[0].kind == IDENT
        assert toks[0].lexeme == name


def test_every_keyword_lexes_as_keyword():
    for word in KEYWORDS:
        tok = tokenize(word)[0]
        assert tok.kind == KEYWORD, word


def test_non_keywords_lex_as_identifiers():
    for word in ("iff", "whilex", "Trues", "nulls", "andx", "begin"):
        assert tokenize(word)[0].kind == IDENT


def test_string_quote_styles_and_escapes():
    toks = tokenize("'a' \"b\" 'it\\'s' '\\n\\t\\\\' '\\u0041'")
    values = [t.value for t in toks if t.kind == STR]
    assert values == ["a", "b", "it's", "\n\t\\", "A"]


def test_number_shapes():
    toks = tokenize("42 3.5 1e5 2.5e-3 2")
    assert [(t.kind, t.lexeme) for t in toks[:-1]] == [
        (INT, "42"),
        (DEC, "3.5"),
        (DEC, "1e5"),
        (DEC, "2.5e-3"),
        (INT, "2"),
    ]


def test_dot_after_number_is_member_access():
    # `[0:n].list()` style: the dot must not start a fraction
    assert kinds_and_lexemes("2.list")[:3] == [(INT, "2"), (PUNCT, "."), (IDENT, "list")]


def test_comments_are_trivia():
    toks = tokenize("a // line\n/* block\ncomment */ b")
    assert [(t.kind, t.lexeme) for t in toks] == [
        (IDENT, "a"),
        (IDENT, "b"),
        (EOF, ""),
    ]


@pytest.mark.parametrize(
    "source,kind",
    [
        ("'open", "UnterminatedString"),
        ('"open\n"', "UnterminatedString"),
        ("/* open", "UnterminatedComment"),
        ("a ~ b", "InvalidCharacter"),
        ("'bad \\q'", "InvalidCharacter"),
        ("x = ²", "InvalidCharacter"),
        ("1.5²", "InvalidCharacter"),
        ("2e+3²", "InvalidCharacter"),
        ("'\\u", "UnterminatedString"),
        pytest.param("1" * 4301, "NumberFormatError", id="4301-digit int-NumberFormatError"),
    ],
)
def test_lex_errors(source, kind):
    with pytest.raises(NjexlError) as err:
        tokenize(source)
    assert err.value.kind == kind
    assert err.value.line is not None
    assert err.value.col is not None


@pytest.mark.parametrize(
    "source,line,col",
    [("x = ²", 1, 5), ("1.5²", 1, 4), ("2e+3²", 1, 5), ("a\n  b ¹", 2, 5), ("1.²", 1, 3), ("٣²", 1, 2)],
)
def test_non_decimal_digits_are_invalid_characters(source, line, col):
    with pytest.raises(NjexlError) as err:
        tokenize(source)
    char = source[-1]
    assert (err.value.kind, err.value.message, err.value.line, err.value.col) == (
        "InvalidCharacter", f"unexpected character {char!r}", line, col
    )


def test_unicode_decimal_digits_make_numbers():
    assert [t.value for t in tokenize("٣ + ١.٥e٢")[::2]] == [3, "١.٥e٢"]


def test_escape_cut_off_by_the_end_is_an_unterminated_string():
    for source in ("'\\u", "x = 'ab\\u0"):
        with pytest.raises(NjexlError) as err:
            tokenize(source)
        assert (err.value.kind, err.value.col) == ("UnterminatedString", source.index("'") + 1)


def test_positions_are_one_based():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_positions_strictly_increase():
    source = "x = 1 + 2\ny = 'abc'\n// c\nz = #|y|"
    toks = tokenize(source)
    positions = [(t.line, t.col) for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def _reassemble(tokens):
    return "".join(t.trivia + t.lexeme for t in tokens)


def test_round_trip_on_corpus_scripts():
    scripts = sorted(CORPUS.glob("*.njxl"))
    assert scripts, "corpus scripts missing"
    for path in scripts:
        source = path.read_text()
        assert _reassemble(tokenize(source)) == source, path.name


_WORDS = ["foo", "x1", "$$", "_$_", "if", "not", "42", "3.5", "'s'", "==", "+", "#|", "(", "}"]


def test_round_trip_random_streams():
    rng = random.Random(7)
    for _ in range(200):
        parts = []
        for _ in range(rng.randrange(0, 30)):
            parts.append(rng.choice(_WORDS))
            parts.append(rng.choice([" ", "  ", "\n", "\t", " \n ", "// c\n", "/* c */ "]))
        source = "".join(parts)
        assert _reassemble(tokenize(source)) == source


def test_position_accuracy_against_independent_scanner():
    rng = random.Random(11)
    atoms = ["alpha", "b2", "42", "'txt'", "==", "+", "@", "(", ")", "if"]
    for _ in range(200):
        expected = []
        text = []
        line, col = 1, 1
        for _ in range(rng.randrange(1, 20)):
            gap = rng.choice([" ", "  ", "\n", "\n\n ", "\t"])
            for c in gap:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            text.append(gap)
            atom = rng.choice(atoms)
            expected.append((atom, line, col))
            text.append(atom)
            col += len(atom)
        toks = tokenize("".join(text))
        got = [(t.lexeme, t.line, t.col) for t in toks if t.kind != EOF]
        assert got == expected


@given(st.text(alphabet=string.ascii_letters + "_$", min_size=1, max_size=12))
def test_keyword_closure_property(word):
    tok = tokenize(word)[0]
    if word in KEYWORDS:
        assert tok.kind == KEYWORD
    else:
        assert tok.kind == IDENT


_FIXED = {
    **{word: KEYWORD for word in KEYWORDS},
    **{op: OP for op in "#clock == != <= >= += #( #| = < > + - * / % @ ? : ! |".split()},
    **{p: PUNCT for p in "()[]{},;."},
}


def test_each_fixed_lexeme_belongs_to_one_kind():
    """The parser matches operators, punctuation and keywords by lexeme alone."""
    from njexl.parser import _BINARY_PREC
    from test_fuzz import structured_programs, token_soups

    for lexeme, kind in _FIXED.items():
        assert kinds_and_lexemes(lexeme) == [(kind, lexeme), (EOF, "")]
    assert set(_BINARY_PREC) <= set(_FIXED)
    near = ["#clocks", "ifs", "_if", "$and", "not1", "'('", '":"', "1.5", "1e3", "a.b", "//:\n"]
    sources = [p.read_text() for p in sorted(CORPUS.glob("*.njxl"))]
    sources += near + list(structured_programs()) + list(token_soups())
    for source in sources:
        try:
            tokens = tokenize(source)
        except NjexlError:
            continue
        for tok in tokens:
            assert _FIXED.get(tok.lexeme, tok.kind) == tok.kind, (source, tok)
            assert tok.kind not in (KEYWORD, OP, PUNCT) or tok.lexeme in _FIXED, (source, tok)
