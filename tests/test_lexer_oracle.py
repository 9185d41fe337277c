"""The single-pattern lexer against the char-by-char lexer it replaced
(tests/lexer_oracle.py): every token's kind, lexeme, position, trivia and
value, or the error's kind, message and position, must be the same.

Two kinds of input made the old lexer fail with something other than a
NjexlError; they are left out of the comparison and pinned on their own. It
took any character that str.isdigit() admits as a digit, so on `x = ²` it
crashed and on `1.5²` it made a number token that crashed later; and a `\\u`
escape with no hex digit before the end of input crashed int('', 16)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexer_oracle as old
from njexl.errors import NjexlError
from njexl.lexer import tokenize

from conftest import CORPUS
from test_fuzz import structured_programs, token_soups


class _OldLexerBug(Exception):
    """The old lexer scanned a digit-like character that is no decimal digit."""


_old_scan_number = old._scan_number


def _checked_scan_number(*args):
    try:
        tok = _old_scan_number(*args)
    except ValueError:  # int() of such a lexeme
        raise _OldLexerBug from None
    if any(c.isdigit() and not c.isdecimal() for c in tok.lexeme):
        raise _OldLexerBug
    return tok


def lexed(tokenize_fn, source):
    try:
        return [(t.kind, t.lexeme, t.line, t.col, t.trivia, t.value) for t in tokenize_fn(source)]
    except NjexlError as exc:
        return (exc.kind, exc.message, exc.line, exc.col)


def old_lexed(source):
    with mock.patch.object(old, "_scan_number", _checked_scan_number):
        return lexed(old.tokenize, source)


def agree(source):
    """Compare both lexers on source; False when the old one hits a bug there."""
    try:
        want = old_lexed(source)
    except (_OldLexerBug, ValueError):
        return False
    assert lexed(tokenize, source) == want, source
    return True


def test_corpus_lexes_alike():
    scripts = sorted(CORPUS.glob("*.njxl"))
    assert scripts
    for path in scripts:
        assert agree(path.read_text()), path.name


def test_fuzz_generators_lex_alike():
    sources = [*structured_programs(), *token_soups()]
    assert all([agree(source) for source in sources])


def test_escape_edges_lex_alike():
    for body in ("\\u0041", "\\u004", "\\u004'", "\\u00g1", "\\u", "\\", "\\\\u12", "\\\n", "a\r"):
        for source in (f"'{body}'", f'"{body}"', f"'{body}", f"'{body}\n'"):
            assert agree(source) or source == "'\\u", source


_PIECES = [
    "'", '"', "\\", "\\u", "\\u0", "\\u00e9", "\\n", "\\'", "/*", "*/", "//", "#", "#clock",
    "#|", ".", "e+", "E-", "e", "\r", "\n", " ", "\t", "²", "٣", "0", "12", "x", "$", "_", "=",
    "+=", "|", "(", "}", "~", "aF",
]
_texts = st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=2)), max_size=24).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_texts)
def test_texts_of_special_characters_lex_alike(source):
    agree(source)


@pytest.mark.parametrize(
    "source,line,col",
    [("x = ²", 1, 5), ("1.5²", 1, 4), ("2e+3²", 1, 5), ("a\n  b ¹", 2, 5), ("1.²", 1, 3), ("٣²", 1, 2)],
)
def test_non_decimal_digits_are_invalid_characters(source, line, col):
    with pytest.raises(_OldLexerBug):
        old_lexed(source)
    with pytest.raises(NjexlError) as err:
        tokenize(source)
    char = source[-1]
    assert (err.value.kind, err.value.message, err.value.line, err.value.col) == (
        "InvalidCharacter", f"unexpected character {char!r}", line, col
    )


def test_unicode_decimal_digits_make_numbers():
    assert agree("٣ + ١.٥e٢")
    assert [t.value for t in tokenize("٣ + ١.٥e٢")[::2]] == [3, "١.٥e٢"]


def test_escape_cut_off_by_the_end_is_an_unterminated_string():
    with pytest.raises(ValueError):
        old.tokenize("'\\u")
    for source in ("'\\u", "x = 'ab\\u0"):
        with pytest.raises(NjexlError) as err:
            tokenize(source)
        assert (err.value.kind, err.value.col) == ("UnterminatedString", source.index("'") + 1)
