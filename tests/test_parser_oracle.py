"""Differential check: the lexeme-matching parser against tests/parser_oracle.py.

Both parsers must give the same tree (as njexl.ast.dump renders it) or the
same error (kind, message, line, col), from parse_program and from
parse_expression, on every input.  The oracle still calls Token.is_op,
is_punct and is_kw, so it is handed tokens of a subclass that has them.
"""

import ast as pyast
import random
from pathlib import Path

from njexl.ast import dump
from njexl.errors import NjexlError
from njexl.lexer import KEYWORD, OP, PUNCT, Token, tokenize
from njexl.parser import parse_expression, parse_program

import parser_oracle
from conftest import CORPUS
from test_acceptance import garbage
from test_fuzz import TOKEN_SOUP, structured_programs, token_soups


class _OracleToken(Token):
    def is_op(self, lexeme):
        return self.kind == OP and self.lexeme == lexeme

    def is_punct(self, lexeme):
        return self.kind == PUNCT and self.lexeme == lexeme

    def is_kw(self, word):
        return self.kind == KEYWORD and self.lexeme == word


def _outcome(parse, tokens):
    try:
        return dump(parse(tokens))
    except NjexlError as err:
        return (err.kind, err.message, err.line, err.col)


def _test_parser_sources():
    """Every string constant in tests/test_parser.py."""
    tree = pyast.parse((Path(__file__).parent / "test_parser.py").read_text())
    return [n.value for n in pyast.walk(tree) if isinstance(getattr(n, "value", None), str)]


def _inputs():
    yield from (p.read_text() for p in sorted(CORPUS.glob("*.njxl")))
    yield from _test_parser_sources()
    yield from structured_programs()
    yield from token_soups()
    rng = random.Random(8)
    for _ in range(3000):
        yield garbage(rng)
    for _ in range(20000):
        yield " ".join(rng.choice(TOKEN_SOUP) for _ in range(rng.randrange(0, 25)))


def test_lexeme_matching_parser_agrees_with_the_oracle():
    checked, differences = 0, []
    for source in _inputs():
        try:
            tokens = tokenize(source)
        except NjexlError:
            continue
        old_tokens = [_OracleToken(t.kind, t.lexeme, t.line, t.col, t.trivia, t.value) for t in tokens]
        for new, old in (
            (parse_program, parser_oracle.parse_program),
            (parse_expression, parser_oracle.parse_expression),
        ):
            got, want = _outcome(new, tokens), _outcome(old, old_tokens)
            if got != want:
                differences.append((source, new.__name__, got, want))
        checked += 1
    assert checked > 20000
    assert differences == []
