"""Tokenizer for njexl source text.

Tokens carry their raw lexeme, 1-based position, and the trivia
(whitespace/comments) that preceded them, so that joining trivia+lexemes
reproduces the input byte for byte.  tokenize() is a pure function of its
input and safe to call from any number of threads.

One compiled pattern, _TOKEN, matches one token at a time: a leading group
for the trivia (whitespace, `//` and `/* */` comments), then one named
alternative per token shape (word, decimal, int, string, operator,
punctuation), then end of input.  Two more alternatives catch what begins no
token, an unclosed `/*` and any other single character, and raise; so a
match never fails, never backtracks into the trivia, and each one starts
where the last one ended.

Each operator, punctuation and keyword lexeme belongs to exactly one kind,
as no identifier, literal or end-of-input lexeme spells one; so the parser
matches fixed tokens by lexeme alone.

Positions: a token's line is one more than the number of newlines before it
and its column is its offset past the last of them, plus one.  Strings cannot
hold a raw newline, so only trivia can, and the line count and line start
are advanced from the trivia alone.

Numbers use the regex `\\d` class, the Unicode decimal digits (category Nd),
which int(), float() and Decimal() all read; a digit-like character outside
it, such as `²`, is an InvalidCharacter.  String escapes are checked by the
pattern and decoded by a second one, only when a lexeme holds a backslash.
Errors are those of the first problem from the left: UnterminatedString at
the opening quote, UnterminatedComment at `/*`, InvalidCharacter at the
character or at the backslash of a bad escape, NumberFormatError at an
integer literal longer than int() reads (4300 digits by default; the limit
is process-global, so the lexer leaves it as it is).
"""

import re

from .errors import NjexlError

# token kinds
IDENT = "identifier"
KEYWORD = "keyword"
INT = "int-literal"
DEC = "decimal-literal"
STR = "string-literal"
OP = "operator"
PUNCT = "punctuation"
EOF = "end-of-input"

KEYWORDS = frozenset(
    [
        # control flow
        "if", "else", "where", "for", "while", "break", "continue", "return",
        # word operators
        "and", "or", "xor", "gt", "ge", "lt", "le", "eq", "not",
        # definitions
        "def", "var", "import", "as",
        # literal words
        "true", "false", "null",
        # object creation (reserved, no semantics)
        "new",
    ]
)

_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t"}

# a string body stops at its closing quote, a raw newline or its first bad escape
_STRING_BODY = {
    q: re.compile(rf"[^{q}\\\n]*(?:\\(?:[\\'\"nt]|u[0-9a-fA-F]{{4}})[^{q}\\\n]*)*") for q in "'\""
}
_STRING = "|".join(f"{q}{body.pattern}{q}" for q, body in _STRING_BODY.items())

_TOKEN = re.compile(
    r"([ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*)"
    r"(?:(?P<word>[A-Za-z_$][A-Za-z0-9_$]*)"
    # a fraction only when a digit follows the dot, so `2.list()` lexes as 2 . list
    r"|(?P<dec>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))"
    r"|(?P<int>\d+)"
    rf"|(?P<str>{_STRING})"
    r"|(?P<comment>/\*)"
    # longest first; '#clock' must not swallow the head of a longer word
    r"|(?P<op>#clock(?![A-Za-z0-9_$])|[=!<>+]=|#[(|]|[=<>+\-*/%@?:!|])"
    r"|(?P<punct>[()\[\]{},;.])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.S,
)

_ESCAPE = re.compile(r"\\(u[0-9a-fA-F]{4}|.)")
# a \u escape that the end of input cuts short leaves the string unterminated
_CUT_OFF_ESCAPE = re.compile(r"\\u[0-9a-fA-F]{0,3}\Z")


class Token:
    __slots__ = ("kind", "lexeme", "line", "col", "trivia", "value")

    def __init__(self, kind, lexeme, line, col, trivia="", value=None):
        self.kind, self.lexeme, self.line = kind, lexeme, line
        self.col, self.trivia, self.value = col, trivia, value


def tokenize(source):
    """Lex source into a token list ending with an end-of-input token."""
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        trivia, lexeme = m.group(1, group)
        if "\n" in trivia:
            line += trivia.count("\n")
            line_start = m.start() + trivia.rindex("\n") + 1
        start = m.end(1)
        col = start - line_start + 1
        if group == "word":
            append(Token(KEYWORD if lexeme in KEYWORDS else IDENT, lexeme, line, col, trivia))
        elif group == "op":
            append(Token(OP, lexeme, line, col, trivia))
        elif group == "punct":
            append(Token(PUNCT, lexeme, line, col, trivia))
        elif group == "int":
            try:
                value = int(lexeme)
            except ValueError:
                raise NjexlError(
                    "NumberFormatError", f"integer literal too long ({len(lexeme)} digits)", line, col
                ) from None
            append(Token(INT, lexeme, line, col, trivia, value))
        elif group == "str":
            text = lexeme[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            append(Token(STR, lexeme, line, col, trivia, text))
        elif group == "dec":
            append(Token(DEC, lexeme, line, col, trivia, lexeme))
        elif group == "eof":
            append(Token(EOF, "", line, col, trivia))
            return tokens
        elif group == "comment":
            raise NjexlError("UnterminatedComment", "block comment never closed", line, col)
        else:
            raise _unlexable(source, start, line, col)


def _unescape(m):
    return _ESCAPES.get(m[1]) or chr(int(m[1][1:], 16))


def _unlexable(source, start, line, col):
    """The error for the character at start, which begins no token."""
    c = source[start]
    if c not in "'\"":
        return NjexlError("InvalidCharacter", f"unexpected character {c!r}", line, col)
    # the body stops at the first problem: a newline, the end, or a bad escape
    at = _STRING_BODY[c].match(source, start + 1).end()
    if source.startswith("\\", at) and not _CUT_OFF_ESCAPE.match(source, at):
        e = source[at + 1 : at + 2]
        message = "\\u escape needs four hex digits" if e == "u" else f"unsupported escape \\{e}"
        return NjexlError("InvalidCharacter", message, line, col + at - start)
    return NjexlError("UnterminatedString", "string literal never closed", line, col)
