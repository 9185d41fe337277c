"""The njexl lexer as it was before the single-pattern tokenizer.

A differential oracle for tests/test_lexer_oracle.py, kept for one change
only: src/njexl/lexer.py copied verbatim below this docstring, except that
NjexlError is imported by absolute name.
"""

from dataclasses import dataclass, field

from njexl.errors import NjexlError

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

# longest match first
MULTI_OPS = ("#clock", "==", "!=", "<=", ">=", "+=", "#(", "#|")
SINGLE_OPS = "=<>+-*/%@?:!|"
PUNCTS = "()[]{},;."

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | set("0123456789")

_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t"}


@dataclass
class Token:
    kind: str
    lexeme: str
    line: int
    col: int
    trivia: str = ""
    value: object = field(default=None, repr=False)

    def is_op(self, lexeme):
        return self.kind == OP and self.lexeme == lexeme

    def is_punct(self, lexeme):
        return self.kind == PUNCT and self.lexeme == lexeme

    def is_kw(self, word):
        return self.kind == KEYWORD and self.lexeme == word


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.i = 0
        self.line = 1
        self.col = 1

    def at_end(self):
        return self.i >= len(self.text)

    def peek(self, offset=0):
        j = self.i + offset
        return self.text[j] if j < len(self.text) else ""

    def advance(self, n=1):
        for _ in range(n):
            if self.at_end():
                return
            if self.text[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1

    def startswith(self, s):
        return self.text.startswith(s, self.i)


def tokenize(source):
    """Lex source into a token list ending with an end-of-input token."""
    cur = _Cursor(source)
    tokens = []
    while True:
        trivia = _skip_trivia(cur)
        if cur.at_end():
            tokens.append(Token(EOF, "", cur.line, cur.col, trivia))
            return tokens
        tokens.append(_scan_token(cur, trivia))


def _skip_trivia(cur):
    start = cur.i
    while not cur.at_end():
        c = cur.peek()
        if c in " \t\r\n":
            cur.advance()
        elif cur.startswith("//"):
            while not cur.at_end() and cur.peek() != "\n":
                cur.advance()
        elif cur.startswith("/*"):
            line, col = cur.line, cur.col
            cur.advance(2)
            while not cur.startswith("*/"):
                if cur.at_end():
                    raise NjexlError("UnterminatedComment", "block comment never closed", line, col)
                cur.advance()
            cur.advance(2)
        else:
            break
    return cur.text[start:cur.i]


def _scan_token(cur, trivia):
    line, col = cur.line, cur.col
    c = cur.peek()

    if c in _IDENT_START:
        start = cur.i
        while not cur.at_end() and cur.peek() in _IDENT_CONT:
            cur.advance()
        word = cur.text[start:cur.i]
        kind = KEYWORD if word in KEYWORDS else IDENT
        return Token(kind, word, line, col, trivia)

    if c.isdigit():
        return _scan_number(cur, trivia, line, col)

    if c in "'\"":
        return _scan_string(cur, trivia, line, col)

    for op in MULTI_OPS:
        if cur.startswith(op):
            # '#clock' must not swallow the head of a longer word
            if op == "#clock" and cur.peek(len(op)) in _IDENT_CONT:
                break
            cur.advance(len(op))
            return Token(OP, op, line, col, trivia)

    if c in SINGLE_OPS:
        cur.advance()
        return Token(OP, c, line, col, trivia)

    if c in PUNCTS:
        cur.advance()
        return Token(PUNCT, c, line, col, trivia)

    raise NjexlError("InvalidCharacter", f"unexpected character {c!r}", line, col)


def _scan_number(cur, trivia, line, col):
    start = cur.i
    while cur.peek().isdigit():
        cur.advance()
    is_decimal = False
    # fraction only when a digit follows the dot, so `2.list()` lexes as 2 . list
    if cur.peek() == "." and cur.peek(1).isdigit():
        is_decimal = True
        cur.advance()
        while cur.peek().isdigit():
            cur.advance()
    if cur.peek() in "eE":
        j = 1
        if cur.peek(1) in "+-":
            j = 2
        if cur.peek(j).isdigit():
            is_decimal = True
            cur.advance(j)
            while cur.peek().isdigit():
                cur.advance()
    lexeme = cur.text[start:cur.i]
    if is_decimal:
        return Token(DEC, lexeme, line, col, trivia, value=lexeme)
    return Token(INT, lexeme, line, col, trivia, value=int(lexeme))


def _scan_string(cur, trivia, line, col):
    quote = cur.peek()
    start = cur.i
    cur.advance()
    out = []
    while True:
        if cur.at_end() or cur.peek() == "\n":
            raise NjexlError("UnterminatedString", "string literal never closed", line, col)
        c = cur.peek()
        if c == quote:
            cur.advance()
            return Token(STR, cur.text[start:cur.i], line, col, trivia, value="".join(out))
        if c == "\\":
            esc_line, esc_col = cur.line, cur.col
            cur.advance()
            e = cur.peek()
            if e in _ESCAPES:
                out.append(_ESCAPES[e])
                cur.advance()
            elif e == "u":
                cur.advance()
                hexits = ""
                for _ in range(4):
                    h = cur.peek()
                    if h not in "0123456789abcdefABCDEF":
                        raise NjexlError(
                            "InvalidCharacter", "\\u escape needs four hex digits", esc_line, esc_col
                        )
                    hexits += h
                    cur.advance()
                out.append(chr(int(hexits, 16)))
            else:
                raise NjexlError("InvalidCharacter", f"unsupported escape \\{e}", esc_line, esc_col)
        else:
            out.append(c)
            cur.advance()
