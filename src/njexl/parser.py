"""Recursive-descent / Pratt parser.

Statement separation is a newline or ';'.  Newlines only terminate at
bracket depth zero; inside parentheses, brackets, argument lists, and map
literals an expression may span lines freely.  open_bracket and
close_bracket keep that depth; function, control, and anonymous-block
bodies restart statement context at depth zero and restore it after.

Fixed tokens are matched by lexeme alone (`tok.lexeme == "("`, and a binary
operator is any lexeme in _BINARY_PREC), which the lexer makes exact: each
operator, punctuation and keyword lexeme belongs to one token kind.  Kinds
are tested only where they carry information: end of input, identifiers,
literals, and keywords at the head of a statement or primary.

A ':' between identifiers is normally the ternary separator; it reads as a
static module call Alias:name(...) only when Alias is a known import alias,
which keeps `c ? a : f(x)` parsing as a ternary.

Parsing is a pure function of the token stream (plus the optional alias
set) and is safe for concurrent use.
"""

from . import ast
from .errors import NjexlError
from .lexer import DEC, EOF, IDENT, INT, KEYWORD, STR
from .values import classify_decimal_literal

# precedence tiers, lowest binds loosest
TERNARY = 1
OR = 2
AND = 3
XOR = 4
EQUALITY = 5
RELATIONAL = 6
ADDITIVE = 7
MULTIPLICATIVE = 8

_BINARY_PREC = {
    "or": OR,
    "and": AND,
    "xor": XOR,
    "==": EQUALITY,
    "!=": EQUALITY,
    "eq": EQUALITY,
    "<": RELATIONAL,
    "<=": RELATIONAL,
    ">": RELATIONAL,
    ">=": RELATIONAL,
    "lt": RELATIONAL,
    "le": RELATIONAL,
    "gt": RELATIONAL,
    "ge": RELATIONAL,
    "@": RELATIONAL,
    "+": ADDITIVE,
    "-": ADDITIVE,
    "*": MULTIPLICATIVE,
    "/": MULTIPLICATIVE,
    "%": MULTIPLICATIVE,
}

_RESERVED = ("where", "new")


def parse_program(tokens, module_aliases=()):
    return _Parser(tokens, module_aliases).program()


def parse_expression(tokens, module_aliases=()):
    return _Parser(tokens, module_aliases).single_expression()


class _Parser:
    def __init__(self, tokens, module_aliases=()):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # bracket/group nesting; newlines are trivia when > 0
        self.aliases = set(module_aliases)
        self.last = tokens[0]

    # --- token plumbing ----------------------------------------------------

    def peek(self, offset=0):
        return self.tokens[self.pos + offset]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        self.last = tok
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise NjexlError("ParseError", message, tok.line, tok.col)

    def expect(self, lexeme):
        if self.peek().lexeme != lexeme:
            self.error(f"expected '{lexeme}'")
        return self.advance()

    def open_bracket(self, lexeme):
        """Consume an opening bracket; newlines are trivia until its close."""
        tok = self.expect(lexeme)
        self.depth += 1
        return tok

    def close_bracket(self, lexeme):
        """Consume the bracket that closes the last open_bracket."""
        self.depth -= 1
        return self.expect(lexeme)

    def expect_ident(self):
        tok = self.peek()
        if tok.kind != IDENT:
            self.error("expected an identifier")
        return self.advance()

    def line_breaks_here(self):
        """True when the next token starts a new line outside any bracket."""
        return self.depth == 0 and self.peek().line > self.last.line

    # --- statements --------------------------------------------------------

    def program(self):
        first = self.peek()
        body = self.statement_list()
        if self.peek().kind != EOF:
            self.error("unexpected trailing input")
        return ast.Program(first.line, first.col, body)

    def single_expression(self):
        expr = self.expression()
        if self.peek().kind != EOF:
            self.error("unexpected trailing input after expression")
        return expr

    def statement_list(self):
        body = []
        while True:
            while self.peek().lexeme == ";":
                self.advance()
            tok = self.peek()
            if tok.kind == EOF or tok.lexeme == "}":
                break
            body.append(self.statement())
            self.end_statement()
        return body

    def end_statement(self):
        tok = self.peek()
        if tok.lexeme == ";":
            self.advance()
        elif tok.kind == EOF or tok.lexeme == "}" or tok.line > self.last.line:
            pass
        else:
            self.error("expected newline or ';' after statement")

    def statement(self):
        tok = self.peek()
        if tok.kind == KEYWORD:
            word = tok.lexeme
            if word in _RESERVED:
                self.error(f"reserved keyword '{word}'")
            if word == "var":
                return self.var_decl()
            if word == "def" and self.peek(1).kind == IDENT:
                return self.func_def(named=True)
            if word == "import":
                return self.import_stmt()
            if word == "if":
                return self.if_stmt()
            if word == "for":
                return self.for_stmt()
            if word == "while":
                return self.while_stmt()
            if word in ("break", "continue"):
                return self.break_continue()
            if word == "return":
                return self.return_stmt()
        if tok.lexeme == "#(":
            return self.multi_assign()
        expr = self.expression()
        nxt = self.peek()
        if nxt.lexeme in ("=", "+="):
            if not isinstance(expr, (ast.Identifier, ast.Index)):
                self.error("invalid assignment target", nxt)
            op = self.advance().lexeme
            value = self.expression()
            return ast.Assign(expr.line, expr.col, expr, op, value)
        return expr

    def var_decl(self):
        kw = self.advance()
        name = self.expect_ident().lexeme
        value = None
        if self.peek().lexeme == "=":
            self.advance()
            value = self.expression()
        return ast.VarDecl(kw.line, kw.col, name, value)

    def func_def(self, named):
        kw = self.advance()
        name = self.expect_ident().lexeme if named else None
        params = self.param_list()
        body = self.braced_body()
        return ast.FuncDef(kw.line, kw.col, name, params, body)

    def param_list(self):
        self.open_bracket("(")
        params = []
        if self.peek().lexeme != ")":
            while True:
                params.append(self.expect_ident().lexeme)
                if self.peek().lexeme == ",":
                    self.advance()
                    continue
                break
        self.close_bracket(")")
        return params

    def braced_body(self):
        self.expect("{")
        saved = self.depth
        self.depth = 0
        body = self.statement_list()
        self.depth = saved
        self.expect("}")
        return body

    def import_stmt(self):
        kw = self.advance()
        path_tok = self.peek()
        if path_tok.kind != STR:
            self.error("import expects a quoted path")
        self.advance()
        self.expect("as")
        alias = self.expect_ident().lexeme
        self.aliases.add(alias)
        return ast.Import(kw.line, kw.col, path_tok.value, alias)

    def if_stmt(self):
        kw = self.advance()
        cond = self.parenthesized()
        then_body = self.braced_body()
        else_body = None
        if self.peek().lexeme == "else":
            self.advance()
            if self.peek().lexeme == "if":
                else_body = [self.if_stmt()]
            else:
                else_body = self.braced_body()
        return ast.If(kw.line, kw.col, cond, then_body, else_body)

    def for_stmt(self):
        kw = self.advance()
        self.open_bracket("(")
        var = self.expect_ident().lexeme
        self.expect(":")
        iterable = self.expression()
        self.close_bracket(")")
        body = self.braced_body()
        return ast.For(kw.line, kw.col, var, iterable, body)

    def while_stmt(self):
        kw = self.advance()
        cond = self.parenthesized()
        body = self.braced_body()
        return ast.While(kw.line, kw.col, cond, body)

    def parenthesized(self):
        self.open_bracket("(")
        expr = self.expression()
        self.close_bracket(")")
        return expr

    def break_continue(self):
        kw = self.advance()
        cond = None
        if self.peek().lexeme == "(" and self.peek().line == kw.line:
            cond = self.parenthesized()
        node = ast.Break if kw.lexeme == "break" else ast.Continue
        return node(kw.line, kw.col, cond)

    def return_stmt(self):
        kw = self.advance()
        tok = self.peek()
        value = None
        if tok.kind != EOF and tok.lexeme not in ("}", ";") and tok.line == kw.line:
            value = self.expression()
        return ast.Return(kw.line, kw.col, value)

    def multi_assign(self):
        opener = self.open_bracket("#(")
        targets = []
        capture = None
        while True:
            if self.peek().lexeme == ":":
                colon = self.advance()
                if capture is not None:
                    self.error("only one error-capture target allowed", colon)
                capture = self.expect_ident().lexeme
            else:
                if capture is not None:
                    self.error("error-capture target must come last")
                targets.append(self.expect_ident().lexeme)
            if self.peek().lexeme == ",":
                self.advance()
                continue
            break
        self.close_bracket(")")
        total = len(targets) + (1 if capture is not None else 0)
        if total < 2:
            self.error("multiple assignment needs at least two targets", opener)
        self.expect("=")
        value = self.expression()
        return ast.MultiAssign(opener.line, opener.col, targets, capture, value)

    # --- expressions --------------------------------------------------------

    def expression(self, min_prec=TERNARY):
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == EOF or self.line_breaks_here():
                break
            if tok.lexeme == "?" and min_prec <= TERNARY:
                self.advance()
                then = self.expression(TERNARY)
                self.expect(":")
                orelse = self.expression(TERNARY)
                left = ast.Ternary(left.line, left.col, left, then, orelse)
                continue
            prec = _BINARY_PREC.get(tok.lexeme)
            if prec is None or prec < min_prec:
                break
            self.advance()
            right = self.expression(prec + 1)
            left = ast.Binary(left.line, left.col, tok.lexeme, left, right)
        return left

    def unary(self):
        tok = self.peek()
        if tok.lexeme in ("not", "!"):
            self.advance()
            return ast.Unary(tok.line, tok.col, "not", self.unary())
        if tok.lexeme == "-":
            self.advance()
            return ast.Unary(tok.line, tok.col, "-", self.unary())
        if tok.lexeme == "#|":
            self.open_bracket("#|")
            inner = self.expression()
            self.close_bracket("|")
            return ast.Cardinality(tok.line, tok.col, inner)
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == EOF or self.line_breaks_here():
                break
            if tok.lexeme == "(":
                args, named, splat = self.call_args()
                node = ast.Call(node.line, node.col, node, args, named, splat)
            elif tok.lexeme == "{" and isinstance(node, ast.Identifier):
                block = self.anon_block()
                args, named, splat = self.call_args()
                node = ast.Call(node.line, node.col, node, args, named, splat, block)
            elif tok.lexeme == "[":
                self.open_bracket("[")
                index = self.expression()
                self.close_bracket("]")
                node = ast.Index(node.line, node.col, node, index)
            elif tok.lexeme == ".":
                self.advance()
                node = self.member_of(node)
            elif (
                tok.lexeme == ":"
                and isinstance(node, ast.Identifier)
                and node.name in self.aliases
                and self.peek(1).kind == IDENT
                and self.peek(2).lexeme == "("
            ):
                self.advance()
                name = self.expect_ident().lexeme
                args = self.call_args(static=True)[0]
                node = ast.StaticCall(node.line, node.col, node.name, name, args)
            else:
                break
        return node

    def member_of(self, node):
        tok = self.peek()
        if tok.kind == IDENT:
            self.advance()
            return ast.Member(node.line, node.col, node, tok.lexeme)
        if tok.kind == INT:
            self.advance()
            return ast.Member(node.line, node.col, node, tok.lexeme)
        if tok.kind == DEC and "." in tok.lexeme and "e" not in tok.lexeme.lower():
            # `p.0.1` lexes the tail as a decimal literal; split into projections
            self.advance()
            first, second = tok.lexeme.split(".", 1)
            inner = ast.Member(node.line, node.col, node, first)
            return ast.Member(node.line, node.col, inner, second)
        self.error("expected a member name")

    def call_args(self, static=False):
        self.open_bracket("(")
        args = []
        named = []
        splat = None
        if self.peek().lexeme != ")":
            while True:
                tok = self.peek()
                if tok.kind == IDENT and self.peek(1).lexeme == "=":
                    if static:
                        self.error("static calls take positional arguments only", tok)
                    name = self.advance().lexeme
                    self.advance()
                    value = self.expression()
                    if name == "__args__":
                        if splat is not None:
                            self.error("duplicate __args__ argument", tok)
                        splat = value
                    else:
                        named.append((name, value))
                else:
                    if named or splat is not None:
                        self.error("positional arguments must come first", tok)
                    args.append(self.expression())
                if self.peek().lexeme == ",":
                    self.advance()
                    continue
                break
        if splat is not None and (args or named):
            self.error("__args__ must be the only argument")
        self.close_bracket(")")
        return args, named, splat

    def anon_block(self):
        opener = self.peek()
        body = self.braced_body()
        return ast.AnonBlock(opener.line, opener.col, body)

    def primary(self):
        tok = self.peek()
        if tok.kind == INT:
            self.advance()
            return ast.Literal(tok.line, tok.col, tok.value)
        if tok.kind == DEC:
            self.advance()
            return ast.Literal(tok.line, tok.col, classify_decimal_literal(tok.lexeme))
        if tok.kind == STR:
            self.advance()
            return ast.Literal(tok.line, tok.col, tok.value)
        if tok.kind == KEYWORD:
            if tok.lexeme in ("true", "false", "null"):
                self.advance()
                value = {"true": True, "false": False, "null": None}[tok.lexeme]
                return ast.Literal(tok.line, tok.col, value)
            if tok.lexeme == "def":
                return self.func_def(named=False)
            if tok.lexeme in _RESERVED:
                self.error(f"reserved keyword '{tok.lexeme}'")
            self.error(f"unexpected keyword '{tok.lexeme}'")
        if tok.kind == IDENT:
            self.advance()
            return ast.Identifier(tok.line, tok.col, tok.lexeme)
        if tok.lexeme == "(":
            return self.parenthesized()
        if tok.lexeme == "[":
            return self.bracket_literal()
        if tok.lexeme == "{":
            return self.map_literal()
        if tok.lexeme == "#clock":
            self.advance()
            body = self.braced_body()
            return ast.ClockBlock(tok.line, tok.col, body)
        self.error("expected an expression")

    def bracket_literal(self):
        opener = self.open_bracket("[")
        items = []
        if self.peek().lexeme != "]":
            items.append(self.expression())
            if self.peek().lexeme == ":":
                self.advance()
                end = self.expression()
                step = None
                if self.peek().lexeme == ":":
                    self.advance()
                    step = self.expression()
                self.close_bracket("]")
                return ast.RangeLit(opener.line, opener.col, items[0], end, step)
            while self.peek().lexeme == ",":
                self.advance()
                items.append(self.expression())
        self.close_bracket("]")
        return ast.ListLit(opener.line, opener.col, items)

    def map_literal(self):
        opener = self.open_bracket("{")
        entries = []
        if self.peek().lexeme != "}":
            while True:
                key = self.expression()
                self.expect(":")
                value = self.expression()
                entries.append((key, value))
                if self.peek().lexeme == ",":
                    self.advance()
                    continue
                break
        self.close_bracket("}")
        return ast.MapLit(opener.line, opener.col, entries)
