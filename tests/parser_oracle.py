"""The njexl parser as it was before it matched tokens by lexeme alone.

A differential oracle for tests/test_parser_oracle.py, kept for one change
only: src/njexl/parser.py copied verbatim below this docstring, except that
its imports name the njexl package absolutely.  It calls Token.is_op,
is_punct and is_kw, which tokens no longer have; the test hands it tokens
of a subclass that gives those three methods back.
"""

from njexl import ast
from njexl.errors import NjexlError
from njexl.lexer import DEC, EOF, IDENT, INT, KEYWORD, OP, STR, tokenize
from njexl.values import classify_decimal_literal

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


def parse_source(source, module_aliases=()):
    return parse_program(tokenize(source), module_aliases)


class _Parser:
    def __init__(self, tokens, module_aliases=()):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # bracket/group nesting; newlines are trivia when > 0
        self.aliases = set(module_aliases)
        self.last = tokens[0]

    # --- token plumbing ----------------------------------------------------

    def peek(self, offset=0):
        try:
            return self.tokens[self.pos + offset]
        except IndexError:  # past the end: the final end-of-input token
            return self.tokens[-1]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        self.last = tok
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise NjexlError("ParseError", message, tok.line, tok.col)

    def expect_op(self, lexeme):
        if not self.peek().is_op(lexeme):
            self.error(f"expected '{lexeme}'")
        return self.advance()

    def expect_punct(self, lexeme):
        if not self.peek().is_punct(lexeme):
            self.error(f"expected '{lexeme}'")
        return self.advance()

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
            while self.peek().is_punct(";"):
                self.advance()
            tok = self.peek()
            if tok.kind == EOF or tok.is_punct("}"):
                break
            body.append(self.statement())
            self.end_statement()
        return body

    def end_statement(self):
        tok = self.peek()
        if tok.is_punct(";"):
            self.advance()
        elif tok.kind == EOF or tok.is_punct("}") or tok.line > self.last.line:
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
        if tok.is_op("#("):
            return self.multi_assign()
        expr = self.expression()
        nxt = self.peek()
        if nxt.is_op("=") or nxt.is_op("+="):
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
        if self.peek().is_op("="):
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
        self.expect_punct("(")
        self.depth += 1
        params = []
        if not self.peek().is_punct(")"):
            while True:
                params.append(self.expect_ident().lexeme)
                if self.peek().is_punct(","):
                    self.advance()
                    continue
                break
        self.depth -= 1
        self.expect_punct(")")
        return params

    def braced_body(self):
        self.expect_punct("{")
        saved = self.depth
        self.depth = 0
        body = self.statement_list()
        self.depth = saved
        self.expect_punct("}")
        return body

    def import_stmt(self):
        kw = self.advance()
        path_tok = self.peek()
        if path_tok.kind != STR:
            self.error("import expects a quoted path")
        self.advance()
        if not self.peek().is_kw("as"):
            self.error("expected 'as'")
        self.advance()
        alias = self.expect_ident().lexeme
        self.aliases.add(alias)
        return ast.Import(kw.line, kw.col, path_tok.value, alias)

    def if_stmt(self):
        kw = self.advance()
        cond = self.parenthesized()
        then_body = self.braced_body()
        else_body = None
        if self.peek().is_kw("else"):
            self.advance()
            if self.peek().is_kw("if"):
                else_body = [self.if_stmt()]
            else:
                else_body = self.braced_body()
        return ast.If(kw.line, kw.col, cond, then_body, else_body)

    def for_stmt(self):
        kw = self.advance()
        self.expect_punct("(")
        self.depth += 1
        var = self.expect_ident().lexeme
        self.expect_op(":")
        iterable = self.expression()
        self.depth -= 1
        self.expect_punct(")")
        body = self.braced_body()
        return ast.For(kw.line, kw.col, var, iterable, body)

    def while_stmt(self):
        kw = self.advance()
        cond = self.parenthesized()
        body = self.braced_body()
        return ast.While(kw.line, kw.col, cond, body)

    def parenthesized(self):
        self.expect_punct("(")
        self.depth += 1
        expr = self.expression()
        self.depth -= 1
        self.expect_punct(")")
        return expr

    def break_continue(self):
        kw = self.advance()
        cond = None
        if self.peek().is_punct("(") and self.peek().line == kw.line:
            cond = self.parenthesized()
        node = ast.Break if kw.lexeme == "break" else ast.Continue
        return node(kw.line, kw.col, cond)

    def return_stmt(self):
        kw = self.advance()
        tok = self.peek()
        value = None
        if (
            tok.kind != EOF
            and not tok.is_punct("}")
            and not tok.is_punct(";")
            and tok.line == kw.line
        ):
            value = self.expression()
        return ast.Return(kw.line, kw.col, value)

    def multi_assign(self):
        opener = self.expect_op("#(")
        self.depth += 1
        targets = []
        capture = None
        while True:
            if self.peek().is_op(":"):
                colon = self.advance()
                if capture is not None:
                    self.error("only one error-capture target allowed", colon)
                capture = self.expect_ident().lexeme
            else:
                if capture is not None:
                    self.error("error-capture target must come last")
                targets.append(self.expect_ident().lexeme)
            if self.peek().is_punct(","):
                self.advance()
                continue
            break
        self.depth -= 1
        self.expect_punct(")")
        total = len(targets) + (1 if capture is not None else 0)
        if total < 2:
            self.error("multiple assignment needs at least two targets", opener)
        self.expect_op("=")
        value = self.expression()
        return ast.MultiAssign(opener.line, opener.col, targets, capture, value)

    # --- expressions --------------------------------------------------------

    def expression(self, min_prec=TERNARY):
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == EOF or self.line_breaks_here():
                break
            if tok.is_op("?") and min_prec <= TERNARY:
                self.advance()
                then = self.expression(TERNARY)
                self.expect_op(":")
                orelse = self.expression(TERNARY)
                left = ast.Ternary(left.line, left.col, left, then, orelse)
                continue
            op = None
            if tok.kind == OP and tok.lexeme in _BINARY_PREC:
                op = tok.lexeme
            elif tok.kind == KEYWORD and tok.lexeme in _BINARY_PREC:
                op = tok.lexeme
            if op is None:
                break
            prec = _BINARY_PREC[op]
            if prec < min_prec:
                break
            self.advance()
            right = self.expression(prec + 1)
            left = ast.Binary(left.line, left.col, op, left, right)
        return left

    def unary(self):
        tok = self.peek()
        if tok.is_kw("not") or tok.is_op("!"):
            self.advance()
            return ast.Unary(tok.line, tok.col, "not", self.unary())
        if tok.is_op("-"):
            self.advance()
            return ast.Unary(tok.line, tok.col, "-", self.unary())
        if tok.is_op("#|"):
            self.advance()
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            self.expect_op("|")
            return ast.Cardinality(tok.line, tok.col, inner)
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == EOF or self.line_breaks_here():
                break
            if tok.is_punct("("):
                args, named, splat = self.call_args()
                node = ast.Call(node.line, node.col, node, args, named, splat)
            elif tok.is_punct("{") and isinstance(node, ast.Identifier):
                block = self.anon_block()
                args, named, splat = self.call_args()
                node = ast.Call(node.line, node.col, node, args, named, splat, block)
            elif tok.is_punct("["):
                self.advance()
                self.depth += 1
                index = self.expression()
                self.depth -= 1
                self.expect_punct("]")
                node = ast.Index(node.line, node.col, node, index)
            elif tok.is_punct("."):
                self.advance()
                node = self.member_of(node)
            elif (
                tok.is_op(":")
                and isinstance(node, ast.Identifier)
                and node.name in self.aliases
                and self.peek(1).kind == IDENT
                and self.peek(2).is_punct("(")
            ):
                self.advance()
                name = self.expect_ident().lexeme
                args, named, splat = self.call_args()
                if named or splat is not None:
                    self.error("static calls take positional arguments only")
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

    def call_args(self):
        self.expect_punct("(")
        self.depth += 1
        args = []
        named = []
        splat = None
        if not self.peek().is_punct(")"):
            while True:
                tok = self.peek()
                if (
                    tok.kind == IDENT
                    and self.peek(1).is_op("=")
                ):
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
                if self.peek().is_punct(","):
                    self.advance()
                    continue
                break
        if splat is not None and (args or named):
            self.error("__args__ must be the only argument")
        self.depth -= 1
        self.expect_punct(")")
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
        if tok.is_punct("("):
            self.advance()
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            self.expect_punct(")")
            return inner
        if tok.is_punct("["):
            return self.bracket_literal()
        if tok.is_punct("{"):
            return self.map_literal()
        if tok.is_op("#clock"):
            self.advance()
            body = self.braced_body()
            return ast.ClockBlock(tok.line, tok.col, body)
        self.error("expected an expression")

    def bracket_literal(self):
        opener = self.expect_punct("[")
        self.depth += 1
        if self.peek().is_punct("]"):
            self.depth -= 1
            self.advance()
            return ast.ListLit(opener.line, opener.col, [])
        first = self.expression()
        if self.peek().is_op(":"):
            self.advance()
            end = self.expression()
            step = None
            if self.peek().is_op(":"):
                self.advance()
                step = self.expression()
            self.depth -= 1
            self.expect_punct("]")
            return ast.RangeLit(opener.line, opener.col, first, end, step)
        items = [first]
        while self.peek().is_punct(","):
            self.advance()
            items.append(self.expression())
        self.depth -= 1
        self.expect_punct("]")
        return ast.ListLit(opener.line, opener.col, items)

    def map_literal(self):
        opener = self.expect_punct("{")
        self.depth += 1
        entries = []
        if not self.peek().is_punct("}"):
            while True:
                key = self.expression()
                self.expect_op(":")
                value = self.expression()
                entries.append((key, value))
                if self.peek().is_punct(","):
                    self.advance()
                    continue
                break
        self.depth -= 1
        self.expect_punct("}")
        return ast.MapLit(opener.line, opener.col, entries)
