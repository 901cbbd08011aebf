"""Recursive-descent parser for MiniC.

Produces a :class:`~repro.frontend.ast.TranslationUnit`.  The parser keeps
a type environment (struct tags and typedef names) so it can distinguish
declarations from expressions and parse casts, exactly the information a
C parser needs.  Function pointers are supported through the
``ret (*name)(params)`` declarator form — they are what the paper's IND
legality test fires on.  Binary expressions are parsed by precedence
climbing over :data:`BINARY_PRECEDENCE`, one loop for all ten levels.
"""

from __future__ import annotations

from . import ast
from .lexer import Token, tokenize
from .typesys import (
    BUILTIN_TYPES, RecordType, Field, NamedType, PointerType, ArrayType,
    FunctionType, Type,
)


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"line {token.line}: {message} (at {token.text!r})")
        self.token = token
        self.line = token.line
        self.message = message


_BASE_TYPE_KWS = frozenset({
    "void", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed",
})

_QUALIFIER_KWS = frozenset({"const", "static", "extern"})
#: keywords that start a type (and so a declaration)
_TYPE_START_KWS = _BASE_TYPE_KWS | _QUALIFIER_KWS | {"struct"}

#: C's ten binary precedence levels, loosest (1) to tightest (10); every
#: level is left-associative.  The unparser derives its binary levels
#: from this table.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})
#: prefix operators that build a :class:`~repro.frontend.ast.Unary`
_PREFIX_OPS = frozenset({"-", "!", "~", "*", "&", "++", "--"})
#: operators that may follow a postfix expression
_POSTFIX_OPS = frozenset({"[", "(", ".", "->", "++", "--"})
_POSTFIX_UNARY = {"++": "p++", "--": "p--"}


class Parser:
    def __init__(self, tokens: list[Token], unit_name: str = "<unit>",
                 recover: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.unit_name = unit_name
        self.struct_tags: dict[str, RecordType] = {}
        self.typedefs: dict[str, NamedType] = {}
        #: error-recovery mode: collect ParseErrors in :attr:`errors`
        #: and resynchronize at the next top-level declaration instead
        #: of dying on the first syntax error
        self.recover = recover
        self.errors: list[ParseError] = []

    # -- token plumbing -------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def check(self, kind: str, text: str | None = None) -> bool:
        t = self.tokens[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.tokens[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            if kind != "eof":
                self.pos += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}", t)
        if kind != "eof":
            self.pos += 1
        return t

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.tok)

    # -- type recognition -----------------------------------------------

    def at_type(self) -> bool:
        t = self.tokens[self.pos]
        if t.kind == "kw":
            return t.text in _TYPE_START_KWS
        return t.kind == "id" and t.text in self.typedefs

    def parse_type_specifier(self) -> Type:
        """Parse the base type: builtin combination, struct, or typedef."""
        tokens = self.tokens
        t = tokens[self.pos]
        while t.kind == "kw" and t.text in _QUALIFIER_KWS:
            self.pos += 1
            t = tokens[self.pos]
        if t.kind == "kw" and t.text == "struct":
            return self._parse_struct_specifier()
        if t.kind == "id" and t.text in self.typedefs:
            self.pos += 1
            return self.typedefs[t.text]
        words: list[str] = []
        while t.kind == "kw" and t.text in _BASE_TYPE_KWS:
            words.append(t.text)
            self.pos += 1
            t = tokens[self.pos]
        if not words:
            raise self.error("expected a type")
        return _resolve_base_type(words, t)

    def _parse_struct_specifier(self) -> RecordType:
        self.expect("kw", "struct")
        tag = None
        if self.tok.kind == "id":
            tag = self.advance().text
        if self.check("op", "{"):
            if tag is None:
                tag = f"__anon_{self.tok.line}"
            rec = self.struct_tags.get(tag)
            if rec is None:
                rec = RecordType(tag)
                self.struct_tags[tag] = rec
            elif rec.fields:
                raise self.error(f"redefinition of struct {tag}")
            self._parse_struct_body(rec)
            return rec
        if tag is None:
            raise self.error("expected struct tag or body")
        rec = self.struct_tags.get(tag)
        if rec is None:
            rec = RecordType(tag)   # forward reference
            self.struct_tags[tag] = rec
        return rec

    def _parse_struct_body(self, rec: RecordType) -> None:
        self.expect("op", "{")
        while not self.check("op", "}"):
            base = self.parse_type_specifier()
            while True:
                ftype, fname = self.parse_declarator(base)
                width = None
                if self.accept("op", ":"):
                    width_tok = self.expect("int")
                    width = int(width_tok.value)
                rec.add_field(Field(fname, ftype, bit_width=width))
                if not self.accept("op", ","):
                    break
            self.expect("op", ";")
        self.expect("op", "}")
        rec.layout()

    def parse_declarator(self, base: Type) -> tuple[Type, str]:
        """Parse pointers, the name, and array / function suffixes."""
        t = base
        while self.accept("op", "*"):
            t = PointerType(t)
        # function-pointer declarator: ( * name ) ( params )
        if self.check("op", "(") and self.peek().text == "*":
            self.expect("op", "(")
            self.expect("op", "*")
            name = self.expect("id").text
            self.expect("op", ")")
            params, varargs = self._parse_param_types()
            return PointerType(FunctionType(t, tuple(params), varargs)), name
        name = self.expect("id").text
        dims: list[int] = []
        while self.accept("op", "["):
            n_tok = self.expect("int")
            dims.append(int(n_tok.value))
            self.expect("op", "]")
        for n in reversed(dims):
            t = ArrayType(t, n)
        return t, name

    def parse_abstract_type(self) -> Type:
        """Type without a declarator name, for casts and sizeof."""
        t = self.parse_type_specifier()
        while self.accept("op", "*"):
            t = PointerType(t)
        return t

    def _parse_param_types(self) -> tuple[list[Type], bool]:
        self.expect("op", "(")
        params: list[Type] = []
        varargs = False
        if self.check("kw", "void") and self.peek().text == ")":
            self.advance()
        if not self.check("op", ")"):
            while True:
                if self.accept("op", "..."):
                    varargs = True
                    break
                pt = self.parse_type_specifier()
                while self.accept("op", "*"):
                    pt = PointerType(pt)
                if self.tok.kind == "id":
                    self.advance()
                params.append(pt)
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return params, varargs

    # -- top level --------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(name=self.unit_name)
        while not self.check("eof"):
            if self.recover and (self.accept("op", ";")
                                 or self.accept("op", "}")):
                continue             # stray recovery residue
            try:
                unit.decls.extend(self.parse_top_decl())
            except ParseError as err:
                if not self.recover:
                    raise
                self.errors.append(err)
                self._synchronize()
        return unit

    def _synchronize(self) -> None:
        """Skip to the most likely start of the next top-level
        declaration: past a ``;`` at brace depth zero, or past the
        closing ``}`` of the aborted definition."""
        depth = 0
        while not self.check("eof"):
            t = self.advance()
            if t.kind != "op":
                continue
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                if depth <= 1:
                    self.accept("op", ";")
                    return
                depth -= 1
            elif t.text == ";" and depth == 0:
                return

    def parse_top_decl(self) -> list[ast.Node]:
        line = self.tok.line
        if self.accept("kw", "typedef"):
            base = self.parse_type_specifier()
            t, name = self.parse_declarator(base)
            self.expect("op", ";")
            alias = NamedType(name, t)
            self.typedefs[name] = alias
            return [ast.TypedefDecl(line=line, name=name, aliased=t)]

        is_static = False
        while self.check("kw", "static") or self.check("kw", "extern") \
                or self.check("kw", "const"):
            if self.tok.text == "static":
                is_static = True
            self.advance()

        if self.check("kw", "struct") and self.peek().kind == "id" \
                and self.peek(2).text == "{":
            rec = self._parse_struct_specifier()
            if self.accept("op", ";"):
                return [ast.StructDecl(line=line, record=rec)]
            # struct definition followed by declarators: fall through
            decls: list[ast.Node] = [ast.StructDecl(line=line, record=rec)]
            decls.extend(self._parse_init_declarators(rec, line, is_static))
            return decls

        base = self.parse_type_specifier()

        # bare type declaration: "struct s;" (forward declaration)
        if self.accept("op", ";"):
            return []

        # function definition / declaration?  (a '(' after the declarator
        # name is a parameter list — function-pointer declarators have
        # already consumed theirs inside parse_declarator)
        save = self.pos
        t, name = self.parse_declarator(base)
        if self.check("op", "("):
            return [self._parse_function(t, name, line, is_static)]
        self.pos = save
        return self._parse_init_declarators(base, line, is_static)

    def _parse_init_declarators(self, base: Type, line: int,
                                is_static: bool) -> list[ast.Node]:
        decls: list[ast.Node] = []
        while True:
            t, name = self.parse_declarator(base)
            init = None
            if self.accept("op", "="):
                init = self.parse_assignment()
            decls.append(ast.GlobalVar(line=line, name=name, decl_type=t,
                                       init=init, is_static=is_static))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return decls

    def _parse_function(self, ret: Type, name: str, line: int,
                        is_static: bool) -> ast.FunctionDef:
        self.expect("op", "(")
        params: list[ast.Param] = []
        if not self.check("op", ")"):
            if self.check("kw", "void") and self.peek().text == ")":
                self.advance()
            else:
                while True:
                    pline = self.tok.line
                    pbase = self.parse_type_specifier()
                    ptype, pname = self.parse_declarator(pbase)
                    if ptype.is_array():
                        ptype = PointerType(ptype.strip().elem)
                    params.append(ast.Param(line=pline, name=pname,
                                            type=ptype))
                    if not self.accept("op", ","):
                        break
        self.expect("op", ")")
        body = None
        if self.check("op", "{"):
            body = self.parse_block()
        else:
            self.expect("op", ";")
        return ast.FunctionDef(line=line, name=name, ret_type=ret,
                               params=params, body=body, is_static=is_static)

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> ast.Block:
        line = self.tok.line
        self.expect("op", "{")
        stmts: list[ast.Stmt] = []
        while not self.check("op", "}"):
            stmts.extend(self.parse_statement())
        self.expect("op", "}")
        return ast.Block(line=line, stmts=stmts)

    def parse_statement(self) -> list[ast.Stmt]:
        t = self.tokens[self.pos]
        if t.kind == "kw":
            stmt = self._parse_keyword_statement(t.line)
            if stmt is not None:
                return stmt
        elif t.kind == "op":
            if t.text == "{":
                return [self.parse_block()]
            if t.text == ";":
                self.pos += 1
                return []
        if self.at_type():
            return self.parse_decl_statement()
        expr = self.parse_expression()
        self.expect("op", ";")
        return [ast.ExprStmt(line=t.line, expr=expr)]

    def _parse_keyword_statement(self, line: int) -> list[ast.Stmt] | None:
        """A statement that opens with a keyword, or None when the
        keyword opens a declaration instead."""
        if self.accept("kw", "if"):
            self.expect("op", "(")
            cond = self.parse_expression()
            self.expect("op", ")")
            then = _single(self.parse_statement())
            els = None
            if self.accept("kw", "else"):
                els = _single(self.parse_statement())
            return [ast.If(line=line, cond=cond, then=then, els=els)]
        if self.accept("kw", "while"):
            self.expect("op", "(")
            cond = self.parse_expression()
            self.expect("op", ")")
            body = _single(self.parse_statement())
            return [ast.While(line=line, cond=cond, body=body)]
        if self.accept("kw", "do"):
            body = _single(self.parse_statement())
            self.expect("kw", "while")
            self.expect("op", "(")
            cond = self.parse_expression()
            self.expect("op", ")")
            self.expect("op", ";")
            return [ast.DoWhile(line=line, body=body, cond=cond)]
        if self.accept("kw", "for"):
            self.expect("op", "(")
            init: ast.Stmt | None = None
            if not self.check("op", ";"):
                if self.at_type():
                    init = _single(self.parse_decl_statement())
                else:
                    init = ast.ExprStmt(line=line,
                                        expr=self.parse_expression())
                    self.expect("op", ";")
            else:
                self.expect("op", ";")
            cond = None
            if not self.check("op", ";"):
                cond = self.parse_expression()
            self.expect("op", ";")
            step = None
            if not self.check("op", ")"):
                step = self.parse_expression()
            self.expect("op", ")")
            body = _single(self.parse_statement())
            return [ast.For(line=line, init=init, cond=cond, step=step,
                            body=body)]
        if self.accept("kw", "return"):
            value = None
            if not self.check("op", ";"):
                value = self.parse_expression()
            self.expect("op", ";")
            return [ast.Return(line=line, value=value)]
        if self.accept("kw", "break"):
            self.expect("op", ";")
            return [ast.Break(line=line)]
        if self.accept("kw", "continue"):
            self.expect("op", ";")
            return [ast.Continue(line=line)]
        return None

    def parse_decl_statement(self) -> list[ast.Stmt]:
        line = self.tok.line
        base = self.parse_type_specifier()
        out: list[ast.Stmt] = []
        while True:
            t, name = self.parse_declarator(base)
            init = None
            if self.accept("op", "="):
                init = self.parse_assignment()
            out.append(ast.DeclStmt(line=line, name=name, decl_type=t,
                                    init=init))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return out

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        first = self.parse_assignment()
        if not self.check("op", ","):
            return first
        parts = [first]
        while self.accept("op", ","):
            parts.append(self.parse_assignment())
        return ast.Comma(line=first.line, parts=parts)

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        t = self.tokens[self.pos]
        if t.kind == "op" and t.text in _ASSIGN_OPS:
            self.pos += 1
            right = self.parse_assignment()
            return ast.Assign(line=left.line, op=t.text, target=left,
                              value=right)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary()
        if self.accept("op", "?"):
            then = self.parse_expression()
            self.expect("op", ":")
            els = self.parse_conditional()
            return ast.Conditional(line=cond.line, cond=cond, then=then,
                                   els=els)
        return cond

    def parse_binary(self, min_level: int = 1) -> ast.Expr:
        """Precedence climbing over :data:`BINARY_PRECEDENCE`: a binary
        expression whose operators all bind at ``min_level`` or tighter.
        The right operand of a level-``k`` operator only takes operators
        tighter than ``k``, which makes every level left-associative."""
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            t = tokens[self.pos]
            # only operator tokens have an operator's text
            level = BINARY_PRECEDENCE.get(t.text, 0)
            if level < min_level:
                return left
            self.pos += 1
            right = self.parse_binary(level + 1)
            left = ast.Binary(line=left.line, op=t.text, left=left,
                              right=right)

    def parse_unary(self) -> ast.Expr:
        t = self.tokens[self.pos]
        if t.kind != "op":
            if t.kind == "kw" and t.text == "sizeof":
                return self._parse_sizeof(t.line)
            return self.parse_postfix()
        op = t.text
        if op in _PREFIX_OPS:
            self.pos += 1
            return ast.Unary(line=t.line, op=op, operand=self.parse_unary())
        if op == "+":
            self.pos += 1
            return self.parse_unary()
        if op == "(" and self._type_follows_paren():
            self.pos += 1
            to = self.parse_abstract_type()
            self.expect("op", ")")
            return ast.Cast(line=t.line, to=to, operand=self.parse_unary())
        return self.parse_postfix()

    def _parse_sizeof(self, line: int) -> ast.Expr:
        self.pos += 1
        if self.check("op", "(") and self._type_follows_paren():
            self.pos += 1
            t = self.parse_abstract_type()
            self.expect("op", ")")
            return ast.SizeofType(line=line, of=t)
        return ast.SizeofExpr(line=line, operand=self.parse_unary())

    def _type_follows_paren(self) -> bool:
        nxt = self.peek()
        if nxt.kind == "kw" and (nxt.text in _BASE_TYPE_KWS
                                 or nxt.text in ("struct", "const")):
            return True
        return nxt.kind == "id" and nxt.text in self.typedefs

    def parse_postfix(self) -> ast.Expr:
        e = self.parse_primary()
        tokens = self.tokens
        while True:
            t = tokens[self.pos]
            if t.kind != "op" or t.text not in _POSTFIX_OPS:
                return e
            self.pos += 1
            op, line = t.text, t.line
            if op == "[":
                idx = self.parse_expression()
                self.expect("op", "]")
                e = ast.Index(line=line, base=e, index=idx)
            elif op == "(":
                args: list[ast.Expr] = []
                if not self.check("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                e = ast.Call(line=line, func=e, args=args)
            elif op == "." or op == "->":
                name = self.expect("id").text
                e = ast.Member(line=line, base=e, name=name,
                               arrow=op == "->")
            else:
                e = ast.Unary(line=line, op=_POSTFIX_UNARY[op], operand=e)

    def parse_primary(self) -> ast.Expr:
        t = self.tokens[self.pos]
        kind = t.kind
        if kind == "id":
            self.pos += 1
            return ast.Ident(line=t.line, name=t.text)
        if kind == "int" or kind == "char":
            self.pos += 1
            return ast.IntLit(line=t.line, value=int(t.value))
        if kind == "float":
            self.pos += 1
            return ast.FloatLit(line=t.line, value=float(t.value))
        if kind == "str":
            self.pos += 1
            return ast.StrLit(line=t.line, value=str(t.value))
        if kind == "kw" and t.text == "NULL":
            self.pos += 1
            return ast.NullLit(line=t.line)
        if self.accept("op", "("):
            e = self.parse_expression()
            self.expect("op", ")")
            return e
        raise self.error("expected an expression")


def _single(stmts: list[ast.Stmt]) -> ast.Stmt:
    if len(stmts) == 1:
        return stmts[0]
    return ast.Block(line=stmts[0].line if stmts else 0, stmts=stmts)


def _resolve_base_type(words: list[str], tok: Token) -> Type:
    unsigned = "unsigned" in words
    words = [w for w in words if w not in ("unsigned", "signed")]
    key = " ".join(words) if words else "int"
    if key == "long long":
        key = "long"
    if key == "long int":
        key = "long"
    if key == "short int":
        key = "short"
    if unsigned:
        key = f"unsigned {key}" if key != "int" else "unsigned int"
    t = BUILTIN_TYPES.get(key)
    if t is None:
        raise ParseError(f"unknown type {' '.join(words)!r}", tok)
    return t


def parse(source: str, unit_name: str = "<unit>") -> ast.TranslationUnit:
    """Parse MiniC source text into a translation unit."""
    return Parser(tokenize(source, unit_name), unit_name) \
        .parse_translation_unit()


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression (testing convenience)."""
    p = Parser(tokenize(source))
    e = p.parse_expression()
    p.expect("eof")
    return e
