"""MiniC unparser: typed (or untyped) AST back to compilable source.

The BE transformations rewrite the AST and then *emit source and
re-parse*: the re-parsed program goes through semantic analysis again, so
a transformation can never produce an inconsistently-typed program
without it being caught immediately.  The unparser is also what the
advisor uses to render suggested structure definitions.
"""

from __future__ import annotations

from ..frontend import ast
from ..frontend.parser import BINARY_PRECEDENCE
from ..frontend.typesys import (
    Type, PointerType, ArrayType, FunctionType, RecordType, NamedType,
)


def type_decl(t: Type, name: str = "") -> str:
    """Render a C declaration of ``name`` with type ``t``."""
    t = t if not isinstance(t, NamedType) else t
    if isinstance(t, NamedType):
        return f"{t.name} {name}".rstrip()
    if isinstance(t, PointerType):
        inner = t.pointee
        if isinstance(inner, FunctionType):
            params = ", ".join(type_decl(p) for p in inner.params) or "void"
            return f"{type_decl(inner.ret)} (*{name})({params})"
        return type_decl(inner, f"*{name}")
    if isinstance(t, ArrayType):
        return type_decl(t.elem, f"{name}[{t.length}]")
    if isinstance(t, RecordType):
        return f"struct {t.name} {name}".rstrip()
    return f"{t} {name}".rstrip()


def struct_definition(rec: RecordType) -> str:
    lines = [f"struct {rec.name} {{"]
    for f in rec.fields:
        if f.is_bitfield:
            lines.append(f"    {type_decl(f.type, f.name)} : "
                         f"{f.bit_width};")
        else:
            lines.append(f"    {type_decl(f.type, f.name)};")
    lines.append("};")
    return "\n".join(lines)


# operator precedence levels for minimal parenthesization: comma,
# assignment and ?: below the parser's binary levels, unary, postfix
# and primary above them
_TOP_BINARY = 3 + max(BINARY_PRECEDENCE.values())
_PREC = {
    ",": 1, "=": 2, "+=": 2, "-=": 2, "*=": 2, "/=": 2, "%=": 2,
    "&=": 2, "|=": 2, "^=": 2, "<<=": 2, ">>=": 2,
    "?:": 3,
    **{op: 3 + level for op, level in BINARY_PRECEDENCE.items()},
    "unary": _TOP_BINARY + 1, "postfix": _TOP_BINARY + 2,
    "primary": _TOP_BINARY + 3,
}


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\0":
            out.append("\\0")
        else:
            out.append(ch)
    return "".join(out)


def expr_text(e: ast.Expr, parent_prec: int = 0) -> str:
    text, prec = _expr(e)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr(e: ast.Expr) -> tuple[str, int]:
    if isinstance(e, ast.IntLit):
        return str(e.value), _PREC["primary"]
    if isinstance(e, ast.FloatLit):
        v = repr(float(e.value))
        if "e" not in v and "." not in v and "inf" not in v:
            v += ".0"
        return v, _PREC["primary"]
    if isinstance(e, ast.StrLit):
        return f'"{_escape(e.value)}"', _PREC["primary"]
    if isinstance(e, ast.NullLit):
        return "NULL", _PREC["primary"]
    if isinstance(e, ast.Ident):
        return e.name, _PREC["primary"]
    if isinstance(e, ast.Unary):
        p = _PREC["unary"]
        if e.op == "p++":
            return expr_text(e.operand, _PREC["postfix"]) + "++", \
                _PREC["postfix"]
        if e.op == "p--":
            return expr_text(e.operand, _PREC["postfix"]) + "--", \
                _PREC["postfix"]
        op = e.op
        inner = expr_text(e.operand, p)
        # avoid `--x` from -(-x) and `&&` from &(&x)
        if op in ("-", "&") and inner.startswith(op):
            inner = f"({inner})"
        return f"{op}{inner}", p
    if isinstance(e, ast.Binary):
        p = _PREC[e.op]
        left = expr_text(e.left, p)
        right = expr_text(e.right, p + 1)
        return f"{left} {e.op} {right}", p
    if isinstance(e, ast.Assign):
        p = _PREC["="]
        target = expr_text(e.target, p + 1)
        value = expr_text(e.value, p)
        return f"{target} {e.op} {value}", p
    if isinstance(e, ast.Conditional):
        p = _PREC["?:"]
        return (f"{expr_text(e.cond, p + 1)} ? "
                f"{expr_text(e.then, 0)} : {expr_text(e.els, p)}"), p
    if isinstance(e, ast.Comma):
        p = _PREC[","]
        return ", ".join(expr_text(x, p + 1) for x in e.parts), p
    if isinstance(e, ast.Call):
        fn = expr_text(e.func, _PREC["postfix"])
        args = ", ".join(expr_text(a, _PREC[","] + 1) for a in e.args)
        return f"{fn}({args})", _PREC["postfix"]
    if isinstance(e, ast.Index):
        base = expr_text(e.base, _PREC["postfix"])
        return f"{base}[{expr_text(e.index, 0)}]", _PREC["postfix"]
    if isinstance(e, ast.Member):
        base = expr_text(e.base, _PREC["postfix"])
        sep = "->" if e.arrow else "."
        return f"{base}{sep}{e.name}", _PREC["postfix"]
    if isinstance(e, ast.Cast):
        return f"({type_decl(e.to)}) " \
               f"{expr_text(e.operand, _PREC['unary'])}", _PREC["unary"]
    if isinstance(e, ast.SizeofType):
        return f"sizeof({type_decl(e.of)})", _PREC["primary"]
    if isinstance(e, ast.SizeofExpr):
        return f"sizeof({expr_text(e.operand, 0)})", _PREC["primary"]
    raise ValueError(f"cannot unparse {type(e).__name__}")


def stmt_lines(s: ast.Stmt, indent: int = 0) -> list[str]:
    pad = "    " * indent
    if isinstance(s, ast.Block):
        lines = [pad + "{"]
        for inner in s.stmts:
            lines.extend(stmt_lines(inner, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(s, ast.ExprStmt):
        return [pad + expr_text(s.expr, 0) + ";"]
    if isinstance(s, ast.DeclStmt):
        decl = type_decl(s.decl_type, s.name)
        if s.init is not None:
            return [pad + f"{decl} = {expr_text(s.init, _PREC[','] + 1)};"]
        return [pad + decl + ";"]
    if isinstance(s, ast.If):
        lines = [pad + f"if ({expr_text(s.cond, 0)})"]
        lines.extend(_nested(s.then, indent))
        if s.els is not None:
            lines.append(pad + "else")
            lines.extend(_nested(s.els, indent))
        return lines
    if isinstance(s, ast.While):
        lines = [pad + f"while ({expr_text(s.cond, 0)})"]
        lines.extend(_nested(s.body, indent))
        return lines
    if isinstance(s, ast.DoWhile):
        lines = [pad + "do"]
        lines.extend(_nested(s.body, indent))
        lines.append(pad + f"while ({expr_text(s.cond, 0)});")
        return lines
    if isinstance(s, ast.For):
        init = ""
        if isinstance(s.init, ast.ExprStmt):
            init = expr_text(s.init.expr, 0)
        elif isinstance(s.init, ast.DeclStmt):
            init = stmt_lines(s.init)[0].rstrip(";")
        cond = expr_text(s.cond, 0) if s.cond is not None else ""
        step = expr_text(s.step, 0) if s.step is not None else ""
        lines = [pad + f"for ({init}; {cond}; {step})"]
        lines.extend(_nested(s.body, indent))
        return lines
    if isinstance(s, ast.Return):
        if s.value is not None:
            return [pad + f"return {expr_text(s.value, 0)};"]
        return [pad + "return;"]
    if isinstance(s, ast.Break):
        return [pad + "break;"]
    if isinstance(s, ast.Continue):
        return [pad + "continue;"]
    raise ValueError(f"cannot unparse {type(s).__name__}")


def _nested(s: ast.Stmt, indent: int) -> list[str]:
    if isinstance(s, ast.Block):
        return stmt_lines(s, indent)
    return stmt_lines(s, indent + 1)


def function_text(fn: ast.FunctionDef) -> str:
    params = ", ".join(type_decl(p.type, p.name) for p in fn.params)
    static = "static " if fn.is_static else ""
    head = f"{static}{type_decl(fn.ret_type, fn.name)}({params or 'void'})"
    if fn.body is None:
        return head + ";"
    return head + "\n" + "\n".join(stmt_lines(fn.body, 0))


def unit_text(unit: ast.TranslationUnit) -> str:
    """Render one translation unit as MiniC source."""
    parts: list[str] = []
    for d in unit.decls:
        if isinstance(d, ast.StructDecl):
            parts.append(struct_definition(d.record))
        elif isinstance(d, ast.TypedefDecl):
            parts.append(f"typedef {type_decl(d.aliased, d.name)};")
        elif isinstance(d, ast.GlobalVar):
            static = "static " if d.is_static else ""
            decl = f"{static}{type_decl(d.decl_type, d.name)}"
            if d.init is not None:
                parts.append(f"{decl} = {expr_text(d.init, 0)};")
            else:
                parts.append(decl + ";")
        elif isinstance(d, ast.FunctionDef):
            parts.append(function_text(d))
        else:
            raise ValueError(f"cannot unparse {type(d).__name__}")
    return "\n\n".join(parts) + "\n"


def program_sources(program) -> list[tuple[str, str]]:
    """Unparse every unit: ``[(unit_name, source), ...]``.

    Record types that were registered in the program's shared tag table
    but never appeared as a top-level ``StructDecl`` (e.g. defined inside
    a typedef) are emitted once, ahead of the first unit, so the result
    re-parses.
    """
    declared: set[str] = set()
    for u in program.units:
        for d in u.decls:
            if isinstance(d, ast.StructDecl):
                declared.add(d.record.name)
    missing = [rec for name, rec in program.records.items()
               if rec.fields and name not in declared]
    out = []
    for i, u in enumerate(program.units):
        text = unit_text(u)
        if i == 0 and missing:
            preamble = "\n\n".join(struct_definition(r) for r in missing)
            text = preamble + "\n\n" + text
        out.append((u.name, text))
    return out
