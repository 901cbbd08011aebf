"""Abstract syntax tree for MiniC.

Expression nodes carry a ``type`` slot filled in by the semantic pass
(:mod:`repro.frontend.sema`); the legality and profitability analyses, the
transformations, and the interpreter all consume this typed AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .typesys import Type, RecordType


@dataclass
class Node:
    """Base AST node; ``line`` is the 1-based source line."""
    line: int = 0


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr(Node):
    #: filled by sema: the expression's MiniC type
    type: Optional[Type] = None


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class NullLit(Expr):
    pass


@dataclass
class Ident(Expr):
    name: str = ""
    #: filled by sema: the resolved Symbol
    symbol: object = None


@dataclass
class Unary(Expr):
    op: str = ""           # '-', '!', '~', '*', '&', '++', '--', 'p++', 'p--'
    operand: Expr = None   # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None      # type: ignore[assignment]
    right: Expr = None     # type: ignore[assignment]


@dataclass
class Assign(Expr):
    op: str = "="          # '=', '+=', '-=', ...
    target: Expr = None    # type: ignore[assignment]
    value: Expr = None     # type: ignore[assignment]


@dataclass
class Conditional(Expr):
    cond: Expr = None      # type: ignore[assignment]
    then: Expr = None      # type: ignore[assignment]
    els: Expr = None       # type: ignore[assignment]


@dataclass
class Comma(Expr):
    parts: list[Expr] = dc_field(default_factory=list)


@dataclass
class Call(Expr):
    func: Expr = None      # type: ignore[assignment]
    args: list[Expr] = dc_field(default_factory=list)

    @property
    def callee_name(self) -> str | None:
        """Syntactic callee name, or None for non-identifier callees."""
        if isinstance(self.func, Ident):
            return self.func.name
        return None

    @property
    def resolved_callee(self) -> str | None:
        """Direct callee name after symbol resolution; None for indirect
        calls — including calls through function-pointer *variables*,
        which look direct syntactically."""
        if isinstance(self.func, Ident):
            sym = self.func.symbol
            if sym is None or getattr(sym, "is_function", False):
                return self.func.name
        return None


@dataclass
class Index(Expr):
    base: Expr = None      # type: ignore[assignment]
    index: Expr = None     # type: ignore[assignment]


@dataclass
class Member(Expr):
    """``base.name`` when arrow is False, ``base->name`` when True."""
    base: Expr = None      # type: ignore[assignment]
    name: str = ""
    arrow: bool = False
    #: filled by sema: the record type owning the field
    record: Optional[RecordType] = None


@dataclass
class Cast(Expr):
    to: Type = None        # type: ignore[assignment]
    operand: Expr = None   # type: ignore[assignment]


@dataclass
class SizeofType(Expr):
    of: Type = None        # type: ignore[assignment]


@dataclass
class SizeofExpr(Expr):
    operand: Expr = None   # type: ignore[assignment]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None      # type: ignore[assignment]


@dataclass
class DeclStmt(Stmt):
    """Local variable declaration, possibly with an initializer."""
    name: str = ""
    decl_type: Type = None  # type: ignore[assignment]
    init: Optional[Expr] = None
    symbol: object = None


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = dc_field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None      # type: ignore[assignment]
    then: Stmt = None      # type: ignore[assignment]
    els: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None      # type: ignore[assignment]
    body: Stmt = None      # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None      # type: ignore[assignment]
    cond: Expr = None      # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None    # ExprStmt or DeclStmt
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None      # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------

@dataclass
class Param(Node):
    name: str = ""
    type: Type = None      # type: ignore[assignment]
    symbol: object = None


@dataclass
class FunctionDef(Node):
    name: str = ""
    ret_type: Type = None  # type: ignore[assignment]
    params: list[Param] = dc_field(default_factory=list)
    body: Optional[Block] = None   # None for a declaration (prototype)
    is_static: bool = False

    @property
    def is_definition(self) -> bool:
        return self.body is not None


@dataclass
class GlobalVar(Node):
    name: str = ""
    decl_type: Type = None  # type: ignore[assignment]
    init: Optional[Expr] = None
    is_static: bool = False
    symbol: object = None


@dataclass
class StructDecl(Node):
    """Top-level struct definition; the type object is shared with sema."""
    record: RecordType = None  # type: ignore[assignment]


@dataclass
class TypedefDecl(Node):
    name: str = ""
    aliased: Type = None   # type: ignore[assignment]


@dataclass
class TranslationUnit(Node):
    """One MiniC source file — the FE's unit of analysis."""
    name: str = "<unit>"
    decls: list[Node] = dc_field(default_factory=list)

    def functions(self) -> list[FunctionDef]:
        return [d for d in self.decls
                if isinstance(d, FunctionDef) and d.is_definition]

    def globals(self) -> list[GlobalVar]:
        return [d for d in self.decls if isinstance(d, GlobalVar)]

    def records(self) -> list[RecordType]:
        return [d.record for d in self.decls if isinstance(d, StructDecl)]


# --------------------------------------------------------------------------
# Traversal helpers
# --------------------------------------------------------------------------

# Each walker dispatches on ``type(node)`` through one table.  No
# concrete node class has a subclass, so the lookup is exact; a type
# the table does not name has no children.

def _no_children(node: Node) -> list:
    return []


_CHILD_EXPRS = {
    Unary: lambda e: [e.operand],
    Binary: lambda e: [e.left, e.right],
    Assign: lambda e: [e.target, e.value],
    Conditional: lambda e: [e.cond, e.then, e.els],
    Comma: lambda e: list(e.parts),
    Call: lambda e: [e.func, *e.args],
    Index: lambda e: [e.base, e.index],
    Member: lambda e: [e.base],
    Cast: lambda e: [e.operand],
    SizeofExpr: lambda e: [e.operand],
}


def child_exprs(e: Expr) -> list[Expr]:
    """Direct sub-expressions of an expression node."""
    return _CHILD_EXPRS.get(type(e), _no_children)(e)


def walk_expr(e: Expr):
    """Yield ``e`` and every sub-expression, pre-order."""
    stack = [e]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        if node is None:
            continue
        yield node
        kids = _CHILD_EXPRS.get(type(node))
        if kids is not None:
            push(reversed(kids(node)))


_STMT_EXPRS = {
    ExprStmt: lambda s: [s.expr],
    DeclStmt: lambda s: [s.init] if s.init is not None else [],
    If: lambda s: [s.cond],
    While: lambda s: [s.cond],
    DoWhile: lambda s: [s.cond],
    For: lambda s: [e for e in (s.cond, s.step) if e is not None],
    Return: lambda s: [s.value] if s.value is not None else [],
}


def stmt_exprs(s: Stmt) -> list[Expr]:
    """Direct expressions of a statement (not recursing into sub-stmts)."""
    return _STMT_EXPRS.get(type(s), _no_children)(s)


_CHILD_STMTS = {
    Block: lambda s: list(s.stmts),
    If: lambda s: [s.then] if s.els is None else [s.then, s.els],
    While: lambda s: [s.body],
    DoWhile: lambda s: [s.body],
    For: lambda s: [s.body] if s.init is None else [s.init, s.body],
}


def child_stmts(s: Stmt) -> list[Stmt]:
    """Direct sub-statements of a statement node."""
    return _CHILD_STMTS.get(type(s), _no_children)(s)


def walk_stmts(s: Stmt):
    """Yield ``s`` and every sub-statement, pre-order."""
    stack = [s]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        if node is None:
            continue
        yield node
        kids = _CHILD_STMTS.get(type(node))
        if kids is not None:
            push(reversed(kids(node)))


def function_exprs(fn: FunctionDef):
    """Yield every expression node in a function body, fully recursive."""
    if fn.body is None:
        return
    for s in walk_stmts(fn.body):
        for e in stmt_exprs(s):
            yield from walk_expr(e)
