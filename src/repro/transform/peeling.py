"""Structure peeling (§2.1, Figure 1 (c)).

For types whose every access goes through a single global pointer that is
assigned exactly from dynamic allocation sites, splitting needs no link
pointers: the type is broken into multiple record types and the global
pointer into one pointer per piece.  All accesses ``P[i].f`` are
rewritten to ``P_k[i].f`` against the piece holding ``f`` — the
transformation the paper applies to 179.art's structure-of-floats.

:func:`check_peelable` is the legality side: it verifies the
single-pointer discipline the transformation relies on (the paper's
attribute collection — no other local or global pointers or variables of
that type exist — plus non-recursiveness).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..frontend import ast
from ..frontend.program import Program
from ..frontend.typesys import RecordType, Field, PointerType, LONG
from ..analysis.legality import record_of, direct_record_of
from .common import (
    TransformError, extract_alloc_count, is_alloc_cast, remove_dead_store,
    has_side_effects, references_record,
)
from .rewrite import Transformer, retype


@dataclass
class PeelSpec:
    """How to peel: a partition of the surviving fields into groups."""

    record: RecordType
    pointer: str                      # the single global pointer's name
    groups: list[list[str]]
    dead_fields: list[str] = dc_field(default_factory=list)

    def __post_init__(self):
        names = [f.name for f in self.record.fields]
        covered = [f for g in self.groups for f in g]
        if sorted(covered + list(self.dead_fields)) != sorted(names):
            raise TransformError(
                "peel groups + dead fields must partition the fields of "
                f"{self.record.name}")

    def piece_name(self, k: int) -> str:
        return f"{self.record.name}__p{k}"

    def pointer_name(self, k: int) -> str:
        return f"{self.pointer}__p{k}"

    def group_of(self, fname: str) -> int:
        for k, g in enumerate(self.groups):
            if fname in g:
                return k
        raise TransformError(f"field {fname!r} in no peel group")

    def build_records(self) -> list[RecordType]:
        out = []
        for k, g in enumerate(self.groups):
            rec = RecordType(self.piece_name(k), origin=self.record)
            for fname in g:
                f = self.record.field(fname)
                rec.add_field(Field(f.name, f.type, f.bit_width))
            rec.layout()
            out.append(rec)
        return out


def check_peelable(program: Program, record: RecordType,
                   pointer: str) -> list[str]:
    """Return the list of violations preventing peeling (empty = ok).

    Checks: non-recursive type; the named global pointer is the only
    variable of type ``record*``; the pointer is used only as the base of
    field accesses, as the target of allocation-cast assignments, and in
    ``free``; no function signature mentions the type; no ``sizeof`` of
    the type outside recognized allocation sites.
    """
    problems: list[str] = []
    if record.is_recursive():
        problems.append("type is recursive (needs link-pointer splitting)")

    # single-pointer discipline over declarations
    for g in program.globals():
        rec = direct_record_of(g.decl_type)
        if rec is not None and rec.name == record.name \
                and g.name != pointer:
            problems.append(f"other global {g.name!r} of type "
                            f"{record.name}*")
        t = g.decl_type.strip()
        if (t.is_record() or t.is_array()) and \
                record_of(t) is not None and \
                record_of(t).name == record.name:
            problems.append(f"global variable/array {g.name!r} of the type")
    for fn in program.functions():
        if references_record(fn, record.name):
            problems.append(f"function {fn.name!r} signature uses the type")
        for s in ast.walk_stmts(fn.body):
            if isinstance(s, ast.DeclStmt):
                rec = record_of(s.decl_type)
                if rec is not None and rec.name == record.name:
                    # any local variable OR pointer of the type breaks
                    # the single-pointer discipline: accesses through it
                    # could not be retargeted to a piece
                    problems.append(
                        f"local {s.name!r} of the type in {fn.name}")

    # usage discipline of the pointer itself
    for fn in program.functions():
        for use in _pointer_uses(fn, pointer, record):
            problems.append(f"{fn.name}: {use}")
    return problems


def _pointer_uses(fn: ast.FunctionDef, pointer: str,
                  record: RecordType) -> list[str]:
    """Describe every disallowed use of the global pointer, in one walk
    over the function's expressions."""
    allowed: set[int] = set()
    uses: list[ast.Ident] = []
    for e in ast.function_exprs(fn):
        if _is_ptr_ident(e, pointer):
            uses.append(e)
        elif isinstance(e, ast.Member) and e.record is not None \
                and e.record.name == record.name:
            _allow_bases(e.base, pointer, allowed)
        elif isinstance(e, ast.Assign) and e.op == "=" \
                and _is_ptr_ident(e.target, pointer):
            if is_alloc_cast(e.value, record):
                allowed.add(id(e.target))
            # else: reported below as a stray use of the pointer
        elif isinstance(e, ast.Call) and e.callee_name == "free" \
                and len(e.args) == 1 and _is_ptr_ident(e.args[0], pointer):
            allowed.add(id(e.args[0]))
        # a sizeof of the type is tolerated only inside recognized
        # allocation sites
    return [f"pointer {pointer!r} used outside field access/"
            f"alloc/free (line {e.line})"
            for e in uses if id(e) not in allowed]


def _is_ptr_ident(e: ast.Expr, pointer: str) -> bool:
    return isinstance(e, ast.Ident) and e.name == pointer and \
        e.symbol is not None and e.symbol.kind == "global"


def _allow_bases(e: ast.Expr, pointer: str, allowed: set[int]) -> None:
    """Mark the pointer idents reachable as member-access bases."""
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, (ast.Member, ast.Index)):
            stack.append(e.base)
        elif isinstance(e, ast.Unary) and e.op == "*":
            stack.append(e.operand)
        elif isinstance(e, ast.Binary) and e.op in ("+", "-"):
            stack.append(e.left)
            stack.append(e.right)
        elif _is_ptr_ident(e, pointer):
            allowed.add(id(e))


class _PeelTransformer(Transformer):
    def __init__(self, program: Program, spec: PeelSpec):
        self.program = program
        self.spec = spec
        self.rec = spec.record
        self.pieces = spec.build_records()
        self.dead = set(spec.dead_fields)
        self._ptr_sym = program.global_symbol(spec.pointer)
        if self._ptr_sym is None:
            raise TransformError(f"no global pointer {spec.pointer!r}")

    # -- declarations ------------------------------------------------------

    def rewrite_decl(self, d):
        if isinstance(d, ast.StructDecl) and \
                d.record.name == self.rec.name:
            return [ast.StructDecl(line=d.line, record=piece)
                    for piece in self.pieces]
        if isinstance(d, ast.GlobalVar) and d.name == self.spec.pointer:
            if d.init is not None:
                raise TransformError(
                    "peeled pointer must not have an initializer")
            return [ast.GlobalVar(line=d.line,
                                  name=self.spec.pointer_name(k),
                                  decl_type=PointerType(piece))
                    for k, piece in enumerate(self.pieces)]
        return None

    # -- statements: allocation and free sites ------------------------------

    def rewrite_stmt_node(self, s):
        if not isinstance(s, ast.ExprStmt):
            return None
        if self.dead:
            replaced = remove_dead_store(s, self.rec, self.dead, self.expr)
            if replaced is not None:
                return replaced
        e = s.expr
        # P = (T*) malloc(n * sizeof(T));  =>  one allocation per piece
        if isinstance(e, ast.Assign) and e.op == "=" and \
                self._is_pointer_ident(e.target) and \
                is_alloc_cast(e.value, self.rec):
            return self._rewrite_alloc(s, e)
        # free(P);  =>  one free per piece
        if isinstance(e, ast.Call) and e.callee_name == "free" and \
                len(e.args) == 1 and self._is_pointer_ident(e.args[0]):
            line = s.line
            return [ast.ExprStmt(line=line, expr=ast.Call(
                line=line, func=ast.Ident(line=line, name="free"),
                args=[ast.Ident(line=line,
                                name=self.spec.pointer_name(k))]))
                for k in range(len(self.pieces))]
        return None

    def _rewrite_alloc(self, s: ast.ExprStmt,
                       e: ast.Assign) -> list[ast.Stmt]:
        call = e.value.operand
        if call.callee_name == "realloc":
            raise TransformError(
                f"cannot peel realloc'ed type {self.rec.name}")
        count = extract_alloc_count(call, self.rec)
        if count is None:
            raise TransformError(
                f"unanalyzable allocation of {self.rec.name} at line "
                f"{s.line}")
        line = s.line
        stmts: list[ast.Stmt] = []
        count_expr: ast.Expr
        if has_side_effects(count):
            stmts.append(ast.DeclStmt(
                line=line, name="__peel_n", decl_type=LONG,
                init=self.expr(count)))
            count_expr = ast.Ident(line=line, name="__peel_n")
        else:
            count_expr = self.expr(count)
        for k, piece in enumerate(self.pieces):
            ptr_t = PointerType(piece)
            stmts.append(ast.ExprStmt(line=line, expr=ast.Assign(
                line=line, op="=",
                target=ast.Ident(line=line,
                                 name=self.spec.pointer_name(k)),
                value=ast.Cast(line=line, to=ptr_t, operand=ast.Call(
                    line=line, func=ast.Ident(line=line, name="malloc"),
                    args=[ast.Binary(
                        line=line, op="*", left=count_expr,
                        right=ast.SizeofType(line=line, of=piece))])))))
        if len(stmts) > 1 or stmts:
            return [ast.Block(line=line, stmts=stmts)]
        return stmts

    # -- expressions: field accesses -----------------------------------------

    def rewrite_expr_node(self, e):
        if isinstance(e, ast.Member) and e.record is not None \
                and e.record.name == self.rec.name:
            if e.name in self.dead:
                raise TransformError(
                    f"read of dead field {self.rec.name}.{e.name}")
            k = self.spec.group_of(e.name)
            new_base = _RebasePointer(self, self.spec.pointer,
                                      self.spec.pointer_name(k),
                                      self.rec,
                                      self.pieces[k]).expr(e.base)
            return ast.Member(line=e.line, base=new_base, name=e.name,
                              arrow=e.arrow)
        return None

    def _is_pointer_ident(self, e: ast.Expr) -> bool:
        return isinstance(e, ast.Ident) and e.name == self.spec.pointer \
            and e.symbol is self._ptr_sym


class _RebasePointer(Transformer):
    """Rewrites a member-access base: the peeled pointer is renamed to
    the piece's pointer and ``sizeof`` of the old record (pointer
    stepping) is retargeted to the piece."""

    def __init__(self, outer: _PeelTransformer, old: str, new: str,
                 old_rec: RecordType, piece: RecordType):
        self.outer = outer
        self.old = old
        self.new = new
        self.old_rec = old_rec
        self.piece = piece

    def rewrite_expr_node(self, e):
        if isinstance(e, ast.Ident) and e.name == self.old and \
                e.symbol is not None and e.symbol.kind == "global":
            return ast.Ident(line=e.line, name=self.new)
        if isinstance(e, ast.SizeofType):
            t = e.of.strip()
            if t.is_record() and t.name == self.old_rec.name:
                return ast.SizeofType(line=e.line, of=self.piece)
        # nested member accesses of the peeled record inside the base
        # (e.g. P[P[i].idx].f) delegate back to the outer transformer
        if isinstance(e, ast.Member) and e.record is not None and \
                e.record.name == self.old_rec.name:
            return self.outer.rewrite_expr_node(e)
        return None


def peel_structure(program: Program, spec: PeelSpec,
                   verify: bool = True) -> Program:
    """Apply structure peeling and return the re-typed program."""
    if verify:
        problems = check_peelable(program, spec.record, spec.pointer)
        if problems:
            raise TransformError(
                f"{spec.record.name} is not peelable: " +
                "; ".join(problems))
    tr = _PeelTransformer(program, spec)
    units = tr.program_units(program)
    # the peeled type ceases to exist; its pieces replace it
    records = {k: v for k, v in program.records.items()
               if k != spec.record.name}
    for piece in tr.pieces:
        records[piece.name] = piece
    return retype(units, records)
