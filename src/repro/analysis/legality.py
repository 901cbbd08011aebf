"""FE legality and property analysis (§2.2 of the paper).

A single pass over each function's typed AST applies the paper's eight
practical legality tests and collects the attributes the heuristics
consult later:

- **CSTT** — a cast *to* (a pointer to) the record type, except casts of
  allocator return values (``(T*) malloc(...)``) and null constants;
- **CSTF** — a cast *from* (a pointer to) the record type;
- **ATKN** — the address of a field is taken, except directly in a call
  argument position (the paper assumes the callee will not reach other
  fields through it);
- **LIBC** — the type escapes to a standard-library function;
- **IND**  — the type escapes to an indirect call;
- **SMAL** — some allocation site allocates fewer than ``A`` elements;
- **MSET** — the type is used in a memory-streaming op (memset/memcpy);
- **NEST** — the type is nested in another record type (both the nested
  type and its container are marked, an implementation limitation the
  paper also had).

The same pass records, per type: global/local variables and pointers,
static arrays, allocation/free/realloc sites, and the ``<type,
function>`` escape tuples consumed by the IPA escape analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast
from ..frontend.program import Program
from ..frontend.sema import ALLOC_FUNCTIONS, MEMSTREAM_FUNCTIONS
from ..frontend.typesys import RecordType, Type

#: the paper's legality-violation codes
ALL_REASONS = ("CSTT", "CSTF", "ATKN", "LIBC", "IND", "SMAL", "MSET", "NEST")
#: the three tests a field-sensitive points-to analysis could sharpen;
#: Table 1's "Relax" column tolerates exactly these
RELAXABLE_REASONS = frozenset({"CSTT", "CSTF", "ATKN"})

#: SMAL threshold A: allocations of fewer elements mark the type
SMAL_THRESHOLD = 2


@dataclass(eq=False)
class AllocSite:
    """One dynamic allocation of a record type.

    Carries only plain data (plus the owning record) so per-TU legality
    summaries can be pickled as §2-style summary files;
    ``count_expr_ok`` preserves the one fact the heuristics needed the
    call AST for — whether the allocation's size expression is
    analyzable by the rewriters (:func:`extract_alloc_count`).
    """

    record: RecordType
    function: str
    line: int
    #: statically-known element count, or None when dynamic
    count: int | None = None
    kind: str = "malloc"       # malloc / calloc / realloc
    #: the rewriters can extract this site's element-count expression
    count_expr_ok: bool = True

    def __repr__(self) -> str:
        n = self.count if self.count is not None else "?"
        return f"<alloc {self.record.name}[{n}] in {self.function}:" \
               f"{self.line}>"


@dataclass(eq=False)
class TypeInfo:
    """Everything the FE learned about one record type."""

    record: RecordType
    invalid_reasons: set[str] = field(default_factory=set)
    #: <type, function> escape tuples (callee names)
    escapes_to: set[str] = field(default_factory=set)
    alloc_sites: list[AllocSite] = field(default_factory=list)
    has_global_var: bool = False
    has_local_var: bool = False
    has_global_ptr: bool = False
    has_local_ptr: bool = False
    has_static_array: bool = False
    freed: bool = False
    realloced: bool = False
    address_taken_fields: set[str] = field(default_factory=set)
    #: global pointer symbols of type T* (peeling candidates)
    global_ptr_symbols: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def allocated(self) -> bool:
        return bool(self.alloc_sites)

    def is_legal(self, relaxed: bool = False) -> bool:
        reasons = self.invalid_reasons
        if relaxed:
            reasons = reasons - RELAXABLE_REASONS
        return not reasons

    def attributes(self) -> list[str]:
        """Short attribute codes, advisor-report style (LPTR, GPTR, ...)."""
        out = []
        if self.has_local_ptr:
            out.append("LPTR")
        if self.has_global_ptr:
            out.append("GPTR")
        if self.has_local_var:
            out.append("LVAR")
        if self.has_global_var:
            out.append("GVAR")
        if self.has_static_array:
            out.append("SARR")
        if self.allocated:
            out.append("DYN")
        if self.freed:
            out.append("FREE")
        if self.realloced:
            out.append("REAL")
        return out

    def __repr__(self) -> str:
        bad = ",".join(sorted(self.invalid_reasons)) or "OK"
        return f"<TypeInfo {self.name}: {bad}>"


@dataclass
class LegalityResult:
    """Aggregated legality analysis for a whole program."""

    program: Program
    types: dict[str, TypeInfo] = field(default_factory=dict)

    def info(self, name: str) -> TypeInfo:
        return self.types[name]

    def legal_types(self, relaxed: bool = False) -> list[TypeInfo]:
        return [t for t in self.types.values() if t.is_legal(relaxed)]

    def counts(self) -> tuple[int, int, int]:
        """(total types, legal, legal-under-relaxation) — one Table 1 row."""
        total = len(self.types)
        legal = len(self.legal_types(relaxed=False))
        relaxed = len(self.legal_types(relaxed=True))
        return total, legal, relaxed


def record_of(t: Type) -> RecordType | None:
    """The record type behind ``t`` (through typedefs and pointers)."""
    t = t.strip()
    while t.is_pointer():
        t = t.pointee.strip()
    while t.is_array():
        t = t.elem.strip()
    return t if t.is_record() else None


def direct_record_of(t: Type) -> RecordType | None:
    """The record type behind one level of pointer/typedef (no arrays)."""
    t = t.strip()
    if t.is_pointer():
        t = t.pointee.strip()
    return t if t.is_record() else None


@dataclass
class UnitAllocSite:
    """Plain-data allocation site inside one TU summary."""

    record: str
    function: str
    line: int
    count: int | None
    kind: str
    count_expr_ok: bool


@dataclass
class UnitLegality:
    """The per-TU legality summary — the repo's IELF summary record.

    Everything in here is plain data keyed by record-type *name*, so a
    summary can be pickled to the on-disk summary cache and merged into
    a :class:`LegalityResult` against any structurally-identical
    program.  Facts that need whole-program knowledge (LIBC-vs-escape
    classification, global scans, type nesting, SMAL) are either
    deferred to the merge (``callee_args``) or recomputed there from
    the program itself (globals, nesting — both cheap).
    """

    unit: str = ""
    #: record name -> locally-decided violation reasons
    reasons: dict[str, set[str]] = field(default_factory=dict)
    #: (record name, callee name) pairs whose LIBC/escape status the
    #: merge decides once the whole-program symbol table exists
    callee_args: list[tuple[str, str]] = field(default_factory=list)
    alloc_sites: list[UnitAllocSite] = field(default_factory=list)
    freed: set[str] = field(default_factory=set)
    realloced: set[str] = field(default_factory=set)
    address_taken: dict[str, set[str]] = field(default_factory=dict)
    local_ptr: set[str] = field(default_factory=set)
    local_var: set[str] = field(default_factory=set)
    static_array: set[str] = field(default_factory=set)
    #: fault containment marker: merge demotes every type (FAULT)
    demote_all: bool = False

    def add_reason(self, rec_name: str, reason: str) -> None:
        self.reasons.setdefault(rec_name, set()).add(reason)


class _UnitScanner:
    """Scans one translation unit into a :class:`UnitLegality`."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.summary = UnitLegality(unit=unit.name)
        self._callee_args: set[tuple[str, str]] = set()

    @staticmethod
    def _eligible(rec: RecordType | None) -> bool:
        # mirror LegalityResult membership: defined types only
        return rec is not None and bool(rec.fields)

    def invalidate(self, rec: RecordType | None, reason: str) -> None:
        if self._eligible(rec):
            self.summary.add_reason(rec.name, reason)

    # -- driver -------------------------------------------------------------

    def run(self) -> UnitLegality:
        for fn in self.unit.functions():
            self._scan_function(fn)
        # deterministic order for byte-identical pickled summaries
        self.summary.callee_args = sorted(self._callee_args)
        return self.summary

    # -- function scan ------------------------------------------------------

    def _scan_function(self, fn: ast.FunctionDef) -> None:
        for p in fn.params:
            self._note_var(p.type, is_local=True)
        for s in ast.walk_stmts(fn.body):
            if isinstance(s, ast.DeclStmt):
                self._note_var(s.decl_type, is_local=True)
            for e in ast.stmt_exprs(s):
                self._scan_expr(e, fn, in_call_arg=False)

    def _note_var(self, t: Type, is_local: bool) -> None:
        t = t.strip()
        rec = record_of(t)
        if not self._eligible(rec):
            return
        if t.is_pointer():
            if is_local:
                self.summary.local_ptr.add(rec.name)
        elif t.is_array():
            self.summary.static_array.add(rec.name)
        elif t.is_record():
            if is_local:
                self.summary.local_var.add(rec.name)

    # -- expression scan ----------------------------------------------------

    def _scan_expr(self, e: ast.Expr, fn: ast.FunctionDef,
                   in_call_arg: bool) -> None:
        if isinstance(e, ast.Cast):
            self._scan_cast(e, fn)
            self._scan_expr(e.operand, fn, in_call_arg=False)
            return
        if isinstance(e, ast.Unary) and e.op == "&":
            if isinstance(e.operand, ast.Member):
                if not in_call_arg and self._eligible(e.operand.record):
                    rec_name = e.operand.record.name
                    self.summary.add_reason(rec_name, "ATKN")
                    self.summary.address_taken.setdefault(
                        rec_name, set()).add(e.operand.name)
            self._scan_expr(e.operand, fn, in_call_arg=False)
            return
        if isinstance(e, ast.Call):
            self._scan_call(e, fn)
            return
        for child in ast.child_exprs(e):
            self._scan_expr(child, fn, in_call_arg=False)

    def _scan_cast(self, e: ast.Cast, fn: ast.FunctionDef) -> None:
        to_rec = direct_record_of(e.to)
        from_rec = direct_record_of(e.operand.type) \
            if e.operand.type is not None else None
        if to_rec is not None and to_rec is not from_rec:
            if not self._tolerated_cast_source(e.operand):
                self.invalidate(to_rec, "CSTT")
        if from_rec is not None and from_rec is not to_rec:
            self.invalidate(from_rec, "CSTF")
        # allocation-site detection: (T*) malloc(...) and friends
        if to_rec is not None and isinstance(e.operand, ast.Call):
            callee = e.operand.callee_name
            if callee in ALLOC_FUNCTIONS:
                self._record_alloc(to_rec, e.operand, fn, callee)

    def _tolerated_cast_source(self, operand: ast.Expr) -> bool:
        """Casts of allocator results and null constants are tolerated —
        the paper keeps a list of allocator return values for this."""
        if isinstance(operand, ast.Call) and \
                operand.callee_name in ALLOC_FUNCTIONS:
            return True
        if isinstance(operand, (ast.NullLit,)):
            return True
        if isinstance(operand, ast.IntLit) and operand.value == 0:
            return True
        return False

    def _record_alloc(self, rec: RecordType, call: ast.Call,
                      fn: ast.FunctionDef, kind: str) -> None:
        if not self._eligible(rec):
            return
        from ..transform.common import extract_alloc_count
        count = _alloc_count(call, rec)
        self.summary.alloc_sites.append(UnitAllocSite(
            record=rec.name, function=fn.name, line=call.line,
            count=count, kind=kind,
            count_expr_ok=extract_alloc_count(call, rec) is not None))
        if kind == "realloc":
            self.summary.realloced.add(rec.name)

    def _scan_call(self, e: ast.Call, fn: ast.FunctionDef) -> None:
        callee = e.resolved_callee
        self._scan_expr(e.func, fn, in_call_arg=False)
        is_indirect = callee is None

        for arg in e.args:
            self._scan_expr(arg, fn, in_call_arg=True)
            rec = record_of(arg.type) if arg.type is not None else None
            if not self._eligible(rec):
                continue
            if is_indirect:
                self.invalidate(rec, "IND")
            elif callee == "free":
                self.summary.freed.add(rec.name)
            elif callee in ALLOC_FUNCTIONS:
                if callee == "realloc":
                    self.summary.realloced.add(rec.name)
            elif callee in MEMSTREAM_FUNCTIONS:
                self.invalidate(rec, "MSET")
            else:
                # named, non-allocator callee: whether this is a LIBC
                # violation or a <type, function> escape tuple depends
                # on the whole-program symbol table — defer to merge
                self._callee_args.add((rec.name, callee))


def summarize_unit_legality(unit: ast.TranslationUnit) -> UnitLegality:
    """The per-TU half of the legality analysis (pure in the unit)."""
    return _UnitScanner(unit).run()


def fallback_unit_legality(unit_name: str) -> UnitLegality:
    """Conservative summary for a unit whose scan was contained: the
    merge demotes every type (the unit could have mentioned any)."""
    return UnitLegality(unit=unit_name, demote_all=True)


def merge_unit_legality(program: Program,
                        summaries: list[UnitLegality]) -> LegalityResult:
    """IPA half: combine per-TU summaries into a whole-program result.

    Deterministic by construction — summaries are merged in unit order
    and every whole-program scan iterates the program's own ordered
    tables, so the result is independent of how (or where) the per-TU
    halves were computed.
    """
    result = LegalityResult(program=program)
    types = result.types
    for rec in program.record_types():
        if rec.fields:   # ignore empty forward declarations
            types[rec.name] = TypeInfo(rec)

    # structural whole-program scans (cheap; need the full type table)
    for info in types.values():
        for inner in info.record.nested_records():
            inner_info = types.get(inner.name) if inner is not None \
                else None
            if inner_info is not None:
                inner_info.invalid_reasons.add("NEST")
            info.invalid_reasons.add("NEST")
    for g in program.globals():
        t = g.decl_type.strip()
        rec = record_of(t)
        info = types.get(rec.name) if rec is not None else None
        if info is None:
            continue
        if t.is_pointer():
            info.has_global_ptr = True
            if direct_record_of(t) is rec:
                info.global_ptr_symbols.append(g.symbol)
        elif t.is_array():
            info.has_static_array = True
        elif t.is_record():
            info.has_global_var = True

    # whole-program callee classification context
    defined = {fn.name for fn in program.functions()}

    for s in summaries:
        if s.demote_all:
            for info in types.values():
                info.invalid_reasons.add("FAULT")
            continue
        for name, reasons in s.reasons.items():
            info = types.get(name)
            if info is not None:
                info.invalid_reasons |= reasons
        for site in s.alloc_sites:
            info = types.get(site.record)
            if info is None:
                continue
            info.alloc_sites.append(AllocSite(
                record=info.record, function=site.function,
                line=site.line, count=site.count, kind=site.kind,
                count_expr_ok=site.count_expr_ok))
        for name in s.freed:
            info = types.get(name)
            if info is not None:
                info.freed = True
        for name in s.realloced:
            info = types.get(name)
            if info is not None:
                info.realloced = True
        for name, fields in s.address_taken.items():
            info = types.get(name)
            if info is not None:
                info.address_taken_fields |= fields
        for name in s.local_ptr:
            info = types.get(name)
            if info is not None:
                info.has_local_ptr = True
        for name in s.local_var:
            info = types.get(name)
            if info is not None:
                info.has_local_var = True
        for name in s.static_array:
            info = types.get(name)
            if info is not None:
                info.has_static_array = True
        for name, callee in s.callee_args:
            info = types.get(name)
            if info is None:
                continue
            sym = program.function_symbol(callee)
            is_libc = sym is not None \
                and getattr(sym, "is_libc", False) \
                and callee not in defined
            if is_libc:
                info.invalid_reasons.add("LIBC")
            else:
                # the IPA escape analysis decides whether the callee is
                # inside the compilation scope (see analysis.escape)
                info.escapes_to.add(callee)

    # SMAL needs the merged site list
    for info in types.values():
        for site in info.alloc_sites:
            if site.count is not None and site.count < SMAL_THRESHOLD:
                info.invalid_reasons.add("SMAL")
                break
    return result


class LegalityAnalyzer:
    """Whole-program driver, kept for API compatibility: summarizes
    each unit and merges — the same halves the parallel pipeline and
    the summary cache use separately."""

    def __init__(self, program: Program):
        self.program = program

    def run(self) -> LegalityResult:
        summaries = [summarize_unit_legality(u)
                     for u in self.program.units]
        return merge_unit_legality(self.program, summaries)


def _alloc_count(call: ast.Call, rec: RecordType) -> int | None:
    """Statically-known element count of an allocation, or None.

    Recognizes ``malloc(sizeof(T))``, ``malloc(N * sizeof(T))``,
    ``malloc(sizeof(T) * N)``, ``calloc(N, sizeof(T))`` with literal N.
    """
    name = call.callee_name
    if name == "calloc" and len(call.args) == 2:
        n = _literal_int(call.args[0])
        return n
    if name in ("malloc", "realloc"):
        size_arg = call.args[-1]
        if _is_sizeof(size_arg, rec):
            return 1
        if isinstance(size_arg, ast.Binary) and size_arg.op == "*":
            left, right = size_arg.left, size_arg.right
            if _is_sizeof(right, rec):
                return _literal_int(left)
            if _is_sizeof(left, rec):
                return _literal_int(right)
    return None


def _is_sizeof(e: ast.Expr, rec: RecordType) -> bool:
    if isinstance(e, ast.SizeofType):
        t = e.of.strip()
        return t.is_record() and t.name == rec.name
    return False


def _literal_int(e: ast.Expr) -> int | None:
    if isinstance(e, ast.IntLit):
        return e.value
    return None


def analyze_legality(program: Program) -> LegalityResult:
    """Run the FE legality/property analysis over a whole program."""
    return LegalityAnalyzer(program).run()
