"""Field reference analysis: read/write counts, unused and dead fields.

The paper distinguishes *unused* fields (no references at all — removing
them only needs the parent type modified) from *dead* fields (stores but
no loads — the dead stores must be removed too).  Because transformable
types are guaranteed to have no aliases to individual fields (the ATKN
test), a simple reference scan is sufficient, which is exactly the
argument §2.1 makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast
from ..frontend.program import Program
from ..frontend.typesys import RecordType


@dataclass
class FieldRefs:
    """Static reference counts for one field (occurrence counts, not
    execution counts — the weighted counts live in repro.profit)."""

    reads: int = 0
    writes: int = 0

    @property
    def referenced(self) -> bool:
        return self.reads > 0 or self.writes > 0

    @property
    def is_dead(self) -> bool:
        """Written but never read."""
        return self.writes > 0 and self.reads == 0


@dataclass
class FieldUsage:
    """Per-type field reference summary."""

    record: RecordType
    refs: dict[str, FieldRefs] = field(default_factory=dict)

    def of(self, name: str) -> FieldRefs:
        r = self.refs.get(name)
        if r is None:
            r = self.refs[name] = FieldRefs()
        return r

    def unused_fields(self) -> list[str]:
        """Fields with no references at all."""
        return [f.name for f in self.record.fields
                if not self.of(f.name).referenced]

    def dead_fields(self) -> list[str]:
        """Fields with stores but no loads."""
        return [f.name for f in self.record.fields
                if self.of(f.name).is_dead]

    def removable_fields(self) -> list[str]:
        """Unused + dead: everything dead-field removal may drop."""
        return [f.name for f in self.record.fields
                if not self.of(f.name).reads]

    def live_fields(self) -> list[str]:
        return [f.name for f in self.record.fields
                if self.of(f.name).reads > 0]


@dataclass
class UsageResult:
    types: dict[str, FieldUsage] = field(default_factory=dict)

    def usage(self, type_name: str) -> FieldUsage:
        return self.types[type_name]


@dataclass
class UnitUsage:
    """Per-TU field-reference summary — plain data, picklable, keyed by
    ``(record name, field name)`` so the IPA merge can sum counts across
    units without any AST objects."""

    unit: str = ""
    #: (record name, field name) -> [reads, writes]
    counts: dict[tuple[str, str], list[int]] = field(default_factory=dict)
    #: fault containment marker: merge treats every field as referenced
    demote_all: bool = False


def summarize_unit_usage(unit: ast.TranslationUnit) -> UnitUsage:
    """Count static reads/writes of struct fields inside one TU."""
    summary = UnitUsage(unit=unit.name)
    counts = summary.counts
    for fn in unit.functions():
        for s in ast.walk_stmts(fn.body):
            for e in ast.stmt_exprs(s):
                _scan_usage(e, counts)
    for g in unit.globals():
        if g.init is not None:
            _scan_usage(g.init, counts)
    return summary


def _note_usage(member: ast.Member, counts: dict, reads: int,
                writes: int) -> None:
    if member.record is None:
        return
    key = (member.record.name, member.name)
    c = counts.get(key)
    if c is None:
        c = counts[key] = [0, 0]
    c[0] += reads
    c[1] += writes


def _scan_usage(e: ast.Expr, counts: dict, as_read: bool = True) -> None:
    # module level, not a closure: a nested recursive function is a
    # function <-> cell cycle that only the cyclic collector frees
    if isinstance(e, ast.Assign):
        target = e.target
        if isinstance(target, ast.Member):
            if e.op == "=":
                _note_usage(target, counts, 0, 1)
            else:
                # compound: read-modify-write
                _note_usage(target, counts, 1, 1)
            _scan_usage(target.base, counts)
        else:
            _scan_usage(target, counts, as_read=False)
        _scan_usage(e.value, counts)
        return
    if isinstance(e, ast.Unary) and e.op in ("++", "--", "p++", "p--"):
        if isinstance(e.operand, ast.Member):
            _note_usage(e.operand, counts, 1, 1)
            _scan_usage(e.operand.base, counts)
        else:
            _scan_usage(e.operand, counts)
        return
    if isinstance(e, ast.Unary) and e.op == "&":
        # &s->f is neither a read nor a write of f itself
        if isinstance(e.operand, ast.Member):
            _scan_usage(e.operand.base, counts)
        else:
            _scan_usage(e.operand, counts)
        return
    if isinstance(e, ast.Member):
        if as_read:
            _note_usage(e, counts, 1, 0)
        _scan_usage(e.base, counts)
        return
    for child in ast.child_exprs(e):
        _scan_usage(child, counts)


def fallback_unit_usage(unit_name: str) -> UnitUsage:
    """Conservative summary for a contained per-unit scan."""
    return UnitUsage(unit=unit_name, demote_all=True)


def merge_unit_usage(program: Program,
                     summaries: list[UnitUsage]) -> UsageResult:
    """Sum per-TU reference counts into the whole-program result."""
    result = UsageResult()
    for rec in program.record_types():
        if rec.fields:
            result.types[rec.name] = FieldUsage(rec)
    for s in summaries:
        if s.demote_all:
            # claim a read+write of every field: nothing looks dead
            for u in result.types.values():
                for f in u.record.fields:
                    r = u.of(f.name)
                    r.reads += 1
                    r.writes += 1
            continue
        for (rec_name, fname), (reads, writes) in s.counts.items():
            u = result.types.get(rec_name)
            if u is None:
                continue
            r = u.of(fname)
            r.reads += reads
            r.writes += writes
    return result


def analyze_field_usage(program: Program) -> UsageResult:
    """Count static reads/writes of every struct field in the program."""
    return merge_unit_usage(
        program, [summarize_unit_usage(u) for u in program.units])
