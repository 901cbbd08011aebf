"""Parallel front end: per-TU parsing fanned out over a process pool.

§2 of the paper stresses that SYZYGY's FE is "run in parallel for
different source files" while IPA is the monolithic step.  This module
reproduces that structure for the MiniC frontend; the compiler
(:mod:`repro.core.pipeline`) is its only caller:

1. **Pre-scan** every source for typedef *names* (a tiny regex pass),
   because C's grammar needs to know which identifiers are type names
   before it can parse a unit that uses a typedef from an earlier unit
   (:func:`plan_parses`).
2. **Parse each TU in isolation** — its own token stream, its own
   struct-tag and typedef tables.  The ``fe.parse`` step submits
   every unit's parse to the shared process pool when ``jobs > 1``
   and gathers the results in unit order, optionally backed by the
   content-addressed parse cache (:func:`parse_cached`).
3. **Unify** the per-unit type tables into whole-program canonical
   records and typedefs (the IPA "summary aggregation" for types),
   rewriting every AST type slot to the canonical objects and re-laying
   out records whose parse-time layout used placeholder sizes.
4. **Finalize** with the ordinary shared semantic analysis, in unit
   order, exactly like the serial front end (:func:`finish_assembly`,
   the ``fe.assemble`` step).

Determinism: workers are pure functions of ``(unit name, source,
typedef seed)``, and the unify step iterates units in submission
order — so the assembled program is byte-for-byte independent of
``--jobs`` and of worker completion order.

Safety: the serial front end (:meth:`Program.from_sources`) stays the
reference semantics.  Any situation where isolated parsing could
diverge from the shared-table parse — a unit referencing a struct tag
defined only in a *later* unit, a typedef defined twice, a pre-scan
mismatch, any parse error, any worker crash — raises :class:`UnifyError`
internally and falls back to the serial front end, which reproduces
legacy behaviour (including its diagnostics) exactly.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from ..frontend import ast
from ..frontend.lexer import LexError, tokenize
from ..frontend.parser import Parser
from ..frontend.program import FrontendError, Program
from ..frontend.sema import SemaError, SemanticAnalyzer
from ..frontend.typesys import (
    INT, ArrayType, FunctionType, NamedType, PointerType, RecordType,
)
from .dag import effective_cores, process_pool, shutdown_process_pool
from .summarycache import SummaryCache


class UnifyError(Exception):
    """Isolated parses cannot be soundly merged; use the serial FE."""


@dataclass
class ParsedUnit:
    """One worker's result: the unit plus its private type tables.

    The AST, ``struct_tags`` and ``typedefs`` are pickled together (one
    payload) so the object identities that tie them together survive
    the trip through the pool and the parse cache.
    """

    name: str
    unit: ast.TranslationUnit | None = None
    struct_tags: dict[str, RecordType] = field(default_factory=dict)
    typedefs: dict[str, NamedType] = field(default_factory=dict)
    #: recovered (line, message, kind) triples; non-empty → serial fallback
    errors: list[tuple[int, str, str]] = field(default_factory=list)
    elapsed: float = 0.0
    budget_exceeded: bool = False
    #: exception repr when the worker itself failed; → serial fallback
    crashed: str | None = None


@dataclass
class FEReport:
    """How the front end actually ran (for diagnostics and tests)."""

    mode: str = "unified"          # unified | legacy
    jobs: int = 1
    fallback_reason: str | None = None
    #: units whose parse exceeded its wall-clock budget share
    budget_overruns: list[str] = field(default_factory=list)
    unit_elapsed: dict[str, float] = field(default_factory=dict)
    parse_cache_hits: int = 0


# ---------------------------------------------------------------------------
# Typedef name pre-scan
# ---------------------------------------------------------------------------

_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
_STRING_RE = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'')
#: a typedef declaration: everything up to the ';', allowing one level
#: of braces (typedef struct { ... } name;)
_TYPEDEF_RE = re.compile(r"\btypedef\b((?:[^;{}]|\{[^{}]*\})*);")
_FUNCPTR_NAME_RE = re.compile(r"\(\s*\*\s*([A-Za-z_]\w*)")
_ID_RE = re.compile(r"[A-Za-z_]\w*")


def prescan_typedef_names(source: str) -> list[str]:
    """Typedef names declared in ``source``, by regex (no parsing).

    The result seeds *later* units' parsers so identifiers naming
    types from earlier units lex as type names.  Exactness is verified
    after the real parse (:func:`unify_units`); any disagreement falls
    back to the serial front end, so over- or under-matching here can
    cost speed but never correctness.
    """
    text = _COMMENT_RE.sub(" ", source)
    text = _STRING_RE.sub('""', text)
    names: list[str] = []
    for m in _TYPEDEF_RE.finditer(text):
        decl = m.group(1)
        fp = _FUNCPTR_NAME_RE.search(decl)
        if fp:
            names.append(fp.group(1))
            continue
        decl = re.sub(r"\{[^{}]*\}", " ", decl)     # struct bodies
        decl = re.sub(r"\[[^\]]*\]", " ", decl)     # array suffixes
        ids = _ID_RE.findall(decl)
        if ids:
            names.append(ids[-1])
    return names


# ---------------------------------------------------------------------------
# The per-TU parse task (runs in pool workers; must stay module-level)
# ---------------------------------------------------------------------------

def parse_unit_task(task: tuple) -> ParsedUnit:
    """Parse one TU in isolation.  ``task`` is
    ``(name, source, seed_names, budget_seconds | None)``.

    Seeded typedef names map to placeholder :class:`NamedType` objects
    (aliased to ``int``); the unify step replaces every placeholder
    with the defining unit's canonical typedef, and re-layout fixes any
    record whose parse-time layout used a placeholder size.

    The budget is honored cooperatively: the deadline is checked after
    tokenizing (skipping the parse entirely when already blown) and the
    total is reported so the driver can surface overruns as
    ``CODE_BUDGET`` diagnostics.
    """
    name, text, seed_names, budget = task
    t0 = time.perf_counter()
    pu = ParsedUnit(name=name)
    try:
        tokens = tokenize(text, name)
    except LexError as err:
        pu.errors.append((err.line, err.message, "lex"))
        pu.elapsed = time.perf_counter() - t0
        return pu
    except Exception as exc:                       # pragma: no cover
        pu.crashed = f"{type(exc).__name__}: {exc}"
        pu.elapsed = time.perf_counter() - t0
        return pu
    if budget is not None and time.perf_counter() - t0 > budget:
        pu.budget_exceeded = True
        pu.elapsed = time.perf_counter() - t0
        return pu
    try:
        parser = Parser(tokens, name, recover=True)
        for n in seed_names:
            parser.typedefs[n] = NamedType(n, INT)
        unit = parser.parse_translation_unit()
        pu.errors.extend((e.line, e.message, "parse")
                         for e in parser.errors)
        pu.unit = unit
        pu.struct_tags = parser.struct_tags
        # drop unused placeholder seeds: entries for names the unit
        # never resolved stay, but they are harmless — unify validates
        # every name against a real definition
        pu.typedefs = parser.typedefs
    except Exception as exc:
        pu.crashed = f"{type(exc).__name__}: {exc}"
    pu.elapsed = time.perf_counter() - t0
    if budget is not None and pu.elapsed > budget:
        pu.budget_exceeded = True
    return pu


# ---------------------------------------------------------------------------
# Type unification (the IPA half of the split FE)
# ---------------------------------------------------------------------------

def _make_canonicalizer(canon_rec: dict[str, RecordType],
                        canon_td: dict[str, NamedType]):
    """A memoized rewriter mapping every type to its canonical form.

    Canonical records and typedefs are the *defining unit's* objects;
    non-canonical duplicates (forward declarations and placeholder
    seeds from other units) are replaced wholesale.  Composite types
    are rebuilt only when a child changed.  The memo is pre-populated
    before recursing into records so cyclic types terminate.
    """
    memo: dict[int, object] = {}

    def canon(t):
        if t is None:
            return None
        got = memo.get(id(t))
        if got is not None:
            return got
        if isinstance(t, RecordType):
            c = canon_rec.get(t.name, t)
            first_visit = id(c) not in memo
            memo[id(t)] = c
            memo[id(c)] = c
            if first_visit:
                for f in c.fields:
                    f.type = canon(f.type)
            return c
        if isinstance(t, NamedType):
            c = canon_td.get(t.name)
            if c is None:
                raise UnifyError(
                    f"typedef {t.name!r} has no defining unit")
            first_visit = id(c) not in memo
            memo[id(t)] = c
            memo[id(c)] = c
            if first_visit:
                # NamedType is frozen; rewrite the canonical object's
                # alias in place so there is exactly one canonical
                # instance even for self-referential chains
                object.__setattr__(c, "aliased", canon(c.aliased))
            return c
        if isinstance(t, PointerType):
            p = canon(t.pointee)
            c = t if p is t.pointee else PointerType(p)
            memo[id(t)] = c
            return c
        if isinstance(t, ArrayType):
            e = canon(t.elem)
            c = t if e is t.elem else ArrayType(e, t.length)
            memo[id(t)] = c
            return c
        if isinstance(t, FunctionType):
            ret = canon(t.ret)
            params = tuple(canon(p) for p in t.params)
            changed = ret is not t.ret or any(
                a is not b for a, b in zip(params, t.params))
            c = FunctionType(ret, params, t.varargs) if changed else t
            memo[id(t)] = c
            return c
        memo[id(t)] = t
        return t

    return canon


def _rewrite_unit(unit: ast.TranslationUnit, canon) -> None:
    """Rewrite every pre-sema type slot in ``unit`` to canonical types."""

    def rewrite_expr(e: ast.Expr) -> None:
        for node in ast.walk_expr(e):
            if isinstance(node, ast.Cast):
                node.to = canon(node.to)
            elif isinstance(node, ast.SizeofType):
                node.of = canon(node.of)

    for d in unit.decls:
        if isinstance(d, ast.TypedefDecl):
            d.aliased = canon(d.aliased)
        elif isinstance(d, ast.StructDecl):
            d.record = canon(d.record)
        elif isinstance(d, ast.GlobalVar):
            d.decl_type = canon(d.decl_type)
            if d.init is not None:
                rewrite_expr(d.init)
        elif isinstance(d, ast.FunctionDef):
            d.ret_type = canon(d.ret_type)
            for p in d.params:
                p.type = canon(p.type)
            if d.body is not None:
                for s in ast.walk_stmts(d.body):
                    if isinstance(s, ast.DeclStmt):
                        s.decl_type = canon(s.decl_type)
                    for e in ast.stmt_exprs(s):
                        rewrite_expr(e)


def unify_units(parsed: list[ParsedUnit],
                prescans: list[list[str]]
                ) -> tuple[dict[str, RecordType], dict[str, NamedType]]:
    """Merge per-unit type tables into canonical whole-program tables.

    Mutates the units' ASTs in place (type slots → canonical objects)
    and re-lays-out every canonical record.  Raises :class:`UnifyError`
    for any shape whose isolated-parse semantics could differ from the
    serial shared-table parse; the caller falls back to the serial FE.
    """
    # -- typedefs: each name defined exactly once, pre-scan exact -------
    canon_td: dict[str, NamedType] = {}
    td_order: list[str] = []
    for pu, scanned in zip(parsed, prescans):
        declared = [d.name for d in pu.unit.decls
                    if isinstance(d, ast.TypedefDecl)]
        if len(set(declared)) != len(declared):
            raise UnifyError(
                f"typedef redefined inside unit {pu.name}")
        if set(declared) != set(scanned):
            # the regex pre-scan disagreed with the parser: seeds given
            # to later units may not match serial-parse visibility
            raise UnifyError(
                f"typedef pre-scan mismatch in unit {pu.name}")
        for n in declared:
            if n in canon_td:
                raise UnifyError(
                    f"typedef {n!r} defined in multiple units")
            canon_td[n] = pu.typedefs[n]
            td_order.append(n)

    # -- struct tags: defined once, never referenced before defined ----
    defined_in: dict[str, int] = {}
    first_ref: dict[str, int] = {}
    ref_order: list[str] = []
    for i, pu in enumerate(parsed):
        for tag, rec in pu.struct_tags.items():
            if tag not in first_ref:
                first_ref[tag] = i
                ref_order.append(tag)
            if rec.fields:
                if tag in defined_in:
                    raise UnifyError(
                        f"struct {tag} defined in multiple units")
                defined_in[tag] = i
    for tag, d in defined_in.items():
        if first_ref[tag] < d:
            # the serial FE would have parsed the earlier reference
            # against an (at the time) empty shared record — isolated
            # parsing cannot reproduce that order sensitivity
            raise UnifyError(
                f"struct {tag} referenced before its defining unit")

    canon_rec: dict[str, RecordType] = {}
    for tag in ref_order:
        i = defined_in.get(tag, first_ref[tag])
        canon_rec[tag] = parsed[i].struct_tags[tag]

    # -- rewrite every AST and the canonical tables themselves ---------
    canon = _make_canonicalizer(canon_rec, canon_td)
    for tag in ref_order:
        canon(canon_rec[tag])
    for n in td_order:
        canon(canon_td[n])
    for pu in parsed:
        _rewrite_unit(pu.unit, canon)

    # -- re-layout: parse-time layouts may have used placeholder or
    #    forward (empty) types for cross-unit members; record sizes are
    #    lazy, so invalidating all and touching each re-layouts embedded
    #    records first automatically
    for rec in canon_rec.values():
        rec._laid_out = False
    for rec in canon_rec.values():
        rec.layout()

    records = {tag: canon_rec[tag] for tag in ref_order}
    typedefs = {n: canon_td[n] for n in td_order}
    return records, typedefs


# ---------------------------------------------------------------------------
# The fe.parse and fe.assemble steps
# ---------------------------------------------------------------------------

def legacy_assembly(sources: list[tuple[str, str]], report: FEReport,
                    reason: str) -> tuple[Program, FEReport]:
    """The serial-FE fallback: parse everything with shared tables (in
    recover mode) and record ``reason`` in ``report``."""
    report.mode = "legacy"
    report.fallback_reason = reason
    return Program.from_sources(sources, recover=True), report


def plan_parses(sources: list[tuple[str, str]],
                unit_budget: float | None = None
                ) -> tuple[list[tuple], list[list[str]]]:
    """``(tasks, prescans)`` for per-TU isolated parsing.

    Each task is the ``(name, source, typedef_seed, budget)`` tuple
    :func:`parse_unit_task` consumes; seeds accumulate the typedef
    names of every *earlier* unit, exactly as the serial parser would
    have seen them.  Raises when the pre-scan fails (callers fall back
    to the legacy FE)."""
    prescans = [prescan_typedef_names(text) for _, text in sources]
    seeds: list[tuple[str, ...]] = []
    seen: list[str] = []
    for names in prescans:
        seeds.append(tuple(seen))
        seen.extend(n for n in names if n not in seen)
    tasks = [(name, text, seeds[i], unit_budget)
             for i, (name, text) in enumerate(sources)]
    return tasks, prescans


def parse_pool_width(jobs: int, n_tasks: int) -> int:
    """Workers worth using for ``n_tasks`` CPU-bound parses.

    Workers beyond the cores this process may run on
    (:func:`~repro.core.dag.effective_cores`, which respects CPU
    affinity) only add serialization overhead, so a 1-core machine
    parses inline (still through the identical isolated-parse + unify
    path)."""
    return min(jobs, n_tasks, effective_cores())


def parse_cached(tasks: list[tuple], cache: SummaryCache | None = None,
                 cache_salt: str = "", jobs: int = 1
                 ) -> list[tuple[ParsedUnit, str | None, bool]]:
    """Parse every TU through the cache: one ``(unit, key, fresh)``
    triple per task, in task order.

    This is the ``fe.parse`` step.  Each unit first probes the
    parse cache for a complete, error-free artifact.  The misses are
    all submitted to the shared process pool before any result is
    awaited, then gathered in unit order; at a pool width of 1
    (:func:`parse_pool_width`) they parse inline.  A pool failure tears
    the broken pool down and the affected units parse inline —
    result-identical, just slower."""
    out: list = [None] * len(tasks)
    misses: list[tuple[int, str | None]] = []
    for i, (name, text, seed, _budget) in enumerate(tasks):
        key = None
        if cache is not None:
            key = cache.key_for("parse", name, text, seed, cache_salt)
            got = cache.load("parse", key)
            if (isinstance(got, ParsedUnit) and got.unit is not None
                    and not got.errors and got.crashed is None):
                got.budget_exceeded = False       # not a property of
                got.elapsed = 0.0                 # the cached artifact
                out[i] = (got, key, False)
                continue
        misses.append((i, key))
    pool = process_pool(parse_pool_width(jobs, len(tasks)))
    pending = []
    for i, key in misses:
        future = None
        if pool is not None:
            try:
                future = pool.submit(parse_unit_task, tasks[i])
            except Exception:
                shutdown_process_pool()
                pool = None
        pending.append((i, key, future))
    for i, key, future in pending:
        pu = None
        if future is not None:
            try:
                pu = future.result()
            except Exception:
                shutdown_process_pool()
        if pu is None:
            pu = parse_unit_task(tasks[i])
        out[i] = (pu, key, True)
    return out


def finish_assembly(sources: list[tuple[str, str]],
                    parsed: list[tuple[ParsedUnit, str | None, bool]],
                    prescans: list[list[str]], report: FEReport,
                    cache: SummaryCache | None = None
                    ) -> tuple[Program, FEReport]:
    """The ``fe.assemble`` step over ``fe.parse``'s ``(unit, key,
    fresh)`` triples, in unit order: record per-unit stats, store
    fresh clean parses, unify the type tables, and run sema — or fall
    back to the serial FE on anything the unified path cannot
    reproduce."""
    report.parse_cache_hits = sum(1 for _, _, fresh in parsed
                                  if not fresh)
    for pu, key, fresh in parsed:
        report.unit_elapsed[pu.name] = pu.elapsed
        if pu.budget_exceeded:
            report.budget_overruns.append(pu.name)
        if pu.crashed is not None:
            return legacy_assembly(
                sources, report,
                f"unit {pu.name} parse crashed: {pu.crashed}")
        if pu.errors:
            return legacy_assembly(
                sources, report, f"unit {pu.name} has frontend errors")
        if pu.unit is None:
            return legacy_assembly(
                sources, report,
                f"unit {pu.name} exceeded its parse budget")
        if cache is not None and key is not None and fresh:
            cache.store("parse", key, pu)

    results = [pu for pu, _, _ in parsed]
    try:
        records, typedefs = unify_units(results, prescans)
    except Exception as exc:
        reason = str(exc) if isinstance(exc, UnifyError) \
            else f"unify failed: {type(exc).__name__}: {exc}"
        return legacy_assembly(sources, report, reason)

    prog = Program()
    prog.records = records
    prog.typedefs = typedefs
    sema = SemanticAnalyzer(prog.symbols)
    for pu in results:
        try:
            sema.analyze(pu.unit)
        except SemaError as err:
            prog.frontend_errors.append(FrontendError(
                unit=pu.name, line=getattr(err, "line", 0),
                message=str(err), kind="sema"))
            continue
        prog.units.append(pu.unit)
    return prog, report
