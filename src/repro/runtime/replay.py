"""Batched trace replay: the layout-search cost oracle's fast path.

Full simulation interprets every MiniC statement; evaluating hundreds
of candidate layouts that way would make the search engine I/O-bound on
the interpreter.  This module splits the work:

1. :func:`capture_trace` runs the program **once** with recording
   memory hooks installed, producing the exact access stream (address,
   site, read/write, int/float) the run performed, with cycle
   accounting identical to a plain run.
2. :func:`precompile` converts that stream, for one record type under
   study, into a flat integer op array: accesses to the record's
   fields become symbolic ``(instance, field)`` slots, everything else
   keeps its concrete address, and the accesses that cannot miss
   (repeats of the access just before) are folded into constants.
3. :func:`replay_batch` replays the op array against many candidate
   layouts in one batched pass — each candidate walks fresh cache
   sets through the hierarchy's own generated LRU walk, candidate
   field addresses come from a precomputed per-layout address table,
   and the non-memory cycles of the original run are added back as a
   constant.

The replayed score is a *relative* oracle: candidate layouts are laid
out in a dedicated replay region (piece arrays, malloc-style element
stride), so absolute cycle counts differ slightly from a full re-run,
but every candidate — including the greedy baseline and the identity
layout — is scored under identical rules.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .cache import (
    CacheConfig, CacheHierarchy, ITANIUM2_SCALED, build, emit_walk,
    new_sets,
)
from .codegen import CompiledProgram
from .machine import Machine, StepLimitExceeded

#: replay region for candidate piece arrays — above every address the
#: simulator hands out (globals, rodata, stack, heap, profile counters)
REPLAY_BASE = 0x8000_0000

#: gap between consecutive piece regions (keeps pieces from sharing a
#: cache line and gives every piece the same set-index phase)
REGION_ALIGN = 1 << 20

#: appended link field modelled for linked (hot/cold split) layouts
LINK_SIZE = 8
LINK_ALIGN = 8


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


@dataclass
class AccessTrace:
    """One recorded execution: the access stream plus enough metadata
    to recompile it against any record type the program declares."""

    addrs: array              # 'q' — accessed address per op
    sites: array              # 'i' — site id per op
    flags: array              # 'B' — bit0 = write, bit1 = float
    site_fields: list         # site id -> (record, field) or None
    record_fields: dict       # record -> list of Field (original layout)
    cycles: int               # total cycles of the traced run
    base_cycles: int          # its non-memory cycles (layout-invariant)
    cache_config: CacheConfig
    exit_code: int | None
    stdout: str
    truncated: bool = False   # cycle budget hit; prefix trace kept

    def __len__(self) -> int:
        return len(self.addrs)

    def fingerprint_parts(self, record_name: str) -> tuple:
        """Stable identity of this trace w.r.t. one record — the memo
        key ingredients (trace length + cycle count pin the input set
        and program version; the field layout pins the type)."""
        fields = self.record_fields.get(record_name, [])
        return (
            record_name,
            tuple((f.name, f.offset, f.size) for f in fields),
            len(self.addrs),
            self.cycles,
            repr(self.cache_config),
        )


def capture_trace(program, cache_config: CacheConfig = ITANIUM2_SCALED,
                  cycle_limit: int = 2_000_000_000,
                  entry: str = "main") -> AccessTrace:
    """Run ``program`` once, recording every memory access.

    The recording hooks keep the plain fast path's cycle accounting
    bit-for-bit (same :meth:`CacheHierarchy.access` calls in the same
    order), so ``trace.cycles`` equals a plain run's cycles.
    A run that exhausts ``cycle_limit`` yields a *truncated* trace:
    the prefix is still a valid stream for relative layout scoring.
    """
    machine = Machine(cache_config=cache_config, cycle_limit=cycle_limit)
    access = machine.cache.access
    cells = machine.memory.cells
    cells_get = cells.get

    addrs = array("q")
    sites = array("i")
    flags = array("B")
    a_app, s_app, f_app = addrs.append, sites.append, flags.append

    def mem_read(addr, is_float, site, m=machine):
        m.cycles += access(addr, is_float, False, site)
        a_app(addr)
        s_app(site)
        f_app(2 if is_float else 0)
        return cells_get(addr, 0)

    def mem_write(addr, value, is_float, site, m=machine):
        m.cycles += access(addr, is_float, True, site)
        cells[addr] = value
        a_app(addr)
        s_app(site)
        f_app(3 if is_float else 1)

    # must be installed *before* CompiledProgram: codegen captures the
    # bound mem_read/mem_write attributes at compile time
    machine.mem_read = mem_read
    machine.mem_write = mem_write
    truncated = False
    exit_code: int | None = None
    try:
        compiled = CompiledProgram(program, machine)
        try:
            exit_code = compiled.run(entry=entry)
        except StepLimitExceeded:
            truncated = True
    finally:
        machine.release()

    site_fields: list = []
    for info in compiled.sites:
        if info.record is not None and info.field is not None:
            site_fields.append((info.record, info.field))
        else:
            site_fields.append(None)
    record_fields = {
        name: [f for f in rec.fields]
        for name, rec in program.records.items()
    }
    return AccessTrace(
        addrs=addrs, sites=sites, flags=flags, site_fields=site_fields,
        record_fields=record_fields, cycles=machine.cycles,
        base_cycles=machine.cycles
        - machine.cache.stats()["total"]["latency"],
        cache_config=cache_config, exit_code=exit_code,
        stdout=machine.stdout, truncated=truncated)


@dataclass
class CompiledTrace:
    """A trace precompiled for one record type.

    ``ops`` is a flat signed-int encoding; with ``S = site_bits``:

    - raw access (any address not in the record):
      ``op = (((addr << S) | site) << 2) | flags``  (``op >= 0``)
    - field access (instance ``i`` of the record, field index ``j``):
      ``slot = i * nfields + j``;
      ``op = ~((((slot << S) | site) << 2) | flags)``  (``op < 0``)

    Replay resolves slots through a per-candidate address table, so one
    precompile serves every candidate layout of the record.  The
    accesses :func:`precompile` folds out of ``ops`` are charged in
    ``base_cycles`` (raw) and ``repeats`` (field: ``(field index,
    first-level latency, count)``, charged per candidate).
    """

    record_name: str
    fields: list                    # original Field objects, decl order
    #: a plain list, not an array: replay iterates this once per
    #: candidate, and list elements are already boxed ints
    ops: list
    nfields: int
    ninstances: int
    site_bits: int
    base_cycles: int
    repeats: list
    cache_config: CacheConfig
    fingerprint_parts: tuple


def _first_level(cfg: CacheConfig, is_float) -> tuple[int, int]:
    """``(line bits, latency)`` of the first level an access walks; an
    access on a path with no level goes to memory, which keeps no
    lines."""
    path = cfg.path(is_float)
    if not path:
        return 0, cfg.memory_latency
    level = cfg.levels[path[0]]
    return level.line_bits, level.latency


def precompile(trace: AccessTrace, record_name: str) -> CompiledTrace:
    """Lower ``trace`` into a :class:`CompiledTrace` for one record.

    Instances are identified by object base address (access address
    minus the field's original offset) and numbered in first-seen
    order, which is deterministic for a fixed trace.

    An access on the same path as the one just before it, to the same
    first-level line (raw) or ``(instance, field)`` slot (field),
    cannot miss under any layout: its line is the most recently used
    one in the path's first level, and a split field's link load is
    still resident beside it in a level of two or more ways, so both
    hit and every set ends as it was.  ``ops`` leaves such repeats
    out.  A config with a stride prefetcher keeps every access (a
    repeat resets its site's stride), and so does one with a
    direct-mapped level, where a link load and its field can evict
    each other.
    """
    cfg = trace.cache_config
    fold = not cfg.prefetch and all(l.ways > 1 for l in cfg.levels)
    return _lower(trace, record_name, fold)


def _lower(trace: AccessTrace, record_name: str,
           fold: bool) -> CompiledTrace:
    """:func:`precompile`'s lowering; with ``fold`` false it keeps
    every access, the stream :func:`replay_reference` walks."""
    fields = trace.record_fields.get(record_name)
    if not fields:
        raise KeyError(f"record {record_name!r} not in trace")
    field_index = {f.name: i for i, f in enumerate(fields)}
    offsets = {f.name: f.offset for f in fields}
    nfields = len(fields)

    site_bits = max(1, len(trace.site_fields).bit_length())
    # per-site classification: offset of the accessed field when the
    # site touches the record under study, else None
    site_off: list = []
    site_idx: list = []
    for sf in trace.site_fields:
        if sf is not None and sf[0] == record_name and sf[1] in offsets:
            site_off.append(offsets[sf[1]])
            site_idx.append(field_index[sf[1]])
        else:
            site_off.append(None)
            site_idx.append(0)

    int_bits, int_lat = _first_level(trace.cache_config, False)
    fp_bits, fp_lat = _first_level(trace.cache_config, True)
    base_cycles = trace.base_cycles
    repeats: dict = {}
    ops: list[int] = []
    o_app = ops.append
    instances: dict[int, int] = {}
    # the previous access's fold key: first-level line (raw, bit 0
    # clear) or slot (field, bit 0 set), with the float flag in bit 1
    prev = None
    for addr, site, fl in zip(trace.addrs, trace.sites, trace.flags):
        off = site_off[site]
        fp = fl & 2
        if off is None:
            key = (addr >> (fp_bits if fp else int_bits)) << 2 | fp
            if fold and key == prev:
                base_cycles += fp_lat if fp else int_lat
                continue
            prev = key
            o_app((((addr << site_bits) | site) << 2) | fl)
            continue
        base = addr - off
        inst = instances.get(base)
        if inst is None:
            inst = instances[base] = len(instances)
        slot = inst * nfields + site_idx[site]
        key = slot << 2 | fp | 1
        if fold and key == prev:
            rep = (site_idx[site], fp_lat if fp else int_lat)
            repeats[rep] = repeats.get(rep, 0) + 1
            continue
        prev = key
        o_app(~((((slot << site_bits) | site) << 2) | fl))

    return CompiledTrace(
        record_name=record_name, fields=fields, ops=ops,
        nfields=nfields, ninstances=len(instances), site_bits=site_bits,
        base_cycles=base_cycles,
        repeats=sorted((j, lat, n) for (j, lat), n in repeats.items()),
        cache_config=trace.cache_config,
        fingerprint_parts=trace.fingerprint_parts(record_name))


@dataclass
class LayoutPlan:
    """Per-candidate replay tables: concrete addresses for every
    ``(instance, field)`` slot plus optional link-pointer loads."""

    addr_table: list                # slot -> address, -1 = removed field
    link_table: list                # slot -> link-pointer address or 0


def _piece_layout(fields) -> tuple[dict, int, int]:
    """C layout of one piece: ``(name -> offset, size, align)``.

    Mirrors :meth:`RecordType.layout` for non-bitfield members (the
    search engine refuses bitfield groups before getting here).
    """
    off = 0
    align = 1
    offsets = {}
    for f in fields:
        fa = max(f.type.align, 1)
        off = _round_up(off, fa)
        offsets[f.name] = off
        off += max(f.type.size, 1)
        align = max(align, fa)
    return offsets, _round_up(max(off, 1), align), align


def plan_layout(compiled: CompiledTrace, groups, linked: bool,
                dead=()) -> LayoutPlan:
    """Build replay tables for one candidate layout of the record.

    ``groups`` is a sequence of field-name sequences (a partition of
    the surviving fields, order significant).  ``linked`` models the
    hot/cold split: the first group carries an appended 8-byte link
    pointer and every access to a later group pays a link-pointer load
    from its instance's first-group element.  ``dead`` fields are
    removed outright — their ops are skipped during replay.
    """
    by_name = {f.name: f for f in compiled.fields}
    dead_set = set(dead)
    nfields = compiled.nfields
    ninst = compiled.ninstances

    # lay out each piece and assign its region
    piece_of: dict[str, int] = {}
    piece_offsets: list[dict] = []
    piece_sizes: list[int] = []
    piece_bases: list[int] = []
    cursor = REPLAY_BASE
    link_offset = -1
    for k, group in enumerate(groups):
        members = [by_name[name] for name in group]
        offsets, size, align = _piece_layout(members)
        if linked and k == 0 and len(groups) > 1:
            # the split transform appends the link pointer after the
            # hot fields (SplitSpec.build_records)
            end = max((offsets[m.name] + max(m.type.size, 1)
                       for m in members), default=0)
            link_offset = _round_up(end, LINK_ALIGN)
            size = _round_up(link_offset + LINK_SIZE,
                             max(align, LINK_ALIGN))
        for name in group:
            piece_of[name] = k
        piece_offsets.append(offsets)
        piece_sizes.append(size)
        piece_bases.append(cursor)
        cursor = _round_up(cursor + ninst * size + 1, REGION_ALIGN)

    addr_table = [-1] * (ninst * nfields)
    link_table = [0] * (ninst * nfields)
    has_links = linked and len(groups) > 1 and link_offset >= 0
    for j, f in enumerate(compiled.fields):
        name = f.name
        if name in dead_set:
            continue
        k = piece_of.get(name)
        if k is None:
            # field in no group and not dead: treat as removed
            continue
        base = piece_bases[k]
        size = piece_sizes[k]
        off = piece_offsets[k][name]
        needs_link = has_links and k > 0
        hot_base = piece_bases[0]
        hot_size = piece_sizes[0]
        for inst in range(ninst):
            slot = inst * nfields + j
            addr_table[slot] = base + inst * size + off
            if needs_link:
                link_table[slot] = hot_base + inst * hot_size \
                    + link_offset
    return LayoutPlan(addr_table=addr_table, link_table=link_table)


@lru_cache(maxsize=32)
def _make_replayer(cfg: CacheConfig, site_bits: int):
    """Compile a replay loop specialized to one cache geometry.

    The loop walks each op's address, and a split field's link load
    before it, through the walk :func:`~repro.runtime.cache.emit_walk`
    generates — the walk :class:`CacheHierarchy` runs — on fresh sets
    per call, and sums the latencies; it keeps no counters.
    """
    shift = 2 + site_bits
    add = "lat += {latency}"
    src: list[str] = []
    w = src.append
    w("def _replay(ops, addr_table, link_table):")
    for i in range(len(cfg.levels)):
        w(f"    s{i} = new_sets(levels[{i}])")
    w("    lat = 0")
    w("    for op in ops:")
    w("        if op >= 0:")
    w(f"            addr = op >> {shift}")
    w("        else:")
    w("            op = ~op")
    w(f"            slot = op >> {shift}")
    w("            addr = addr_table[slot]")
    w("            if addr < 0:")
    w("                continue")
    w("            link = link_table[slot]")
    w("            if link:")
    # link-pointer load: an integer read of the hot element's
    # appended pointer field
    emit_walk(w, "link", cfg, False, " " * 16, add)
    w("        if op & 2:")
    emit_walk(w, "addr", cfg, True, " " * 12, add)
    w("        else:")
    emit_walk(w, "addr", cfg, False, " " * 12, add)
    w("    return lat")
    return build(src, "_replay", new_sets=new_sets, levels=cfg.levels)


def _repeats_latency(compiled: CompiledTrace, plan: LayoutPlan) -> int:
    """Latency of the folded field repeats under ``plan``: a first-level
    hit, after an L1 hit on the link for a split's cold field, and
    nothing for a removed one.  (Slot ``j``, instance 0's field ``j``,
    stands for every instance.)"""
    link_lat = _first_level(compiled.cache_config, False)[1]
    addr_table, link_table = plan.addr_table, plan.link_table
    return sum(n * (lat + (link_lat if link_table[j] else 0))
               for j, lat, n in compiled.repeats if addr_table[j] >= 0)


def replay_batch(compiled: CompiledTrace, plans) -> list[int]:
    """Score candidate layouts in one batched pass over the op array.

    Returns simulated cycles per plan: the traced run's non-memory
    cycles plus the replayed memory latency under that layout.  Each
    candidate replays against its own fresh cache state through a
    loop specialized to the cache geometry (:func:`_make_replayer`) —
    no interpreter, no per-access call — which is the >= 3x
    per-candidate win over re-simulating the whole program.

    Prefetch-enabled configs, which fold nothing, walk every op
    through a :class:`CacheHierarchy` (the prefetcher needs site ids).
    """
    cfg = compiled.cache_config
    if cfg.prefetch:
        return [compiled.base_cycles + _walk(compiled, plan)
                for plan in plans]
    replay = _make_replayer(cfg, compiled.site_bits)
    return [compiled.base_cycles + _repeats_latency(compiled, plan)
            + replay(compiled.ops, plan.addr_table, plan.link_table)
            for plan in plans]


def replay_reference(trace: AccessTrace, record_name: str,
                     plans) -> list[int]:
    """Reference scores of the plans (built on :func:`precompile`'s
    lowering of ``trace`` for ``record_name``): every access of the
    trace, repeats included, through a real :class:`CacheHierarchy` —
    the semantic baseline :func:`replay_batch` must match."""
    full = _lower(trace, record_name, fold=False)
    return [full.base_cycles + _walk(full, plan) for plan in plans]


def _walk(compiled: CompiledTrace, plan: LayoutPlan) -> int:
    """Memory latency of ``compiled.ops`` under ``plan``, one
    :meth:`CacheHierarchy.access` per access, site ids included."""
    access = CacheHierarchy(compiled.cache_config).access
    sbits = compiled.site_bits
    smask = (1 << sbits) - 1
    addr_table = plan.addr_table
    link_table = plan.link_table
    lat = 0
    for op in compiled.ops:
        if op >= 0:
            body = op >> 2
            lat += access(body >> sbits, op & 2, op & 1, body & smask)
        else:
            enc = ~op
            body = enc >> 2
            slot = body >> sbits
            addr = addr_table[slot]
            if addr < 0:
                continue
            link = link_table[slot]
            if link:
                lat += access(link, False, False, body & smask)
            lat += access(addr, enc & 2, enc & 1, body & smask)
    return lat
