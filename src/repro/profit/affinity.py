"""Affinity groups, affinity graphs, and weighted field reference counts.

§2.3: the FE walks each loop of the loop-structure graph and collects the
field references of each record type into a weighted affinity group (the
group's weight is the loop header's incoming edge count under the active
weighting scheme).  Field references in remaining straight-line code form
one more group weighted by the routine entry count.  Groups with
identical field sets merge by adding weights.  During IPA an affinity
graph per type is built: nodes are fields, an edge says the two fields
shared at least one group, with the summed weight.

Read and write counts are collected statement by statement using block
execution counts, and per-field hotness is the aggregated total accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..frontend import ast
from ..frontend.program import Program
from ..frontend.typesys import RecordType
from ..ir.cfg import BasicBlock, FunctionCFG
from ..ir.loops import LoopNest, find_loops
from .seqaccess import loop_record_sequential
from .weights import ProgramWeights


def field_refs_in_expr(e: ast.Expr) -> list[tuple[RecordType, str, str]]:
    """List ``(record, field_name, kind)`` for every field reference;
    kind is 'read' or 'write' (compound assignments yield both)."""
    out: list[tuple[RecordType, str, str]] = []
    _scan_refs(e, out)
    return out


def _scan_refs(node: ast.Expr, out: list) -> None:
    # module level, not a closure: a nested recursive function is a
    # function <-> cell cycle that only the cyclic collector frees
    if isinstance(node, ast.Assign):
        target = node.target
        if isinstance(target, ast.Member):
            if target.record is not None:
                out.append((target.record, target.name, "write"))
                if node.op != "=":
                    out.append((target.record, target.name, "read"))
            _scan_refs(target.base, out)
        else:
            _scan_refs(target, out)
        _scan_refs(node.value, out)
        return
    if isinstance(node, ast.Unary) and node.op in ("++", "--", "p++", "p--"):
        operand = node.operand
        if isinstance(operand, ast.Member):
            if operand.record is not None:
                out.append((operand.record, operand.name, "read"))
                out.append((operand.record, operand.name, "write"))
            _scan_refs(operand.base, out)
        else:
            _scan_refs(operand, out)
        return
    if isinstance(node, ast.Unary) and node.op == "&":
        operand = node.operand
        _scan_refs(operand.base if isinstance(operand, ast.Member)
                   else operand, out)
        return
    if isinstance(node, ast.Member):
        if node.record is not None:
            out.append((node.record, node.name, "read"))
        _scan_refs(node.base, out)
        return
    for child in ast.child_exprs(node):
        _scan_refs(child, out)


@dataclass(eq=False)
class AffinityGroup:
    """One weighted group of fields of a single record type."""

    record: RecordType
    fields: frozenset[str]
    weight: float
    origin: str = ""        # "<fn>:loopB<id>" or "<fn>:straightline"
    #: every access of the record in this group's loop is affine-addressed
    #: (see repro.profit.seqaccess) — drives the peel-grouping cost model
    sequential: bool = False

    def __repr__(self) -> str:
        fs = ",".join(sorted(self.fields))
        kind = "seq" if self.sequential else "rnd"
        return f"<group {self.record.name}{{{fs}}} w={self.weight:.3g} " \
               f"{kind}>"


@dataclass(eq=False)
class TypeProfile:
    """IPA-aggregated profitability data for one record type."""

    record: RecordType
    read_counts: dict[str, float] = field(default_factory=dict)
    write_counts: dict[str, float] = field(default_factory=dict)
    #: merged affinity groups
    groups: list[AffinityGroup] = field(default_factory=list)
    #: affinity edge weights keyed by sorted field pair (self-edges too)
    affinity: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.record.name

    def hotness(self, fname: str) -> float:
        return self.read_counts.get(fname, 0.0) + \
            self.write_counts.get(fname, 0.0)

    def hotness_by_field(self) -> dict[str, float]:
        return {f.name: self.hotness(f.name) for f in self.record.fields}

    def relative_hotness(self) -> dict[str, float]:
        """Percent relative to the hottest field (Table 2 columns)."""
        hb = self.hotness_by_field()
        peak = max(hb.values(), default=0.0)
        if peak <= 0.0:
            return {k: 0.0 for k in hb}
        return {k: 100.0 * v / peak for k, v in hb.items()}

    def type_hotness(self) -> float:
        return sum(self.hotness_by_field().values())

    def affinity_between(self, f1: str, f2: str) -> float:
        return self.affinity.get(_pair(f1, f2), 0.0)

    def relative_affinities(self, fname: str) -> dict[str, float]:
        """Affinities from ``fname`` to every field, in percent of the
        strongest affinity edge of the type (advisor display)."""
        peak = max(self.affinity.values(), default=0.0)
        if peak <= 0.0:
            return {}
        out = {}
        for f in self.record.fields:
            w = self.affinity_between(fname, f.name)
            if w > 0.0:
                out[f.name] = 100.0 * w / peak
        return out

    def affinity_graph(self) -> nx.Graph:
        g = nx.Graph()
        for f in self.record.fields:
            g.add_node(f.name, hotness=self.hotness(f.name))
        for (f1, f2), w in self.affinity.items():
            if f1 != f2:
                g.add_edge(f1, f2, weight=w)
        return g


def _pair(f1: str, f2: str) -> tuple[str, str]:
    return (f1, f2) if f1 <= f2 else (f2, f1)


def _group_fields(block_refs: dict, blocks) -> dict[TypeProfile, set[str]]:
    """The fields of each record type that ``blocks`` reference."""
    refs: dict[TypeProfile, set[str]] = {}
    for b in blocks:
        for prof, fname, _ in block_refs[b]:
            refs.setdefault(prof, set()).add(fname)
    return refs


class AffinityAnalyzer:
    """Builds affinity groups per function (FE) and aggregates (IPA)."""

    def __init__(self, program: Program, cfgs: dict[str, FunctionCFG],
                 weights: ProgramWeights,
                 nests: dict[str, LoopNest] | None = None):
        self.program = program
        self.cfgs = cfgs
        self.weights = weights
        self.nests = nests or {name: find_loops(cfg)
                               for name, cfg in cfgs.items()}
        self.profiles: dict[str, TypeProfile] = {}
        for rec in program.record_types():
            if rec.fields:
                self.profiles[rec.name] = TypeProfile(rec)

    def run(self) -> dict[str, TypeProfile]:
        raw_groups: list[AffinityGroup] = []
        for name, cfg in self.cfgs.items():
            raw_groups.extend(self._function_groups(name, cfg))
        self._merge_groups(raw_groups)
        self._build_affinity()
        return self.profiles

    # -- FE: per-function groups and weighted counts -----------------------

    def _function_groups(self, fn_name: str,
                         cfg: FunctionCFG) -> list[AffinityGroup]:
        nest = self.nests[fn_name]
        fw = self.weights.of(fn_name)
        if fw is None:
            return []
        groups: list[AffinityGroup] = []

        # each block's field references, scanned once: they feed the
        # weighted counts, every enclosing loop's group and the
        # straight-line group
        block_refs: dict[BasicBlock, list[tuple[TypeProfile, str, str]]] \
            = {}
        for b in cfg.blocks:
            refs = block_refs[b] = []
            for e in cfg.block_exprs(b):
                for rec, fname, kind in field_refs_in_expr(e):
                    prof = self.profiles.get(rec.name)
                    if prof is not None:
                        refs.append((prof, fname, kind))

        # weighted read/write counts, statement by statement
        for b in cfg.blocks:
            w = fw.block_count(b.id)
            if w <= 0.0:
                continue
            for prof, fname, kind in block_refs[b]:
                counts = prof.read_counts if kind == "read" \
                    else prof.write_counts
                counts[fname] = counts.get(fname, 0.0) + w

        # per-loop groups
        for loop in nest.loops:
            weight = fw.block_count(loop.header.id)
            refs = _group_fields(block_refs, loop.blocks)
            seq_by_record = loop_record_sequential(cfg, loop) \
                if refs else {}
            for prof, fields in refs.items():
                groups.append(AffinityGroup(
                    record=prof.record,
                    fields=frozenset(fields), weight=weight,
                    origin=f"{fn_name}:loopB{loop.header.id}",
                    sequential=seq_by_record.get(prof.name, False)))

        # straight-line group, weighted by the routine entry count
        straight = set(nest.straight_line_blocks())
        for prof, fields in _group_fields(block_refs, straight).items():
            groups.append(AffinityGroup(
                record=prof.record,
                fields=frozenset(fields), weight=fw.entry_count,
                origin=f"{fn_name}:straightline"))
        return groups

    # -- IPA: merging and graph construction -------------------------------

    def _merge_groups(self, raw: list[AffinityGroup]) -> None:
        merged: dict[tuple[str, frozenset[str]], AffinityGroup] = {}
        for g in raw:
            if g.weight <= 0.0 or not g.fields:
                continue
            key = (g.record.name, g.fields)
            existing = merged.get(key)
            if existing is None:
                merged[key] = AffinityGroup(
                    record=g.record, fields=g.fields, weight=g.weight,
                    origin=g.origin, sequential=g.sequential)
            else:
                existing.weight += g.weight
                existing.sequential = existing.sequential and g.sequential
        for (rec_name, _), g in merged.items():
            self.profiles[rec_name].groups.append(g)

    def _build_affinity(self) -> None:
        for prof in self.profiles.values():
            for g in prof.groups:
                fields = sorted(g.fields)
                for i, f1 in enumerate(fields):
                    for f2 in fields[i:]:
                        key = _pair(f1, f2)
                        prof.affinity[key] = \
                            prof.affinity.get(key, 0.0) + g.weight


def compute_profiles(program: Program, cfgs: dict[str, FunctionCFG],
                     weights: ProgramWeights,
                     nests: dict[str, LoopNest] | None = None
                     ) -> dict[str, TypeProfile]:
    """Aggregate affinity/hotness profiles for every record type."""
    return AffinityAnalyzer(program, cfgs, weights, nests).run()
