"""The transformation heuristics (§2.4).

Decides, per record type, whether and how to transform:

- only legal (per §2.2 + IPA escape) and dynamically allocated types are
  touched; types with only variable instances and no array are skipped;
- dead fields are always removed, subject to the bit-field alignment
  caveat;
- peeling is preferred whenever the single-global-pointer discipline
  holds (it is "always performed", having no link-pointer cost);
- splitting uses the hotness threshold ``T_s`` — 3% under measured
  profiles (PBO/PPBO), 7.5% under static estimation (ISPBO) — and
  requires at least two split-out fields to amortize the link pointer;
  hot fields always stay hot, the §2.4 lesson from splitting out mcf's
  ``time``/``mark``;
- field reordering happens only when at least one field was eliminated
  or split out (hot fields are packed hottest-first).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..frontend.program import Program
from ..analysis.deadfields import UsageResult
from ..analysis.legality import LegalityResult, TypeInfo
from ..profit.affinity import TypeProfile
from .common import TransformError, layout_fingerprint
from .peeling import PeelSpec, check_peelable, peel_structure
from .reorder import hotness_order
from .splitting import SplitSpec, split_structure

#: schemes whose weights come from measured profiles
PROFILE_SCHEMES = frozenset({"PBO", "PPBO"})

#: peel groupings :func:`peel_groups` knows (``HeuristicParams.peel_mode``)
PEEL_MODES = ("auto", "per-field", "hot-cold", "affinity")


@dataclass
class HeuristicParams:
    """Tunable knobs; defaults are the paper's published settings."""

    #: T_s under measured profiles (3%)
    ts_profile: float = 3.0
    #: T_s under static estimation (7.5%)
    ts_static: float = 7.5
    #: minimum number of split-out fields to pay for a link pointer
    min_split_out: int = 2
    #: peel grouping: 'auto' (line-traffic cost model), 'affinity'
    #: clusters, 'per-field', or 'hot-cold'
    peel_mode: str = "auto"
    #: cache line size used by the grouping cost model
    cost_line_size: int = 128
    #: affinity-cluster edge threshold, fraction of the max edge weight
    affinity_threshold: float = 0.3
    #: reorder surviving hot fields hottest-first
    reorder_hot: bool = True
    #: remove dead bit-fields too (off: the §2.4 alignment caveat)
    remove_dead_bitfields: bool = False
    #: §5 extension (off = paper behaviour): reorder fields of legal,
    #: allocated types even when nothing is split out — packing hot,
    #: affine fields onto the leading cache line of structs larger
    #: than one line ("field reordering appears to be underutilized")
    standalone_reorder: bool = False


@dataclass
class TransformDecision:
    """One type's planned transformation (names only — decisions stay
    valid as the program is re-typed between applications)."""

    type_name: str
    action: str                       # none | split | peel | dead
    dead_fields: list[str] = dc_field(default_factory=list)
    cold_fields: list[str] = dc_field(default_factory=list)
    groups: list[list[str]] | None = None
    hot_order: list[str] | None = None
    pointer: str | None = None
    notes: list[str] = dc_field(default_factory=list)

    @property
    def transformed(self) -> bool:
        return self.action != "none"

    @property
    def fields_affected(self) -> int:
        """Split-out + dead fields (Table 3's "S/D" column).  For a
        peel, every field outside the primary (first) piece counts as
        split out."""
        if self.action == "peel" and self.groups:
            moved = sum(len(g) for g in self.groups[1:])
            return moved + len(self.dead_fields)
        return len(self.cold_fields) + len(self.dead_fields)

    def __repr__(self) -> str:
        return f"<{self.type_name}: {self.action} " \
               f"cold={self.cold_fields} dead={self.dead_fields}>"


def split_threshold(scheme: str, params: HeuristicParams) -> float:
    return params.ts_profile if scheme in PROFILE_SCHEMES \
        else params.ts_static


def transform_blockers(info: TypeInfo) -> list[str]:
    """The §2.4 pre-checks every layout change shares: why this type
    must not be touched, or an empty list.  The search engine reuses
    these so greedy and searched layouts honor identical legality."""
    if not info.is_legal():
        return ["illegal: " + ",".join(sorted(info.invalid_reasons))]
    if not info.allocated:
        return ["not dynamically allocated"]
    if all(s.count is not None and s.count <= 1
           for s in info.alloc_sites):
        return ["only single-object allocations"]
    if any(not s.count_expr_ok for s in info.alloc_sites):
        return ["unanalyzable allocation site"]
    if info.realloced:
        return ["type is realloc'ed"]
    return []


def decide_type(program: Program, info: TypeInfo, usage,
                profile: TypeProfile, scheme: str,
                params: HeuristicParams) -> TransformDecision:
    """Apply the §2.4 rules to one record type."""
    d = TransformDecision(type_name=info.name, action="none")
    blockers = transform_blockers(info)
    if blockers:
        d.notes.extend(blockers)
        return d

    rec = info.record
    dead = [f for f in usage.removable_fields()
            if params.remove_dead_bitfields
            or not rec.field(f).is_bitfield]
    d.dead_fields = dead
    live = [f.name for f in rec.fields if f.name not in set(dead)]
    rel = profile.relative_hotness()
    ts = split_threshold(scheme, params)
    cold = [f for f in live if rel.get(f, 0.0) < ts]
    hot = [f for f in live if f not in set(cold)]

    # peeling first: no link-pointer cost, "always performed"
    pointer = None
    if len(info.global_ptr_symbols) == 1:
        pointer = info.global_ptr_symbols[0].name
    if pointer is not None and \
            not check_peelable(program, rec, pointer):
        groups = peel_groups(profile, live, cold, params)
        if len(groups) > 1:
            d.action = "peel"
            d.pointer = pointer
            d.groups = groups
            d.cold_fields = list(cold)
            d.notes.append(f"peel via global pointer {pointer!r} into "
                           f"{len(groups)} pieces")
            return d
        if dead:
            d.action = "dead"
            d.notes.append(
                f"peeling not profitable; remove {len(dead)} dead "
                f"fields")
            return d
        d.notes.append("peelable, but one-piece grouping is cheapest")
        return d

    # splitting: needs >= min_split_out cold fields and a hot remainder
    if len(cold) >= params.min_split_out and hot:
        d.action = "split"
        d.cold_fields = cold
        if params.reorder_hot:
            d.hot_order = hotness_order(
                rec, {f: profile.hotness(f) for f in hot
                      if rec.has_field(f)})
            d.hot_order = [f for f in d.hot_order if f in set(hot)]
        d.notes.append(f"split out {len(cold)} fields below "
                       f"T_s={ts}%")
        return d

    # dead-field removal alone
    if dead:
        d.action = "dead"
        if params.reorder_hot:
            d.hot_order = [f for f in hotness_order(
                rec, {f: profile.hotness(f) for f in live})
                if f in set(live)]
        d.notes.append(f"remove {len(dead)} dead/unused fields")
        return d

    # §5 extension: standalone reordering for over-line structs
    if params.standalone_reorder and \
            rec.size > params.cost_line_size and hot:
        from .reorder import affinity_packed_order
        order = affinity_packed_order(
            rec, {f.name: profile.hotness(f.name) for f in rec.fields},
            profile.affinity)
        if order != rec.field_names():
            d.action = "reorder"
            d.hot_order = order
            d.notes.append("standalone reorder: pack hot/affine "
                           "fields onto the leading line")
            return d

    if cold:
        d.notes.append(
            f"only {len(cold)} cold field(s): link pointer not "
            f"amortized (min {params.min_split_out})")
    else:
        d.notes.append("no cold or dead fields")
    return d


def piece_size(record, fields: list[str]) -> int:
    """Laid-out size of a peel piece holding the given fields."""
    from ..frontend.typesys import RecordType, Field
    tmp = RecordType("__piece", [
        Field(f.name, f.type, f.bit_width)
        for f in record.fields if f.name in set(fields)])
    return max(tmp.size, 1)


def grouping_cost(profile: TypeProfile, grouping: list[list[str]],
                  line_size: int = 128) -> float:
    """Estimated cache-line traffic of a candidate peel grouping.

    For every affinity group (a loop's field set, with its weight and
    its sequential/random classification): a sequential sweep touches
    ``piece_size / line_size`` lines per element for each piece it
    needs; a random access touches one full line per needed piece.
    Summed over groups weighted by execution count, this ranks
    groupings — per-field wins for dense sweeps (179.art), keeping
    affine fields together wins for random access (moldyn's force
    loop).
    """
    piece_of = {f: i for i, g in enumerate(grouping) for f in g}
    sizes = [piece_size(profile.record, g) for g in grouping]
    cost = 0.0
    for g in profile.groups:
        pieces = {piece_of[f] for f in g.fields if f in piece_of}
        for p in pieces:
            per_element = sizes[p] / line_size if g.sequential else 1.0
            cost += g.weight * per_element
    return cost


def candidate_groupings(profile: TypeProfile, live: list[str],
                        cold: list[str], params: HeuristicParams
                        ) -> dict[str, list[list[str]]]:
    """The groupings the 'auto' mode compares."""
    cold_set = set(cold)
    hot = [f for f in live if f not in cold_set]
    out: dict[str, list[list[str]]] = {}
    if live:
        out["none"] = [list(live)]
        out["per-field"] = [[f] for f in live]
    if hot and cold:
        out["hot-cold"] = [list(hot), list(cold)]
    affinity = _affinity_components(profile, live, cold, params)
    if affinity:
        out["affinity"] = affinity
    return out


def peel_groups(profile: TypeProfile, live: list[str], cold: list[str],
                params: HeuristicParams) -> list[list[str]]:
    """Partition the live fields into peel groups.

    - ``per-field``: one piece per field (what the paper describes for
      179.art);
    - ``hot-cold``: two pieces;
    - ``affinity``: connected components of the affinity graph
      restricted to edges at least ``affinity_threshold`` of the maximum
      edge weight — fields used together stay together, fields used in
      disjoint loops separate; cold fields get their own pieces;
    - ``auto`` (default): evaluate all of the above with the line-
      traffic cost model and keep the cheapest.
    """
    if params.peel_mode == "auto":
        candidates = candidate_groupings(profile, live, cold, params)
        if not candidates:
            return [list(live)] if live else []
        # ties break on the grouping's content fingerprint, not on the
        # candidate dict's insertion order — equal-cost groupings must
        # resolve identically no matter how candidates are enumerated
        best = min(
            candidates.items(),
            key=lambda kv: (grouping_cost(profile, kv[1],
                                          params.cost_line_size),
                            len(kv[1]),
                            layout_fingerprint(kv[1])))
        return best[1]
    if params.peel_mode == "per-field":
        return [[f] for f in live]
    cold_set = set(cold)
    hot = [f for f in live if f not in cold_set]
    if params.peel_mode == "hot-cold":
        out = []
        if hot:
            out.append(hot)
        if cold:
            out.append(list(cold))
        return out
    if params.peel_mode != "affinity":
        raise TransformError(f"unknown peel mode {params.peel_mode!r}")
    return _affinity_components(profile, live, cold, params)


def _affinity_components(profile: TypeProfile, live: list[str],
                         cold: list[str], params: HeuristicParams
                         ) -> list[list[str]]:
    cold_set = set(cold)
    hot = [f for f in live if f not in cold_set]
    pair_weights = {k: w for k, w in profile.affinity.items()
                    if k[0] != k[1]}
    peak = max(pair_weights.values(), default=0.0)
    cutoff = params.affinity_threshold * peak
    parent = {f: f for f in hot}

    def find(f: str) -> str:
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    for (f1, f2), w in pair_weights.items():
        if f1 in parent and f2 in parent and w >= cutoff and w > 0.0:
            parent[find(f1)] = find(f2)

    clusters: dict[str, list[str]] = {}
    for f in hot:
        clusters.setdefault(find(f), []).append(f)
    groups = [sorted(g, key=live.index) for g in clusters.values()]
    groups.sort(key=lambda g: live.index(g[0]))
    groups.extend([f] for f in cold)
    return groups


def decide_transforms(program: Program, legality: LegalityResult,
                      usage: UsageResult,
                      profiles: dict[str, TypeProfile], scheme: str,
                      params: HeuristicParams | None = None
                      ) -> list[TransformDecision]:
    """Run the heuristics over every record type."""
    params = params or HeuristicParams()
    decisions = []
    for name in sorted(legality.types):
        info = legality.types[name]
        profile = profiles.get(name)
        u = usage.types.get(name)
        if profile is None or u is None:
            continue
        decisions.append(decide_type(program, info, u, profile,
                                     scheme, params))
    return decisions


def apply_decisions(program: Program,
                    decisions: list[TransformDecision]) -> Program:
    """Apply the planned transformations one type at a time, re-typing
    the program between applications (each transformation re-parses, so
    record objects are re-fetched by name)."""
    current = program
    for d in decisions:
        if not d.transformed:
            continue
        rec = current.records.get(d.type_name)
        if rec is None:
            raise TransformError(f"type {d.type_name!r} disappeared")
        if d.action == "peel":
            spec = PeelSpec(record=rec, pointer=d.pointer,
                            groups=d.groups or [],
                            dead_fields=d.dead_fields)
            current = peel_structure(current, spec)
        elif d.action == "split":
            spec = SplitSpec(record=rec, cold_fields=d.cold_fields,
                             dead_fields=d.dead_fields,
                             hot_order=d.hot_order)
            current = split_structure(current, spec)
        elif d.action == "dead":
            spec = SplitSpec(record=rec, cold_fields=[],
                             dead_fields=d.dead_fields,
                             hot_order=d.hot_order)
            current = split_structure(current, spec)
        elif d.action == "reorder":
            from .reorder import reorder_fields
            current = reorder_fields(current, rec, d.hot_order)
        else:
            raise TransformError(f"unknown action {d.action!r}")
    return current
