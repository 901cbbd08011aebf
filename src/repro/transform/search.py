"""Global layout search: SA + branch-and-bound beat the greedy floor.

The paper's §2.4 heuristics pick one layout per type from a handful of
greedy candidates.  This module treats layout as a combinatorial
placement problem (ROADMAP item 3): the space of field orderings and
split/peel group assignments is explored by

- **simulated annealing** (:func:`anneal`) with a move/swap/
  split-migrate neighborhood, a geometric temperature schedule with
  restarts, and a seeded deterministic RNG; proposals are scored in
  batches through the replay oracle;
- an **exact branch-and-bound** ordering solver (:func:`bb_order`,
  the pure-python stand-in for an ILP — same optimality guarantee, no
  new dependency) for structs under a field-count threshold,
  cross-checked against :func:`exhaustive_order` in tests.

The cost oracle is the machine simulator via
:mod:`repro.runtime.replay`: one captured trace per compile, replayed
against candidate layouts in batches, scores memoized by layout
fingerprint in the summary cache (RemoteCache-compatible, so farm runs
share them).

Every search is *anytime*: the greedy decision is the floor, the
budget is a wall-clock deadline checked between proposal batches, and
the result is always the best layout seen so far — never worse than
greedy, because greedy itself is in the evaluated set and ties break
on layout fingerprint, not discovery order.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations

from ..runtime.replay import (
    AccessTrace, CompiledTrace, plan_layout, precompile, replay_batch,
)
from .common import layout_fingerprint
from .heuristics import TransformDecision, transform_blockers
from .peeling import check_peelable

#: engine knob defaults — mirrored by ``repro.api.SearchOptions``
SEARCH_DEFAULTS = {
    "engine": "sa",
    "budget_s": 10.0,
    "seed": 0,
    "sa_batch": 8,
    "sa_alpha": 0.90,
    "sa_tmax": 0.02,
    "sa_tmin": 1e-4,
    "sa_iters": 60,
    "sa_restarts": 2,
    "ilp_max_fields": 8,
}

ENGINES = ("greedy", "sa", "ilp", "auto")

#: summary-cache category for memoized oracle scores
SCORE_CATEGORY = "search"


def _opt(opts, name: str):
    v = getattr(opts, name, None)
    return SEARCH_DEFAULTS[name] if v is None else v


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layout:
    """One candidate layout: an ordered partition of the surviving
    fields into pieces.  ``linked`` models the hot/cold split (piece 0
    carries a link pointer, later pieces cost a link load per access);
    unlinked multi-piece layouts model peeling."""

    groups: tuple
    linked: bool = False
    dead: tuple = ()

    def fingerprint(self) -> str:
        return layout_fingerprint(self.groups, self.linked, self.dead)

    @property
    def fields(self) -> tuple:
        return tuple(f for g in self.groups for f in g)

    def __post_init__(self):
        object.__setattr__(
            self, "groups",
            tuple(tuple(g) for g in self.groups if len(g)))


def layout_from_decision(decision: TransformDecision,
                         live: list) -> Layout:
    """The layout a greedy :class:`TransformDecision` produces, in
    search-space terms (``live`` = surviving fields in decl order)."""
    dead = tuple(decision.dead_fields)
    live_set = set(live)
    if decision.action == "peel" and decision.groups:
        return Layout(tuple(tuple(g) for g in decision.groups),
                      False, dead)
    if decision.action == "split":
        cold = [f for f in decision.cold_fields if f in live_set]
        cold_set = set(cold)
        hot = list(decision.hot_order) if decision.hot_order else \
            [f for f in live if f not in cold_set]
        return Layout((tuple(hot), tuple(cold)), True, dead)
    if decision.action in ("dead", "reorder") and decision.hot_order:
        return Layout((tuple(decision.hot_order),), False, dead)
    return Layout((tuple(live),), False, dead)


def decision_from_layout(base: TransformDecision, layout: Layout,
                         mode: str, pointer, live: list
                         ) -> TransformDecision:
    """Lower a winning layout back to an applicable decision.

    Its note describes the searched layout, never the greedy one it
    replaces."""
    d = TransformDecision(type_name=base.type_name, action="none",
                          dead_fields=list(base.dead_fields))
    groups = layout.groups
    if len(groups) > 1 and mode == "peel":
        d.action = "peel"
        d.pointer = pointer
        d.groups = [list(g) for g in groups]
        d.cold_fields = list(base.cold_fields)
        d.notes.append(f"peel via global pointer {pointer!r} into "
                       f"{len(groups)} pieces")
        return d
    if len(groups) == 2 and mode == "split":
        d.action = "split"
        d.hot_order = list(groups[0])
        d.cold_fields = list(groups[1])
        d.notes.append(f"split out {len(d.cold_fields)} fields")
        return d
    order = list(groups[0]) if groups else list(live)
    if d.dead_fields:
        d.action = "dead"
        d.hot_order = order
        d.notes.append(f"remove {len(d.dead_fields)} dead/unused fields")
    elif order != list(live):
        d.action = "reorder"
        d.hot_order = order
        d.notes.append("reorder fields")
    else:
        d.notes.append("keep the declared layout")
    return d


# ---------------------------------------------------------------------------
# The oracle: batched replay + layout-fingerprint memoization
# ---------------------------------------------------------------------------

class LayoutOracle:
    """Scores layouts of one record against one precompiled trace.

    Scores are memoized twice: in-process by layout fingerprint, and —
    when a summary cache is attached — persistently under the
    ``search`` category, keyed by (trace fingerprint, layout
    fingerprint).  The persistent path goes through the ordinary
    :class:`SummaryCache` API, so a farm's shared ``RemoteCache``
    serves search scores unchanged.
    """

    def __init__(self, compiled: CompiledTrace, cache=None):
        from ..core.summarycache import SummaryCache, fingerprint
        self.compiled = compiled
        self.cache = cache
        self.trace_fp = fingerprint("search-trace",
                                    compiled.fingerprint_parts)
        self._key_for = SummaryCache.key_for
        self._memo: dict = {}
        self.evals = 0
        self.memo_hits = 0
        self.cache_hits = 0

    def _key(self, layout_fp: str) -> str:
        return self._key_for(SCORE_CATEGORY, self.trace_fp, layout_fp)

    def score_batch(self, layouts) -> list:
        """Cycles per layout; unknown layouts replay in one batch."""
        fps = [l.fingerprint() for l in layouts]
        todo: list = []
        todo_fps: list = []
        seen = set()
        for l, fp in zip(layouts, fps):
            if fp in self._memo or fp in seen:
                if fp in self._memo:
                    self.memo_hits += 1
                continue
            if self.cache is not None:
                hit = self.cache.load(SCORE_CATEGORY, self._key(fp))
                if isinstance(hit, dict) and \
                        isinstance(hit.get("cycles"), int):
                    self._memo[fp] = hit["cycles"]
                    self.cache_hits += 1
                    continue
            seen.add(fp)
            todo.append(l)
            todo_fps.append(fp)
        if todo:
            plans = [plan_layout(self.compiled, l.groups, l.linked,
                                 l.dead) for l in todo]
            scores = replay_batch(self.compiled, plans)
            self.evals += len(todo)
            for fp, cycles in zip(todo_fps, scores):
                self._memo[fp] = cycles
                if self.cache is not None:
                    self.cache.store(SCORE_CATEGORY, self._key(fp),
                                     {"cycles": cycles})
        return [self._memo[fp] for fp in fps]

    def score(self, layout: Layout) -> int:
        return self.score_batch([layout])[0]


# ---------------------------------------------------------------------------
# Neighborhood
# ---------------------------------------------------------------------------

def _mutate(layout: Layout, rng: random.Random, mode: str
            ) -> Layout | None:
    """One random neighbor: swap within a group, move a field to a new
    position, or migrate a field across groups (split-migrate).  Split
    mode keeps at most two groups with a non-empty hot group; peel
    mode may open a fresh singleton piece.  Returns None when the
    layout has no neighbor of the drawn kind."""
    groups = [list(g) for g in layout.groups]
    nfields = sum(len(g) for g in groups)
    if nfields < 2:
        return None
    kind = rng.choice(("swap", "move", "migrate", "migrate"))
    if kind == "swap":
        gi = [i for i, g in enumerate(groups) if len(g) >= 2]
        if not gi:
            kind = "migrate"
        else:
            g = groups[rng.choice(gi)]
            i, j = rng.sample(range(len(g)), 2)
            g[i], g[j] = g[j], g[i]
    if kind == "move":
        gi = [i for i, g in enumerate(groups) if len(g) >= 2]
        if not gi:
            kind = "migrate"
        else:
            g = groups[rng.choice(gi)]
            i = rng.randrange(len(g))
            f = g.pop(i)
            j = rng.randrange(len(g) + 1)
            g.insert(j, f)
    if kind == "migrate":
        src_ok = [i for i, g in enumerate(groups)
                  if len(g) >= (2 if i == 0 else 1)]
        if not src_ok:
            return None
        si = rng.choice(src_ok)
        if mode == "split":
            max_groups = 2
            can_open = len(groups) < max_groups
        else:
            can_open = True
        targets = [i for i in range(len(groups)) if i != si]
        if can_open and nfields > 1:
            targets.append(len(groups))
        if not targets:
            return None
        ti = rng.choice(targets)
        f = groups[si].pop(rng.randrange(len(groups[si])))
        if ti == len(groups):
            groups.append([f])
        else:
            t = groups[ti]
            t.insert(rng.randrange(len(t) + 1), f)
        groups = [g for g in groups if g]
    linked = layout.linked if mode == "split" else False
    if mode == "split":
        linked = len(groups) == 2
    return Layout(tuple(tuple(g) for g in groups), linked, layout.dead)


# ---------------------------------------------------------------------------
# Simulated annealing
# ---------------------------------------------------------------------------

def anneal(oracle: LayoutOracle, start: Layout, mode: str, opts,
           rng: random.Random, deadline: float | None = None):
    """Batched SA from ``start``; returns ``(best_layout, best_score,
    stats)``.  Geometric cooling ``T *= sa_alpha`` from ``sa_tmax``
    down to ``sa_tmin``, then restart from the incumbent (up to
    ``sa_restarts`` times).  Anytime: the deadline is honored between
    batches and the incumbent is always returned."""
    batch = max(int(_opt(opts, "sa_batch")), 1)
    alpha = float(_opt(opts, "sa_alpha"))
    tmax = float(_opt(opts, "sa_tmax"))
    tmin = float(_opt(opts, "sa_tmin"))
    max_iters = max(int(_opt(opts, "sa_iters")), 1)
    max_restarts = max(int(_opt(opts, "sa_restarts")), 0)

    cur = start
    cur_s = oracle.score(start)
    best, best_s, best_fp = cur, cur_s, start.fingerprint()
    scale = max(float(cur_s), 1.0)
    t = tmax
    stats = {"batches": 0, "proposals": 0, "accepted": 0,
             "restarts": 0, "budget_expired": False}

    for _ in range(max_iters * (max_restarts + 1)):
        if deadline is not None and time.monotonic() >= deadline:
            stats["budget_expired"] = True
            break
        proposals: list = []
        fps = {cur.fingerprint()}
        for _try in range(batch * 4):
            if len(proposals) >= batch:
                break
            n = _mutate(cur, rng, mode)
            if n is None:
                continue
            fp = n.fingerprint()
            if fp in fps:
                continue
            fps.add(fp)
            proposals.append(n)
        if not proposals:
            break
        scores = oracle.score_batch(proposals)
        stats["batches"] += 1
        stats["proposals"] += len(proposals)
        cand, cand_s = min(
            zip(proposals, scores),
            key=lambda ls: (ls[1], ls[0].fingerprint()))
        cand_fp = cand.fingerprint()
        if (cand_s, cand_fp) < (best_s, best_fp):
            best, best_s, best_fp = cand, cand_s, cand_fp
        delta = (cand_s - cur_s) / scale
        if cand_s <= cur_s or rng.random() < math.exp(-delta / t):
            cur, cur_s = cand, cand_s
            stats["accepted"] += 1
        t *= alpha
        if t < tmin:
            if stats["restarts"] >= max_restarts:
                break
            stats["restarts"] += 1
            t = tmax
            cur, cur_s = best, best_s
    return best, best_s, stats


# ---------------------------------------------------------------------------
# Exact ordering: branch-and-bound (the pure-python ILP) + exhaustive
# ---------------------------------------------------------------------------

def _order_offsets(order, spec) -> dict:
    off = 0
    out = {}
    for name in order:
        size, align = spec[name]
        off = (off + align - 1) // align * align
        out[name] = off
        off += size
    return out


def order_cost(order, spec, groups_w, line_size: int = 128) -> float:
    """Deterministic objective for exact ordering: summed, weight-
    scaled count of distinct cache lines each affinity group touches
    under the candidate order (the line-traffic model of
    :func:`heuristics.grouping_cost`, specialized to one piece)."""
    offsets = _order_offsets(order, spec)
    cost = 0.0
    for weight, members in groups_w:
        lines = set()
        for f in members:
            o = offsets.get(f)
            if o is None:
                continue
            size = spec[f][0]
            lines.update(range(o // line_size,
                               (o + size - 1) // line_size + 1))
        if lines:
            cost += weight * len(lines)
    return cost


def _group_bound(weight: float, members, placed_offsets, spec,
                 line_size: int) -> float:
    """Admissible lower bound on one group's final line count: lines
    already pinned by placed members, or the group's total bytes
    divided by the line size, whichever is larger."""
    lines = set()
    total = 0
    for f in members:
        total += spec[f][0]
        o = placed_offsets.get(f)
        if o is not None:
            size = spec[f][0]
            lines.update(range(o // line_size,
                               (o + size - 1) // line_size + 1))
    if total == 0:
        return 0.0
    floor_lines = -(-total // line_size)
    return weight * max(len(lines), floor_lines)


def bb_order(fields, spec, groups_w, line_size: int = 128):
    """Exact minimum-cost ordering of ``fields`` by depth-first branch
    and bound over prefix assignments.  Branching follows the given
    (canonical) field order, so the result is deterministic; the bound
    sums :func:`_group_bound` over groups.  This is the ILP of the
    issue in pure python: same exact optimum, no solver dependency."""
    fields = list(fields)
    best_cost = order_cost(fields, spec, groups_w, line_size)
    best_order = list(fields)

    n = len(fields)
    prefix: list = []

    def dfs():
        nonlocal best_cost, best_order
        if len(prefix) == n:
            cost = order_cost(prefix, spec, groups_w, line_size)
            if cost < best_cost:
                best_cost = cost
                best_order = list(prefix)
            return
        placed = _order_offsets(prefix, spec)
        bound = sum(_group_bound(w, m, placed, spec, line_size)
                    for w, m in groups_w)
        if bound >= best_cost:
            # completing the prefix can only add lines; ties keep the
            # incumbent, so >= prunes safely
            return
        for f in fields:
            if f in placed:
                continue
            prefix.append(f)
            dfs()
            prefix.pop()

    dfs()
    return best_order, best_cost


def exhaustive_order(fields, spec, groups_w, line_size: int = 128):
    """Brute-force minimum over every permutation (test cross-check
    for :func:`bb_order`; first minimal permutation in iteration order
    wins, matching the solver's keep-the-incumbent tie rule)."""
    fields = list(fields)
    best_cost = order_cost(fields, spec, groups_w, line_size)
    best_order = list(fields)
    for perm in permutations(fields):
        cost = order_cost(perm, spec, groups_w, line_size)
        if cost < best_cost:
            best_cost = cost
            best_order = list(perm)
    return best_order, best_cost


def _field_spec(rec, names) -> dict:
    return {n: (max(rec.field(n).type.size, 1),
                max(rec.field(n).type.align, 1))
            for n in names}


def _profile_groups(profile, names) -> list:
    name_set = set(names)
    out = []
    for g in profile.groups:
        members = tuple(f for f in g.fields if f in name_set)
        if members:
            out.append((float(g.weight), members))
    if not out:
        # no loop-context profile: fall back to per-field hotness so
        # the objective still prefers packing hot fields together
        out = [(profile.hotness(n), (n,)) for n in names]
    return out


def ilp_layout(rec, profile, start: Layout, line_size: int,
               max_fields: int) -> tuple:
    """Exactly reorder each piece of ``start`` with :func:`bb_order`.

    Pieces never share a cache line (distinct replay regions /
    allocations), so per-piece ordering is separable and each piece
    under ``max_fields`` can be solved exactly.  Returns the reordered
    layout and a per-piece solved/skipped summary."""
    groups = []
    solved = 0
    skipped = 0
    for g in start.groups:
        if len(g) > max_fields or len(g) < 2 or \
                any(rec.field(f).is_bitfield for f in g):
            groups.append(tuple(g))
            skipped += 1
            continue
        canonical = sorted(
            g, key=lambda f: (-profile.hotness(f), f))
        spec = _field_spec(rec, g)
        order, _cost = bb_order(canonical, spec,
                                _profile_groups(profile, g), line_size)
        groups.append(tuple(order))
        solved += 1
    return Layout(tuple(groups), start.linked, start.dead), \
        {"pieces_solved": solved, "pieces_skipped": skipped}


# ---------------------------------------------------------------------------
# Per-type search driver
# ---------------------------------------------------------------------------

def search_mode(program, info, rec) -> tuple:
    """``(mode, pointer)`` for one type: ``peel`` under the single-
    global-pointer discipline, else ``split``; ``(None, reason)`` when
    the type cannot be searched at all (same §2.4 pre-checks as the
    greedy heuristics, so search honors identical legality)."""
    blockers = transform_blockers(info)
    if blockers:
        return None, blockers[0]
    if any(f.is_bitfield for f in rec.fields):
        return None, "bitfield layout is not searchable"
    pointer = None
    if len(info.global_ptr_symbols) == 1:
        pointer = info.global_ptr_symbols[0].name
    if pointer is not None and not check_peelable(program, rec,
                                                  pointer):
        return "peel", pointer
    return "split", None


def search_type(program, compiled: CompiledTrace, info, decision,
                profile, opts, cache=None,
                deadline: float | None = None) -> dict | None:
    """Search one record type; returns the stats dict (with the
    refined decision under ``"decision"``) or None when the type is
    not searchable.  The greedy decision is the floor: the refined
    decision differs only when a candidate scored strictly better."""
    t0 = time.monotonic()
    rec = info.record
    mode, pointer = search_mode(program, info, rec)
    if mode is None:
        return None
    dead = list(decision.dead_fields)
    dead_set = set(dead)
    live = [f.name for f in rec.fields if f.name not in dead_set]
    if len(live) < 2:
        return None

    engine = _opt(opts, "engine")
    max_fields = int(_opt(opts, "ilp_max_fields"))
    if engine == "auto":
        engine = "ilp" if len(live) <= max_fields else "sa"

    oracle = LayoutOracle(compiled, cache)
    greedy = layout_from_decision(decision, live)
    identity = Layout((tuple(live),), False, tuple(dead))
    greedy_s, identity_s = oracle.score_batch([greedy, identity])

    candidates = {greedy.fingerprint(): (greedy_s, greedy),
                  identity.fingerprint(): (identity_s, identity)}
    stats: dict = {
        "type": rec.name, "mode": mode, "engine": engine,
        "greedy_cycles": greedy_s, "identity_cycles": identity_s,
        "greedy_fingerprint": greedy.fingerprint(),
    }

    if engine == "sa":
        rng = random.Random(f"{_opt(opts, 'seed')}:{rec.name}")
        best, best_s, sa_stats = anneal(oracle, greedy, mode, opts,
                                        rng, deadline)
        candidates[best.fingerprint()] = (best_s, best)
        stats["sa"] = sa_stats
    elif engine == "ilp":
        line_size = compiled.cache_config.levels[-1].line_size
        for start in (greedy, identity):
            exact, ilp_stats = ilp_layout(rec, profile, start,
                                          line_size, max_fields)
            s = oracle.score(exact)
            candidates[exact.fingerprint()] = (s, exact)
            stats.setdefault("ilp", ilp_stats)
    # engine == "greedy": score the floor only (candidates as-is)

    best_fp, (best_s, best) = min(
        candidates.items(), key=lambda kv: (kv[1][0], kv[0]))
    # the "greedy" engine scores the floor for reports but never
    # refines, so enabling it is decision-identical to no search
    improved = best_s < greedy_s and engine != "greedy"
    refined = decision_from_layout(decision, best, mode, pointer,
                                   live) if improved else decision
    if improved:
        refined.notes.append(
            f"search[{engine}]: {greedy_s} -> {best_s} replay cycles")
    stats.update({
        "best_cycles": best_s,
        "best_fingerprint": best_fp,
        "improved": improved,
        "evals": oracle.evals,
        "memo_hits": oracle.memo_hits,
        "cache_hits": oracle.cache_hits,
        "elapsed_s": round(time.monotonic() - t0, 4),
        "decision": refined,
    })
    return stats


def _unguarded(name: str, fn, fallback):
    return fn()


def search_layouts(program, decisions, legality, profiles, opts,
                   trace: AccessTrace | None, cache=None,
                   step=_unguarded) -> tuple:
    """The one search driver: search every eligible type against the
    captured ``trace`` and merge the refined decisions back in
    decision order.  Returns ``(refined_decisions, stats)``, stats
    keyed by type name plus a ``_trace`` entry when there is a trace.

    A type is eligible when it has legality and profile facts, the
    trace saw it, and :func:`search_mode` allows it; ``None`` for the
    trace leaves every decision as it is.  The wall-clock budget is
    split evenly across eligible types.  ``step(name, fn, fallback)``
    runs one ``search[T]`` search and then the ``search`` merge; the
    default calls ``fn``, and the pipeline passes its guarded steps.
    """
    eligible = []
    if trace is not None:
        for d in decisions:
            info = legality.types.get(d.type_name)
            profile = profiles.get(d.type_name)
            if info is None or profile is None:
                continue
            if d.type_name not in trace.record_fields:
                continue
            if search_mode(program, info, info.record)[0] is None:
                continue
            eligible.append((d, info, profile))

    budget = float(_opt(opts, "budget_s"))
    share = budget / len(eligible) if eligible else 0.0

    def search_one(d, info, profile):
        compiled = precompile(trace, d.type_name)
        deadline = time.monotonic() + share if budget > 0 else None
        return search_type(program, compiled, info, d, profile, opts,
                           cache=cache, deadline=deadline)

    found = [step(f"search[{d.type_name}]",
                  partial(search_one, d, info, profile), lambda: None)
             for d, info, profile in eligible]

    def merge():
        refined = {d.type_name: d for d in decisions}
        stats: dict = {}
        if trace is not None:
            stats["_trace"] = {
                "ops": len(trace), "cycles": trace.cycles,
                "truncated": trace.truncated,
            }
        for (d, _info, _profile), out in zip(eligible, found):
            if out is None:
                continue
            out = dict(out)
            refined[d.type_name] = out.pop("decision")
            stats[d.type_name] = out
        return [refined[d.type_name] for d in decisions], stats

    return step("search", merge, lambda: (decisions, {}))
