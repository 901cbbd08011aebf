"""Execution-weight estimation: the paper's §2.3 weighting mechanisms.

Every scheme produces the same data structure — per-function global block
and edge execution counts — so the affinity/hotness machinery downstream
is scheme-agnostic, exactly as in the paper:

- **SPBO** — static per-procedure estimation after Wu–Larus: loop
  back edges keep probability 0.88 (0.93 for floating-point loops),
  if-then-else branches split 50/50.  Block frequencies solve the linear
  flow system exactly (the paper's "about 8 times on average" per loop
  falls out of 1/(1-0.88) ≈ 8.3).
- **ISPBO** — SPBO scaled inter-procedurally: execution counts propagate
  top-down over the call graph (``N_g(main) = 1``, ``N_g(f) = Σ E_g(c)``)
  with recursion handled via SCC condensation, and the derived scaling
  factor ``S`` is raised to an exponent ``E = 1.5`` to improve hot/cold
  separability.  ``ISPBO.NO`` is the same with ``E = 1``.
- **ISPBO.W** — ISPBO.NO with raised back-edge probabilities
  (0.95 integer / 0.98 FP), the alternative §2.3 compares against.
- **PBO / PPBO** — measured edge counts from a feedback file
  (training / reference input respectively); see
  :mod:`repro.profit.feedback`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir.cfg import FunctionCFG
from ..ir.callgraph import CallGraph
from ..ir.loops import LoopNest, find_loops

#: default Wu–Larus-style back-edge probabilities (stay-in-loop)
BACK_PROB_INT = 0.88
BACK_PROB_FP = 0.93
#: the raised probabilities of the ISPBO.W experiment
BACK_PROB_INT_W = 0.95
BACK_PROB_FP_W = 0.98
#: the ISPBO separability exponent
ISPBO_EXPONENT = 1.5
#: cap on loop multipliers to keep the flow system well-conditioned
MAX_STAY_PROB = 0.999


@dataclass
class FunctionWeights:
    """Global execution counts for one function."""

    name: str
    block: dict[int, float] = field(default_factory=dict)
    edge: dict[tuple[int, int], float] = field(default_factory=dict)
    entry_count: float = 1.0

    def block_count(self, block_id: int) -> float:
        return self.block.get(block_id, 0.0)

    def scaled(self, factor: float) -> "FunctionWeights":
        return FunctionWeights(
            name=self.name,
            block={k: v * factor for k, v in self.block.items()},
            edge={k: v * factor for k, v in self.edge.items()},
            entry_count=self.entry_count * factor)


@dataclass
class ProgramWeights:
    """Per-function weights under one estimation scheme."""

    scheme: str
    functions: dict[str, FunctionWeights] = field(default_factory=dict)

    def of(self, fn_name: str) -> FunctionWeights | None:
        return self.functions.get(fn_name)

    def block_count(self, fn_name: str, block_id: int) -> float:
        fw = self.functions.get(fn_name)
        return fw.block_count(block_id) if fw is not None else 0.0


# ---------------------------------------------------------------------------
# Local (per-procedure) static estimation
# ---------------------------------------------------------------------------

def edge_probabilities(cfg: FunctionCFG, nest: LoopNest,
                       back_prob_int: float = BACK_PROB_INT,
                       back_prob_fp: float = BACK_PROB_FP
                       ) -> dict[tuple[int, int], float]:
    """Assign a probability to every CFG edge.

    Branches with exactly one loop-leaving successor give the staying
    edge the back-edge probability of the (FP-aware) innermost loop;
    every other branch splits 50/50; unconditional edges get 1.0.
    """
    probs: dict[tuple[int, int], float] = {}
    fp_cache: dict[int, bool] = {}

    def loop_is_fp(loop) -> bool:
        key = id(loop)
        if key not in fp_cache:
            fp_cache[key] = loop.is_fp_loop()
        return fp_cache[key]

    for b in cfg.blocks:
        succs = b.succs
        if not succs:
            continue
        if len(succs) == 1:
            probs[succs[0].key] = 1.0
            continue
        loop = nest.loop_of(b)
        if loop is not None:
            stays = [e for e in succs if e.dst in loop.blocks]
            leaves = [e for e in succs if e.dst not in loop.blocks]
            if len(stays) == 1 and len(leaves) == 1:
                p = back_prob_fp if loop_is_fp(loop) else back_prob_int
                probs[stays[0].key] = p
                probs[leaves[0].key] = 1.0 - p
                continue
        share = 1.0 / len(succs)
        for e in succs:
            probs[e.key] = share
    return probs


def estimate_local(cfg: FunctionCFG, nest: LoopNest | None = None,
                   back_prob_int: float = BACK_PROB_INT,
                   back_prob_fp: float = BACK_PROB_FP) -> FunctionWeights:
    """Solve the flow system for local block frequencies (entry = 1)."""
    if nest is None:
        nest = find_loops(cfg)
    probs = edge_probabilities(cfg, nest, back_prob_int, back_prob_fp)
    blocks = cfg.reachable_blocks()
    index = {b.id: i for i, b in enumerate(blocks)}
    n = len(blocks)

    # f = e + P^T f  =>  (I - P^T) f = e
    def build(clamp: float) -> np.ndarray:
        mat = np.eye(n)
        for b in blocks:
            for e in b.succs:
                if e.dst.id not in index:
                    continue
                p = min(probs.get(e.key, 0.0), clamp)
                mat[index[e.dst.id], index[b.id]] -= p
        return mat

    rhs = np.zeros(n)
    rhs[index[cfg.entry.id]] = 1.0
    try:
        freq = np.linalg.solve(build(1.0), rhs)
        if not np.all(np.isfinite(freq)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # probability-1 cycles (infinite loops) make the exact system
        # singular; damp them just enough to invert
        try:
            freq = np.linalg.solve(build(MAX_STAY_PROB), rhs)
        except np.linalg.LinAlgError:
            freq = np.linalg.lstsq(build(MAX_STAY_PROB), rhs,
                                   rcond=None)[0]
    freq = np.maximum(freq, 0.0)

    fw = FunctionWeights(name=cfg.name, entry_count=1.0)
    for b in blocks:
        fw.block[b.id] = float(freq[index[b.id]])
    for b in blocks:
        for e in b.succs:
            fw.edge[e.key] = fw.block[b.id] * probs.get(e.key, 0.0)
    return fw


def estimate_spbo(cfgs: dict[str, FunctionCFG],
                  nests: dict[str, LoopNest] | None = None,
                  back_prob_int: float = BACK_PROB_INT,
                  back_prob_fp: float = BACK_PROB_FP,
                  scheme: str = "SPBO") -> ProgramWeights:
    """Purely local static estimation for every function."""
    pw = ProgramWeights(scheme=scheme)
    for name, cfg in cfgs.items():
        nest = nests.get(name) if nests else None
        pw.functions[name] = estimate_local(
            cfg, nest, back_prob_int, back_prob_fp)
    return pw


# ---------------------------------------------------------------------------
# Inter-procedural scaling (ISPBO)
# ---------------------------------------------------------------------------

def propagate_call_counts(local: ProgramWeights, callgraph: CallGraph,
                          entry: str = "main") -> dict[str, float]:
    """Top-down propagation of global function execution counts.

    ``N_g(main) = 1``; for every other function ``N_g(f) = Σ E_g(c)``
    over its incoming call sites, where a call site's global count is its
    block's local frequency scaled by the caller's ``N_g``.  Recursive
    SCCs are handled by summing only SCC-external incoming counts for
    every member (the condensation is processed in topological order).
    """
    n_g: dict[str, float] = {name: 0.0 for name in callgraph.cfgs}
    if entry in n_g:
        n_g[entry] = 1.0

    sccs = callgraph.topo_order()
    membership: dict[str, int] = {}
    for i, scc in enumerate(sccs):
        for name in scc:
            membership[name] = i
    # call sites by callee, each list in site order, so every callee
    # sums its incoming counts in the same order as a scan of all sites
    sites_to: dict[str, list] = {}
    for site in callgraph.sites:
        sites_to.setdefault(site.callee, []).append(site)

    for i, scc in enumerate(sccs):
        for name in scc:
            if name == entry:
                n_g[name] = max(n_g[name], 1.0)
        # accumulate external incoming counts
        for callee in scc:
            for site in sites_to.get(callee, ()):
                if membership.get(site.caller, i) == i:
                    continue
                caller_w = local.of(site.caller)
                if caller_w is None:
                    continue
                e_loc = caller_w.block_count(site.block.id)
                n_g[callee] = n_g.get(callee, 0.0) + \
                    e_loc * n_g.get(site.caller, 0.0)
    return n_g


def estimate_ispbo(cfgs: dict[str, FunctionCFG], callgraph: CallGraph,
                   nests: dict[str, LoopNest] | None = None,
                   exponent: float = ISPBO_EXPONENT,
                   back_prob_int: float = BACK_PROB_INT,
                   back_prob_fp: float = BACK_PROB_FP,
                   entry: str = "main",
                   scheme: str | None = None) -> ProgramWeights:
    """Inter-procedurally scaled static estimation.

    ``exponent`` is the separability exponent ``E``; pass 1.0 for the
    paper's ISPBO.NO reference.
    """
    local = estimate_spbo(cfgs, nests, back_prob_int, back_prob_fp)
    n_g = propagate_call_counts(local, callgraph, entry)
    if scheme is None:
        scheme = "ISPBO" if exponent != 1.0 else "ISPBO.NO"
    pw = ProgramWeights(scheme=scheme)
    for name, fw in local.functions.items():
        s = n_g.get(name, 0.0)
        factor = s ** exponent if s > 0.0 else 0.0
        pw.functions[name] = fw.scaled(factor)
    return pw


def estimate_ispbo_w(cfgs: dict[str, FunctionCFG], callgraph: CallGraph,
                     nests: dict[str, LoopNest] | None = None,
                     entry: str = "main") -> ProgramWeights:
    """The ISPBO.W experiment: raised back-edge probabilities, no
    exponent — §2.3 uses it to validate the exponent approximation."""
    return estimate_ispbo(
        cfgs, callgraph, nests, exponent=1.0,
        back_prob_int=BACK_PROB_INT_W, back_prob_fp=BACK_PROB_FP_W,
        entry=entry, scheme="ISPBO.W")


# ---------------------------------------------------------------------------
# Measured weights (PBO use phase)
# ---------------------------------------------------------------------------

def weights_from_edge_counts(cfgs: dict[str, FunctionCFG],
                             edge_counts: dict[tuple[str, int, int], float],
                             scheme: str = "PBO") -> ProgramWeights:
    """Turn measured CFG edge counts into block/edge weights."""
    pw = ProgramWeights(scheme=scheme)
    for name, cfg in cfgs.items():
        fw = FunctionWeights(name=name)
        for (f, src, dst), count in edge_counts.items():
            if f != name:
                continue
            fw.edge[(src, dst)] = fw.edge.get((src, dst), 0.0) + count
        for b in cfg.blocks:
            incoming = sum(fw.edge.get((e.src.id, b.id), 0.0)
                           for e in b.preds)
            outgoing = sum(fw.edge.get((b.id, e.dst.id), 0.0)
                           for e in b.succs)
            fw.block[b.id] = max(incoming, outgoing)
        fw.entry_count = fw.block.get(cfg.entry.id, 0.0)
        pw.functions[name] = fw
    return pw
