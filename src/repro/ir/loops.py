"""Loop-structure graph.

Natural-loop recognition from back edges (a back edge ``n -> h`` has ``h``
dominating ``n``), merged per header, nested by containment — the loop
structure graph the paper's FE builds with the loop optimizer's loop
recognition (which is based on Havlak's algorithm; MiniC's lowering only
produces reducible CFGs, for which natural loops and Havlak loops agree).

The per-loop field-reference walk that feeds the affinity analysis lives
in :mod:`repro.profit.affinity`; this module only provides the structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast
from .cfg import BasicBlock, FunctionCFG, Edge
from .dominators import immediate_dominators, dominates


@dataclass(eq=False)
class Loop:
    header: BasicBlock
    blocks: set[BasicBlock] = field(default_factory=set)
    back_edges: list[Edge] = field(default_factory=list)
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)
    depth: int = 1

    @property
    def body_blocks(self) -> set[BasicBlock]:
        return self.blocks

    def contains(self, other: "Loop") -> bool:
        return other.header in self.blocks and \
            other.blocks <= self.blocks and other is not self

    def is_fp_loop(self) -> bool:
        """A loop is floating point when it evaluates any float-typed
        expression — the distinction ISPBO.W uses for back-edge
        probabilities (0.93/0.98 FP vs 0.88/0.95 integer)."""
        for b in self.blocks:
            for s in b.stmts:
                for e in ast.stmt_exprs(s):
                    for node in ast.walk_expr(e):
                        t = getattr(node, "type", None)
                        if t is not None and t.strip().is_float():
                            return True
            cond = b.branch_cond
            if cond is not None:
                for node in ast.walk_expr(cond):
                    t = getattr(node, "type", None)
                    if t is not None and t.strip().is_float():
                        return True
        return False

    def __repr__(self) -> str:
        return f"<Loop hdr=B{self.header.id} depth={self.depth} " \
               f"blocks={sorted(b.id for b in self.blocks)}>"


@dataclass
class LoopNest:
    """All loops of one function plus nesting structure."""

    cfg: FunctionCFG
    loops: list[Loop] = field(default_factory=list)
    top_level: list[Loop] = field(default_factory=list)
    #: innermost loop containing each block (None for straight-line code)
    block_loop: dict[BasicBlock, Loop | None] = field(default_factory=dict)

    def loop_of(self, b: BasicBlock) -> Loop | None:
        return self.block_loop.get(b)

    def depth_of(self, b: BasicBlock) -> int:
        loop = self.loop_of(b)
        return loop.depth if loop is not None else 0

    def straight_line_blocks(self) -> list[BasicBlock]:
        """Blocks outside every loop — they form the function's
        'remaining straight line code' affinity group."""
        return [b for b in self.cfg.reachable_blocks()
                if self.block_loop.get(b) is None]


def find_loops(cfg: FunctionCFG) -> LoopNest:
    """Build the loop-structure graph of a function."""
    idom = immediate_dominators(cfg)
    reachable = set(cfg.reachable_blocks())

    # 1. back edges and natural loop bodies, merged per header
    loops_by_header: dict[BasicBlock, Loop] = {}
    for b in cfg.blocks:
        if b not in reachable:
            continue
        for e in b.succs:
            h = e.dst
            if h in reachable and dominates(idom, h, b):
                loop = loops_by_header.get(h)
                if loop is None:
                    loop = Loop(header=h, blocks={h})
                    loops_by_header[h] = loop
                loop.back_edges.append(e)
                _collect_body(loop, b)

    loops = list(loops_by_header.values())

    # 2. nesting by containment: parent = smallest strictly containing loop
    for inner in loops:
        best: Loop | None = None
        for outer in loops:
            if outer.contains(inner):
                if best is None or len(outer.blocks) < len(best.blocks):
                    best = outer
        inner.parent = best
        if best is not None:
            best.children.append(inner)

    nest = LoopNest(cfg=cfg, loops=loops)
    nest.top_level = [l for l in loops if l.parent is None]

    # 3. depths (an explicit stack: a recursive closure would leave a
    # reference cycle behind on every call)
    stack = [(l, 1) for l in nest.top_level]
    while stack:
        loop, depth = stack.pop()
        loop.depth = depth
        stack.extend((child, depth + 1) for child in loop.children)

    # 4. innermost loop per block
    for b in reachable:
        innermost: Loop | None = None
        for loop in loops:
            if b in loop.blocks:
                if innermost is None or loop.depth > innermost.depth:
                    innermost = loop
        nest.block_loop[b] = innermost

    return nest


def _collect_body(loop: Loop, tail: BasicBlock) -> None:
    """Add all blocks of the natural loop of back edge ``tail -> header``."""
    stack = [tail]
    while stack:
        b = stack.pop()
        if b in loop.blocks:
            continue
        loop.blocks.add(b)
        stack.extend(b.pred_blocks())
