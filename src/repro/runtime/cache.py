"""Set-associative cache hierarchy simulator.

Models the Itanium 2 memory system the paper measured on, with one
deliberate twist taken straight from the paper (§3.2): floating-point
accesses bypass the L1 data cache — "the counts refer to the first level
of cache for a given operation — L2 for floating point values and L1 for
everything else on Itanium".

Capacities default to a 64x-scaled-down hierarchy so that the interpreted
workloads (10^5..10^7 accesses) cross the same capacity boundaries the
paper's native runs crossed; pass :data:`ITANIUM2_FULL` for the real
sizes.  An optional stride prefetcher supports the §2.4 stride-hint
ablation.

The LRU walk is written once, as the source :func:`emit_walk` emits:
:class:`CacheHierarchy` compiles it, once per config, into its
``access``, and the replay oracle (:mod:`repro.runtime.replay`) into
its batched loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache


@dataclass(frozen=True)
class CacheLevelConfig:
    name: str
    size: int              # bytes
    ways: int
    line_size: int         # bytes
    latency: int           # cycles to service a hit at this level
    fp_bypass: bool = False  # FP accesses skip this level

    @property
    def num_sets(self) -> int:
        return max(self.size // (self.ways * self.line_size), 1)

    @property
    def line_bits(self) -> int:
        bits = self.line_size.bit_length() - 1
        if self.line_size != 1 << bits:
            raise ValueError(f"{self.name}: line size {self.line_size} "
                             f"is not a power of two")
        return bits


@dataclass(frozen=True)
class CacheConfig:
    levels: tuple[CacheLevelConfig, ...]
    memory_latency: int = 200
    prefetch: bool = False          # stride prefetcher on loads
    prefetch_degree: int = 1

    def scaled(self, factor: int) -> "CacheConfig":
        """Return a copy with every capacity divided by ``factor``."""
        levels = tuple(
            replace(l, size=max(l.size // factor,
                                l.ways * l.line_size))
            for l in self.levels)
        return replace(self, levels=levels)

    def path(self, is_float) -> tuple[int, ...]:
        """Indices of the levels an access walks, first level first:
        an FP access skips the ``fp_bypass`` levels."""
        return tuple(i for i, l in enumerate(self.levels)
                     if not (is_float and l.fp_bypass))


#: The rx2600's Itanium 2 hierarchy (1.5 GHz, 6 MB L3 on-die; the paper
#: calls the 6 MB level "L2" loosely — it is the last level cache).
ITANIUM2_FULL = CacheConfig(levels=(
    CacheLevelConfig("L1D", 16 * 1024, 4, 64, 1, fp_bypass=True),
    CacheLevelConfig("L2", 256 * 1024, 8, 128, 6),
    CacheLevelConfig("L3", 6 * 1024 * 1024, 12, 128, 14),
))

#: Default scaled hierarchy for interpreter-sized working sets.
#:
#: Capacities are reduced so that 100 KB–1 MB simulated working sets
#: cross the same L2/L3/memory boundaries the paper's native runs
#: crossed, while every level keeps a sane set structure (a naive ÷64
#: of the L1 would leave a single set, which punishes multi-stream
#: sweeps for a reason real hardware doesn't have).
ITANIUM2_SCALED = CacheConfig(levels=(
    CacheLevelConfig("L1D", 2 * 1024, 4, 64, 1, fp_bypass=True),
    CacheLevelConfig("L2", 16 * 1024, 8, 128, 6),
    CacheLevelConfig("L3", 128 * 1024, 12, 128, 14),
))


def emit_walk(w, addr: str, cfg: CacheConfig, is_float: bool,
              indent: str, serve: str, slot: int = 0) -> None:
    """Emit, through ``w``, the LRU walk of one access to ``addr``.

    The walk goes down ``cfg.path(is_float)``; level ``i``'s sets are
    the generated code's list ``s{i}`` (:func:`new_sets`).  A hit
    moves its line to the end of its set.  A miss appends the line,
    evicts the set's first tag, and falls through to the next level as
    a nested ``else``.  Where the access is served — at ``depth`` on
    the path, ``len(path)`` for memory — the walk emits the statement
    ``serve`` with ``{slot}`` filled in as ``slot + depth`` and
    ``{latency}`` as the access's total latency."""
    path = cfg.path(is_float)
    latency = 0
    for depth, i in enumerate(path):
        level = cfg.levels[i]
        ind = indent + "    " * depth
        latency += level.latency
        w(f"{ind}line = {addr} >> {level.line_bits}")
        ns = level.num_sets
        index = f"line & {ns - 1}" if ns & (ns - 1) == 0 \
            else f"line % {ns}"
        w(f"{ind}s = s{i}[{index}]")
        w(f"{ind}if line in s:")
        w(f"{ind}    if s[-1] != line:")
        w(f"{ind}        s.remove(line)")
        w(f"{ind}        s.append(line)")
        w(f"{ind}    " + serve.format(slot=slot + depth, latency=latency))
        w(f"{ind}else:")
        w(f"{ind}    s.append(line)")
        w(f"{ind}    del s[0]")
    w(indent + "    " * len(path) + serve.format(
        slot=slot + len(path), latency=latency + cfg.memory_latency))


def new_sets(level: CacheLevelConfig) -> list[list]:
    """Empty sets of one level: each a list of exactly ``ways`` line
    tags, least recently used first, with None for the ways not yet
    filled (no line equals None), so a fill always evicts one tag."""
    return [[None] * level.ways for _ in range(level.num_sets)]


def build(src: list[str], name: str, **env):
    """Execute generated source with ``env`` as its globals and return
    the function ``name`` it defines."""
    exec("\n".join(src), env)     # noqa: S102 — generated code
    return env[name]


@lru_cache(maxsize=32)
def _access_factory(cfg: CacheConfig):
    """``make(sets, counts, prefetch)`` for one config: it returns the
    ``access`` of one :class:`CacheHierarchy`, which counts each
    access in the slot of the path and depth that served it."""
    # a prefetching access still has the prefetcher to run
    serve = "counts[{slot}] += 1; " \
        + ("lat = {latency}" if cfg.prefetch else "return {latency}")
    src: list[str] = []
    w = src.append
    w("def make(sets, counts, prefetch):")
    for i in range(len(cfg.levels)):
        w(f"    s{i} = sets[{i}]")
    w("    def access(addr, is_float=False, is_write=False, site=0):")
    w("        if is_float:")
    emit_walk(w, "addr", cfg, True, " " * 12, serve,
              len(cfg.path(False)) + 1)
    w("        else:")
    emit_walk(w, "addr", cfg, False, " " * 12, serve)
    if cfg.prefetch:
        w("        if site and not is_write:")
        w("            prefetch(addr, site)")
        w("        return lat")
    w("    return access")
    return build(src, "make")


class CacheHierarchy:
    """The full hierarchy.

    ``access(addr, is_float=False, is_write=False, site=0)`` walks one
    access and returns its latency.  The only counters are ``counts``,
    one slot per path and level that can serve an access on it: the
    integer path's levels then memory, then the FP path's levels then
    memory.  :meth:`stats` derives hits, misses, the access count and
    the total latency from them, and the PMU reads from them whether
    the first level served an access (:meth:`first_level_slot`)."""

    __slots__ = ("config", "sets", "counts", "prefetches", "_strides",
                 "access")

    def __init__(self, config: CacheConfig = ITANIUM2_SCALED):
        self.config = config
        self.sets = [new_sets(l) for l in config.levels]
        self.counts = [0] * (len(config.path(False))
                             + len(config.path(True)) + 2)
        self.prefetches = 0
        # stride prefetcher state: site -> (last_addr, last_stride)
        self._strides: dict[int, tuple[int, int]] = {}
        # the prefetcher only where configured: a bound method in the
        # closure is a cycle the collector would have to free
        self.access = _access_factory(config)(
            self.sets, self.counts, config.prefetch and self._prefetch)

    def first_level_slot(self, is_float) -> int | None:
        """The ``counts`` slot of the accesses the first level of the
        path served; None for a path with no level, whose accesses all
        go to memory."""
        if not self.config.path(is_float):
            return None
        return len(self.config.path(False)) + 1 if is_float else 0

    def _prefetch(self, addr: int, site: int) -> None:
        prev = self._strides.get(site)
        if prev is not None:
            last_addr, last_stride = prev
            stride = addr - last_addr
            if stride != 0 and stride == last_stride:
                line_bits = self.config.levels[-1].line_bits
                for i in range(1, self.config.prefetch_degree + 1):
                    target = addr + stride * i
                    if (target >> line_bits) != (addr >> line_bits):
                        self._install(target)
                        self.prefetches += 1
                        break
            self._strides[site] = (addr, stride)
        else:
            self._strides[site] = (addr, 0)

    def _install(self, addr: int) -> None:
        """Install ``addr``'s line in every level without counting a
        demand access."""
        for level, sets in zip(self.config.levels, self.sets):
            line = addr >> level.line_bits
            s = sets[line % level.num_sets]
            if line not in s:
                s.append(line)
                del s[0]

    # -- reporting --------------------------------------------------------

    def stats(self) -> dict[str, dict[str, int | float]]:
        levels = self.config.levels
        hits = [0] * len(levels)
        misses = [0] * len(levels)
        latency = 0
        slot = 0
        for is_float in (False, True):
            path = self.config.path(is_float)
            served = self.counts[slot:slot + len(path) + 1]
            slot += len(path) + 1
            walked = 0
            for depth, i in enumerate(path):
                walked += levels[i].latency
                hits[i] += served[depth]
                misses[i] += sum(served[depth + 1:])
                latency += served[depth] * walked
            latency += served[-1] * (walked + self.config.memory_latency)
        out: dict[str, dict[str, int | float]] = {}
        for level, h, m in zip(levels, hits, misses):
            out[level.name] = {
                "hits": h, "misses": m,
                "miss_rate": m / (h + m) if h + m else 0.0,
            }
        out["total"] = {
            "accesses": sum(self.counts),
            "latency": latency,
            "prefetches": self.prefetches,
        }
        return out

    def reset_stats(self) -> None:
        self.counts[:] = [0] * len(self.counts)   # in place: access holds it
        self.prefetches = 0
