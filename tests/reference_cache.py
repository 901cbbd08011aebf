"""The hand-written cache hierarchy, kept as the parity reference.

This is the per-level loop ``repro.runtime.cache.CacheHierarchy`` ran
before its walk was generated from one emitter, kept as it was (less
the counters nothing read) so the tests can compare the generated
walk against it access by access: ``access`` returns ``(latency,
level_idx)``, ``level_idx`` being the level that served the access
(``-1`` for main memory).
"""

from __future__ import annotations

from repro.runtime.cache import CacheConfig, CacheLevelConfig


class CacheLevel:
    """One set-associative level with LRU replacement."""

    def __init__(self, config: CacheLevelConfig):
        self.config = config
        self.line_bits = config.line_size.bit_length() - 1
        assert (1 << self.line_bits) == config.line_size, \
            "line size must be a power of two"
        self.num_sets = config.num_sets
        # Each set: list of tags, most recently used last.
        self.sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch the line containing ``addr``; True on hit."""
        line = addr >> self.line_bits
        s = self.sets[line % self.num_sets]
        if line in s:
            self.hits += 1
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            return True
        self.misses += 1
        s.append(line)
        if len(s) > self.config.ways:
            s.pop(0)
        return False

    def install(self, addr: int) -> None:
        """Install a line without counting a demand access (prefetch)."""
        line = addr >> self.line_bits
        s = self.sets[line % self.num_sets]
        if line in s:
            return
        s.append(line)
        if len(s) > self.config.ways:
            s.pop(0)

    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class ReferenceHierarchy:
    """The full hierarchy, one level at a time."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.levels = [CacheLevel(l) for l in config.levels]
        self.accesses = 0
        self.total_latency = 0
        self.prefetches = 0
        # stride prefetcher state: site -> (last_addr, last_stride)
        self._strides: dict[int, tuple[int, int]] = {}

    def access(self, addr: int, is_float: bool = False,
               is_write: bool = False, site: int = 0) -> tuple[int, int]:
        self.accesses += 1
        latency = 0
        serviced = -1
        for idx, level in enumerate(self.levels):
            if is_float and level.config.fp_bypass:
                continue
            latency += level.config.latency
            if level.access(addr):
                serviced = idx
                break
        else:
            latency += self.config.memory_latency
        self.total_latency += latency
        if self.config.prefetch and not is_write and site:
            self._prefetch(addr, site)
        return latency, serviced

    def _prefetch(self, addr: int, site: int) -> None:
        prev = self._strides.get(site)
        if prev is not None:
            last_addr, last_stride = prev
            stride = addr - last_addr
            if stride != 0 and stride == last_stride:
                line_bits = self.levels[-1].line_bits
                for i in range(1, self.config.prefetch_degree + 1):
                    target = addr + stride * i
                    if (target >> line_bits) != (addr >> line_bits):
                        for level in self.levels:
                            level.install(target)
                        self.prefetches += 1
                        break
            self._strides[site] = (addr, stride)
        else:
            self._strides[site] = (addr, 0)

    def stats(self) -> dict[str, dict[str, int | float]]:
        out: dict[str, dict[str, int | float]] = {}
        for l in self.levels:
            out[l.config.name] = {
                "hits": l.hits, "misses": l.misses,
                "miss_rate": l.miss_rate(),
            }
        out["total"] = {
            "accesses": self.accesses,
            "latency": self.total_latency,
            "prefetches": self.prefetches,
        }
        return out
