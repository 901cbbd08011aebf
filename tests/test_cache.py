"""Cache hierarchy simulator tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.cache import (
    CacheConfig, CacheLevelConfig, CacheHierarchy,
    ITANIUM2_FULL, ITANIUM2_SCALED,
)

from .reference_cache import ReferenceHierarchy


def tiny_config(prefetch=False):
    return CacheConfig(levels=(
        CacheLevelConfig("L1D", 256, 2, 64, 1, fp_bypass=True),
        CacheLevelConfig("L2", 1024, 4, 128, 6),
    ), memory_latency=100, prefetch=prefetch)


def one_level(size=256, ways=2, line=64):
    return CacheHierarchy(CacheConfig(
        levels=(CacheLevelConfig("L", size, ways, line, 1),),
        memory_latency=100))


class TestCacheLevel:
    """One level, walked through a one-level hierarchy: a hit costs
    the level's latency, a miss the level plus memory."""

    def test_first_access_misses(self):
        h = one_level()
        assert h.access(0x1000) == 101
        assert h.stats()["L"]["misses"] == 1

    def test_second_access_hits(self):
        h = one_level()
        h.access(0x1000)
        assert h.access(0x1000) == 1
        assert h.stats()["L"]["hits"] == 1

    def test_same_line_hits(self):
        h = one_level()
        h.access(0x1000)
        assert h.access(0x103F) == 1       # same 64B line

    def test_lru_eviction(self):
        # 2-way: three conflicting lines evict the least recent
        h = one_level(size=128)            # 1 set
        h.access(0x0000)
        h.access(0x1000)
        h.access(0x2000)                   # evicts 0x0000
        assert h.access(0x0000) == 101

    def test_lru_touch_refreshes(self):
        h = one_level(size=128)
        h.access(0x0000)
        h.access(0x1000)
        h.access(0x0000)                   # refresh 0x0000
        h.access(0x2000)                   # evicts 0x1000, not 0x0000
        assert h.access(0x0000) == 1

    def test_miss_rate(self):
        h = one_level()
        h.access(0x0)
        h.access(0x0)
        assert h.stats()["L"]["miss_rate"] == 0.5


def serviced(h, addr, is_float=False):
    """(latency, index of the level that served it, -1 for memory),
    the serving level read off ``stats()``."""
    before = h.stats()
    lat = h.access(addr, is_float=is_float)
    after = h.stats()
    names = [l.name for l in h.config.levels]
    hit = [i for i, n in enumerate(names)
           if after[n]["hits"] > before[n]["hits"]]
    return lat, hit[0] if hit else -1


class TestHierarchy:
    def test_cold_miss_pays_memory_latency(self):
        h = CacheHierarchy(tiny_config())
        lat, level = serviced(h, 0x1000)
        assert level == -1
        assert lat == 1 + 6 + 100

    def test_l1_hit_is_cheap(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000)
        lat, level = serviced(h, 0x1000)
        assert level == 0 and lat == 1

    def test_fp_bypasses_l1(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000, is_float=True)
        lat, level = serviced(h, 0x1000, is_float=True)
        assert level == 1           # serviced by L2
        assert lat == 6             # no L1 latency component
        l1 = h.stats()["L1D"]
        assert l1["hits"] + l1["misses"] == 0

    def test_int_after_fp_misses_l1(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x1000, is_float=True)
        lat, level = serviced(h, 0x1000, is_float=False)
        assert level == 1           # L1 cold, L2 warm

    def test_stats_shape(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x0)
        stats = h.stats()
        assert "L1D" in stats and "total" in stats
        assert stats["total"]["accesses"] == 1

    def test_reset_stats(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x0)
        h.reset_stats()
        assert h.stats()["total"]["accesses"] == 0
        assert h.stats()["L1D"]["misses"] == 0

    def test_level_lookup(self):
        h = CacheHierarchy(tiny_config())
        assert list(h.stats()) == ["L1D", "L2", "total"]

    def test_total_latency_accumulates(self):
        h = CacheHierarchy(tiny_config())
        h.access(0x0)
        h.access(0x0)
        assert h.stats()["total"]["latency"] == (107) + 1


class TestPrefetcher:
    def test_stride_prefetch_installs_next_line(self):
        h = CacheHierarchy(tiny_config(prefetch=True))
        # constant stride of one line, same site
        for i in range(4):
            h.access(0x1000 + i * 128, site=7)
        assert h.prefetches > 0

    @pytest.mark.parametrize("line", [64, 128])
    def test_prefetch_uses_last_level_line_size(self, line):
        """16 loads one last-level line apart from one site: once the
        stride is stable (from the third load on) every load's next
        target sits on another line, whatever the configured size."""
        h = CacheHierarchy(CacheConfig(levels=(
            CacheLevelConfig("L1D", 256, 2, 64, 1),
            CacheLevelConfig("L2", 1024, 4, line, 6),
        ), memory_latency=100, prefetch=True))
        for i in range(16):
            h.access(0x1000 + i * line, site=7)
        assert h.prefetches == 14

    def test_no_prefetch_without_stable_stride(self):
        h = CacheHierarchy(tiny_config(prefetch=True))
        for addr in (0x1000, 0x5000, 0x2000, 0x9000):
            h.access(addr, site=7)
        assert h.prefetches == 0

    def test_prefetch_disabled_by_default(self):
        h = CacheHierarchy(tiny_config())
        for i in range(8):
            h.access(0x1000 + i * 128, site=7)
        assert h.prefetches == 0


class TestConfigs:
    def test_full_itanium_sizes(self):
        names = [l.name for l in ITANIUM2_FULL.levels]
        assert names == ["L1D", "L2", "L3"]
        assert ITANIUM2_FULL.levels[2].size == 6 * 1024 * 1024

    def test_scaled_preserves_structure(self):
        for lvl in ITANIUM2_SCALED.levels:
            assert lvl.num_sets >= 8

    def test_scaled_method(self):
        cfg = ITANIUM2_FULL.scaled(4)
        assert cfg.levels[0].size == 4 * 1024

    def test_l1_bypass_flag(self):
        assert ITANIUM2_SCALED.levels[0].fp_bypass
        assert not ITANIUM2_SCALED.levels[1].fp_bypass


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
def test_hits_plus_misses_equals_accesses(addrs):
    h = CacheHierarchy(tiny_config())
    for a in addrs:
        h.access(a)
    l1 = h.stats()["L1D"]
    assert l1["hits"] + l1["misses"] == len(addrs)


@given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100))
def test_repeating_sequence_second_pass_no_worse(addrs):
    """Re-running the same short trace can only produce >= hits."""
    h = CacheHierarchy(tiny_config())
    for a in addrs:
        h.access(a)
    first_hits = h.stats()["L2"]["hits"]
    for a in addrs:
        h.access(a)
    assert h.stats()["L2"]["hits"] >= first_hits


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100),
       st.booleans())
def test_latency_positive_and_bounded(addrs, is_float):
    h = CacheHierarchy(tiny_config())
    worst = 1 + 6 + 100
    for a in addrs:
        lat, level = serviced(h, a, is_float=is_float)
        assert 0 < lat <= worst
        assert -1 <= level < len(h.config.levels)


level_configs = st.builds(
    lambda i, sets, ways, line_bits, latency, fp_bypass:
        CacheLevelConfig(f"L{i}", sets * ways << line_bits, ways,
                         1 << line_bits, latency, fp_bypass),
    st.integers(1, 9), st.integers(1, 7), st.integers(1, 4),
    st.integers(4, 7), st.integers(0, 15), st.booleans())

geometries = st.builds(
    lambda lvls, memory, prefetch, degree: CacheConfig(
        levels=tuple(lvls), memory_latency=memory, prefetch=prefetch,
        prefetch_degree=degree),
    st.lists(level_configs, min_size=1, max_size=3,
             unique_by=lambda l: l.name),
    st.integers(0, 300), st.booleans(), st.integers(1, 3))

#: sweeps of 1-6 accesses from one site, ``stride`` bytes apart, so
#: the prefetcher sees stable strides; starting in one KiB, so sets
#: conflict, evict and refresh within a short stream
accesses = st.lists(
    st.tuples(st.integers(0, 1 << 10), st.integers(-256, 256),
              st.integers(1, 6), st.booleans(), st.booleans(),
              st.integers(0, 3)),
    min_size=5, max_size=60,
).map(lambda sweeps: [(start + k * stride, is_float, is_write, site)
                      for start, stride, n, is_float, is_write, site
                      in sweeps for k in range(n)])


@settings(max_examples=200, deadline=None)
@given(geometries, accesses)
def test_generated_walk_matches_reference(cfg, stream):
    """The walk generated for any geometry — 1 to 3 levels, 1-way and
    non-power-of-two set counts, FP bypass on any level, prefetcher on
    or off — charges every access what the hand-written per-level
    walk charges, ends with the same ``stats()``, and counts an access
    in its path's first-level slot exactly when that level served it
    (what the PMU reads)."""
    h = CacheHierarchy(cfg)
    ref = ReferenceHierarchy(cfg)
    for addr, is_float, is_write, site in stream:
        slot = h.first_level_slot(is_float)
        before = list(h.counts)
        lat, level = ref.access(addr, is_float, is_write, site)
        assert h.access(addr, is_float, is_write, site) == lat
        path = cfg.path(is_float)
        first_served = slot is not None and h.counts[slot] != before[slot]
        assert first_served == (bool(path) and level == path[0])
    assert h.stats() == ref.stats()
    assert repr(h.stats()) == repr(ref.stats())
