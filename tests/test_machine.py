"""Machine-state tests: PMU sampling, edge profiling, cycle accounting."""

import pytest

from repro.frontend import Program
from repro.runtime import (
    CacheConfig, CompiledProgram, ITANIUM2_SCALED, Machine, PMU, SiteInfo,
)
from repro.runtime.machine import EdgeProfiler


class TestPMU:
    def test_sampling_rate_approximate(self):
        pmu = PMU(period=10)
        for _ in range(1000):
            pmu.on_access(1, 5, False)
        assert 70 <= pmu.samples_taken <= 130

    def test_period_one_samples_everything(self):
        pmu = PMU(period=1)
        for _ in range(50):
            pmu.on_access(2, 5, False)
        assert pmu.samples_taken == 50

    def test_miss_attribution(self):
        pmu = PMU(period=1)
        pmu.on_access(3, 200, True)      # serviced by memory: a miss
        pmu.on_access(3, 1, False)       # first-level hit
        s = pmu.site_samples[3]
        assert s.accesses == 2
        assert s.misses == 1
        assert s.total_latency == 201

    def test_fp_first_level_is_l2(self):
        m = Machine(pmu_period=1)
        m.mem_read(0x4000_0000, True, 4)     # cold: a miss
        m.mem_read(0x4000_0000, True, 4)     # L2 hit: FP's first level
        m.mem_read(0x4000_0000, False, 5)    # int: L1 is cold, a miss
        m.mem_read(0x4000_0000, False, 5)    # L1 hit
        assert (m.pmu.site_samples[4].misses,
                m.pmu.site_samples[5].misses) == (1, 1)
        assert m.pmu.site_samples[4].total_latency == (6 + 14 + 200) + 6

    def test_fp_path_with_no_level_always_misses(self):
        only_l1 = CacheConfig(levels=ITANIUM2_SCALED.levels[:1])
        m = Machine(cache_config=only_l1, pmu_period=1)
        for _ in range(2):
            m.mem_read(0x4000_0000, True, 4)     # FP skips the L1: memory
            m.mem_read(0x4000_0000, False, 5)    # int: cold, then L1 hit
        assert (m.pmu.site_samples[4].misses,
                m.pmu.site_samples[5].misses) == (2, 1)

    def test_jitter_avoids_aliasing(self):
        """Alternating two sites with an even period must sample both."""
        pmu = PMU(period=4)
        for i in range(4000):
            pmu.on_access(i % 2, 5, False)
        assert set(pmu.site_samples) == {0, 1}

    def test_by_field_rollup(self):
        pmu = PMU(period=1)
        pmu.on_access(1, 10, True)
        pmu.on_access(2, 20, False)
        sites = [SiteInfo(0), SiteInfo(1, record="t", field="a"),
                 SiteInfo(2, record="t", field="a")]
        agg = pmu.by_field(sites)
        assert agg[("t", "a")].accesses == 2
        assert agg[("t", "a")].total_latency == 30

    def test_anonymous_sites_not_rolled_up(self):
        pmu = PMU(period=1)
        pmu.on_access(0, 10, True)
        assert pmu.by_field([SiteInfo(0)]) == {}

    def test_avg_latency(self):
        from repro.runtime import FieldSample
        s = FieldSample(accesses=4, misses=1, total_latency=40)
        assert s.avg_latency == 10.0
        assert FieldSample().avg_latency == 0.0

    def test_deterministic(self):
        def sample():
            pmu = PMU(period=7)
            for i in range(500):
                pmu.on_access(i % 3, 5, False)
            return {k: v.accesses for k, v in pmu.site_samples.items()}
        assert sample() == sample()


class TestEdgeProfiler:
    def test_counts_and_counter_allocation(self):
        m = Machine(instrument=True)
        prof = m.profiler
        addr = prof.counter_for("f", 0, 1)
        prof.bump("f", 0, 1, addr)
        prof.bump("f", 0, 1, addr)
        assert prof.counts[("f", 0, 1)] == 2

    def test_counter_addresses_unique(self):
        m = Machine(instrument=True)
        a1 = m.profiler.counter_for("f", 0, 1)
        a2 = m.profiler.counter_for("f", 1, 2)
        assert a1 != a2
        assert m.profiler.counter_for("f", 0, 1) == a1

    def test_bump_costs_cycles(self):
        m = Machine(instrument=True)
        addr = m.profiler.counter_for("f", 0, 1)
        before = m.cycles
        m.profiler.bump("f", 0, 1, addr)
        assert m.cycles > before

    def test_edge_counts_match_execution(self):
        src = """
        int main() {
            int i; long s = 0;
            for (i = 0; i < 23; i++) s += i;
            printf("%ld", s);
            return 0;
        }
        """
        m = Machine(instrument=True)
        CompiledProgram(Program.from_source(src), m).run()
        counts = m.profiler.counts
        # the loop back edge executed exactly 23 times
        assert 23.0 in [v for v in counts.values()]


class TestMachineMisc:
    def test_rand_is_lcg_deterministic(self):
        m1, m2 = Machine(), Machine()
        assert [m1.rand() for _ in range(5)] == \
            [m2.rand() for _ in range(5)]

    def test_srand(self):
        m = Machine()
        m.srand(99)
        a = m.rand()
        m.srand(99)
        assert m.rand() == a

    def test_function_registration(self):
        m = Machine()
        fid1 = m.register_function("fake1")
        fid2 = m.register_function("fake2")
        assert fid1 != fid2
        assert m.func_table[fid1] == "fake1"

    def test_mem_rw_roundtrip_with_accounting(self):
        m = Machine()
        before = m.cycles
        m.mem_write(0x4000_0000, 7, False, 0)
        assert m.mem_read(0x4000_0000, False, 0) == 7
        assert m.cycles > before
        assert m.cache.stats()["total"]["accesses"] == 2

    def test_stdout_concatenation(self):
        m = Machine()
        m.output.extend(["a", "b"])
        assert m.stdout == "ab"

    def test_cycle_limit_check(self):
        from repro.runtime import StepLimitExceeded
        m = Machine(cycle_limit=10)
        m.cycles = 11
        with pytest.raises(StepLimitExceeded):
            m.check_budget()
