"""Simulated machine: memory + caches + cycle accounting + profiling.

One :class:`Machine` holds the state of one program execution: the
address space, the cache hierarchy, the cycle counter, and — when
enabled — the edge-count profiler and the sampling PMU that together
produce the paper's feedback files (edge counts *and* d-cache events,
exactly the two ingredients §3.1 combines).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import CacheConfig, CacheHierarchy, ITANIUM2_SCALED
from .memory import Memory, STACK_BASE


class ExitProgram(Exception):
    """Raised by the ``exit()`` builtin to unwind the interpreter."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


class StepLimitExceeded(Exception):
    """The interpreter ran longer than the configured cycle budget."""


@dataclass(eq=False)
class SiteInfo:
    """Static description of one memory-access site (one load or store
    expression in the source).  The PMU attributes sampled events to the
    site, and reporting maps sites to ``(record, field)``."""

    id: int
    function: str = ""
    line: int = 0
    record: str | None = None
    field: str | None = None
    is_float: bool = False
    is_write: bool = False

    def __repr__(self) -> str:
        where = f"{self.record}.{self.field}" if self.record else "<scalar>"
        return f"<site {self.id} {where} @{self.function}:{self.line}>"


@dataclass
class FieldSample:
    """Aggregated PMU samples for one ``(record, field)`` pair."""

    accesses: int = 0        # sampled accesses
    misses: int = 0          # sampled accesses that missed the first level
    total_latency: int = 0   # summed sampled latencies

    @property
    def avg_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0


class PMU:
    """Sampling performance-monitoring unit.

    Every ``period``-th memory access is sampled; the sample records
    whether the access missed its first cache level and the latency it
    saw.  Aggregation is per site and rolled up per field on demand —
    mirroring HP Caliper attributing d-cache events that the compiler
    then maps to structure fields.
    """

    def __init__(self, period: int = 16):
        self.period = max(int(period), 1)
        self._rng = 0x2545F491
        self._countdown = self._next_interval()
        self.site_samples: dict[int, FieldSample] = {}
        self.samples_taken = 0
        self._by_field_memo: tuple | None = None

    def _next_interval(self) -> int:
        """Deterministically jittered sampling interval in
        [period/2, 3*period/2] — fixed intervals alias against periodic
        access streams (always sampling the same instruction), which is
        why real PMUs randomize the restart value."""
        self._rng = (self._rng * 1103515245 + 12345) & 0x7FFFFFFF
        if self.period == 1:
            return 1
        span = max(self.period, 2)
        return self.period - span // 2 + self._rng % (span + 1)

    def on_access(self, site: int, latency: int, serviced_level: int,
                  first_level: int) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self._next_interval()
        self.samples_taken += 1
        s = self.site_samples.get(site)
        if s is None:
            s = self.site_samples[site] = FieldSample()
        s.accesses += 1
        if serviced_level != first_level:
            s.misses += 1
        s.total_latency += latency

    def by_field(self, sites: list[SiteInfo]
                 ) -> dict[tuple[str, str], FieldSample]:
        """Roll site samples up to ``(record, field)`` pairs.

        Memoized on the site list and sample count: reporting code calls
        this repeatedly per record while neither changes between runs."""
        memo = self._by_field_memo
        if memo is not None and memo[0] == id(sites) and \
                memo[1] == len(sites) and memo[2] == self.samples_taken:
            return memo[3]
        out: dict[tuple[str, str], FieldSample] = {}
        for info in sites:
            if info.record is None or info.field is None:
                continue
            s = self.site_samples.get(info.id)
            if s is None:
                continue
            key = (info.record, info.field)
            agg = out.get(key)
            if agg is None:
                agg = out[key] = FieldSample()
            agg.accesses += s.accesses
            agg.misses += s.misses
            agg.total_latency += s.total_latency
        self._by_field_memo = (id(sites), len(sites), self.samples_taken,
                               out)
        return out


class EdgeProfiler:
    """Edge-count instrumentation (the PBO collection phase).

    Counts CFG edge executions.  Each counted edge also owns a counter
    word in simulated memory that the instrumented binary increments, so
    instrumentation perturbs the caches the way real instrumentation
    does — that perturbation is what DMISS vs DMISS.NO measures.
    """

    def __init__(self, machine: "Machine", touch_memory: bool = True):
        self.machine = machine
        self.touch_memory = touch_memory
        self.counts: dict[tuple[str, int, int], int] = {}
        self._counter_addr: dict[tuple[str, int, int], int] = {}

    def counter_for(self, fn: str, src: int, dst: int) -> int:
        key = (fn, src, dst)
        addr = self._counter_addr.get(key)
        if addr is None:
            addr = self.machine.memory.alloc_counter()
            self._counter_addr[key] = addr
            self.counts[key] = 0
        return addr

    def bump(self, fn: str, src: int, dst: int, addr: int) -> None:
        self.counts[(fn, src, dst)] += 1
        if self.touch_memory:
            m = self.machine
            lat, _ = m.cache.access(addr, False, True, 0)
            m.cycles += lat + 2   # load-add-store of the counter


class Machine:
    """Execution state for one simulated run."""

    def __init__(self, cache_config: CacheConfig = ITANIUM2_SCALED,
                 instrument: bool = False, pmu_period: int = 0,
                 cycle_limit: int = 2_000_000_000):
        self.memory = Memory()
        self.cache = CacheHierarchy(cache_config)
        self.cycles = 0
        self.cycle_limit = cycle_limit
        self.sp = STACK_BASE
        self.output: list[str] = []
        self.exit_code: int | None = None
        self.rand_state = 12345
        self.pmu: PMU | None = PMU(pmu_period) if pmu_period else None
        self.profiler: EdgeProfiler | None = \
            EdgeProfiler(self) if instrument else None
        self.func_table: dict[int, object] = {}
        self._next_func_id = 1
        #: index of the first cache level for int/FP accesses (for the
        #: PMU's "missed its first level" attribution)
        self._first_int_level = 0
        self._first_fp_level = next(
            (i for i, l in enumerate(self.cache.levels)
             if not l.config.fp_bypass), 0)
        if self.pmu is None:
            self._bind_fast_paths()

    def _bind_fast_paths(self) -> None:
        """Shadow :meth:`mem_read`/:meth:`mem_write` with closures that
        pre-resolve the cache and memory lookups.  Only installed when no
        PMU is attached, which is every plain (uninstrumented) run — the
        interpreter spends most of its time in these two functions."""
        access = self.cache.access_latency
        cells = self.memory.cells
        cells_get = cells.get

        def mem_read(addr: int, is_float: bool, site: int,
                     m=self) -> int | float:
            m.cycles += access(addr, is_float, False, site)
            return cells_get(addr, 0)

        def mem_write(addr: int, value: int | float, is_float: bool,
                      site: int, m=self) -> None:
            m.cycles += access(addr, is_float, True, site)
            cells[addr] = value

        self.mem_read = mem_read
        self.mem_write = mem_write

    # -- memory access (the interpreter hot path) -------------------------

    def mem_read(self, addr: int, is_float: bool, site: int) -> int | float:
        lat, lvl = self.cache.access(addr, is_float, False, site)
        self.cycles += lat
        if self.pmu is not None:
            first = self._first_fp_level if is_float else self._first_int_level
            self.pmu.on_access(site, lat, lvl, first)
        return self.memory.cells.get(addr, 0)

    def mem_write(self, addr: int, value: int | float, is_float: bool,
                  site: int) -> None:
        lat, lvl = self.cache.access(addr, is_float, True, site)
        self.cycles += lat
        if self.pmu is not None:
            first = self._first_fp_level if is_float else self._first_int_level
            self.pmu.on_access(site, lat, lvl, first)
        self.memory.cells[addr] = value

    def release(self) -> None:
        """Break the reference cycles a run builds, once its stdout,
        exit code and cycles have been read.

        The fast-path closures hold the machine, and the function
        table holds the compiled code, whose closures hold the machine
        again.  Without this, a finished run's memory image lives until
        the next cyclic collection; with it, reference counting frees
        the run as soon as its last holder drops it.  Counters, output
        and the cache hierarchy stay readable."""
        for fn in self.func_table.values():
            fn.blocks = []          # the block closures
        self.func_table.clear()
        vars(self).pop("mem_read", None)
        vars(self).pop("mem_write", None)
        self.profiler = None

    def check_budget(self) -> None:
        if self.cycles > self.cycle_limit:
            raise StepLimitExceeded(
                f"cycle limit {self.cycle_limit} exceeded")

    # -- function-pointer support ------------------------------------------

    def register_function(self, compiled) -> int:
        fid = self._next_func_id
        self._next_func_id += 1
        self.func_table[fid] = compiled
        return fid

    # -- deterministic libc rand -----------------------------------------

    def rand(self) -> int:
        self.rand_state = (self.rand_state * 1103515245 + 12345) \
            & 0x7FFFFFFF
        return self.rand_state

    def srand(self, seed: int) -> None:
        self.rand_state = int(seed) & 0x7FFFFFFF

    # -- results ------------------------------------------------------------

    @property
    def stdout(self) -> str:
        return "".join(self.output)
