"""Simulated machine: memory + caches + cycle accounting + profiling.

One :class:`Machine` holds the state of one program execution: the
address space, the cache hierarchy, the cycle counter, and — when
enabled — the edge-count profiler and the sampling PMU that together
produce the paper's feedback files (edge counts *and* d-cache events,
exactly the two ingredients §3.1 combines).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def on_access(self, site: int, latency: int, missed: bool) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self._next_interval()
        self.samples_taken += 1
        s = self.site_samples.get(site)
        if s is None:
            s = self.site_samples[site] = FieldSample()
        s.accesses += 1
        if missed:
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
            # load-add-store of the counter
            m.cycles += m.cache.access(addr, False, True, 0) + 2


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
        self._bind_fast_paths()

    def _bind_fast_paths(self) -> None:
        """Bind ``mem_read``/``mem_write`` as closures that
        pre-resolve the cache and memory lookups — the interpreter
        spends most of its time in these two functions.  With a PMU
        attached, each access is also offered to it for sampling."""
        access = self.cache.access
        if self.pmu is not None:
            access = self._sampled(access)
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

    def _sampled(self, access):
        """``access``, then the PMU's look at it.  Whether the access
        missed its first cache level (L2 for FP, L1 for everything
        else) is read off the hierarchy's counters: it missed unless
        the first level's slot counted it, and always on a path with
        no level."""
        on_access = self.pmu.on_access
        counts = self.cache.counts
        int_first = self.cache.first_level_slot(False)
        fp_first = self.cache.first_level_slot(True)

        def sampled(addr: int, is_float: bool, is_write: bool,
                    site: int) -> int:
            k = fp_first if is_float else int_first
            before = None if k is None else counts[k]
            latency = access(addr, is_float, is_write, site)
            on_access(site, latency, before is None or counts[k] == before)
            return latency

        return sampled

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
