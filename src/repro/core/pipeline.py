"""The compilation pipeline: one straight line of guarded passes (§2).

:class:`Compiler` follows the SYZYGY phase structure — **FE** (per
translation unit, parallelizable in the paper), **IPA** (summary
aggregation, escape analysis, weight estimation, heuristics), **BE**
(application of the planned transformations) — and runs every pass as
a named **step**, one after another on the calling thread, in a fixed
order:

- FE: ``fe.parse`` runs the front end over every unit in unit order
  (:meth:`~repro.frontend.program.Program.from_sources`, in recover
  mode) and reports its errors; ``lower`` and ``loops``; one
  summarize step per unit (``legality[a.c]``, ``deadfields[a.c]``),
  each probing its own summary-cache entry, followed by its merge
  (``legality``, ``deadfields``);
- IPA: ``callgraph``, ``escape``, ``pointsto`` (relaxed legality
  only), ``weights``, ``profiles``, ``heuristics``;
- BE: with a layout search, ``search.trace`` (one traced run of the
  original program), then the search driver's ``search[T]`` per
  eligible type and its ``search`` merge; then one ``apply[T]`` per
  transformed decision, in decision order, ``apply`` and ``verify``.

Per-phase wall-clock timings (§2.5) come from the step log, and
:attr:`CompilationResult.scheduler` reports the step count, wall and
step sum of every compile.

The driver is **fault tolerant**: structure layout optimization is an
optimization, so no failure inside it may take the compilation down.
Every analysis pass runs under a containment guard — an exception, a
wall-clock budget overrun, or a summary that fails validation demotes
the affected struct types to "do not transform" with a recorded
:class:`~repro.core.diagnostics.Diagnostic`, and compilation continues
to a valid (merely more conservative) result.  Containment is
*per step*: a crashing unit summary or a single failing ``apply[T]``
demotes only its own slice, and the later steps still run.  With
``verify_transforms`` enabled the BE additionally executes the
original and transformed programs on the simulated machine and *rolls
back* any decision whose application changes observable behaviour,
bisecting the decision list to find the offender — the compiler cannot
emit a semantics-changing layout.  Each completed run the BE ends with
is recorded on :attr:`CompilationResult.runs` with the program object
it ran, so a later compare simulates only what is missing.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..frontend.program import Program
from ..ir.cfg import FunctionCFG, lower_program
from ..ir.callgraph import CallGraph, build_call_graph
from ..ir.loops import LoopNest, find_loops
from ..analysis.deadfields import (
    FieldRefs, FieldUsage, UnitUsage, UsageResult,
    fallback_unit_usage, merge_unit_usage, summarize_unit_usage,
)
from ..analysis.escape import EscapeResult, analyze_escapes
from ..analysis.legality import (
    ALL_REASONS, LegalityResult, TypeInfo, UnitLegality,
    fallback_unit_legality, merge_unit_legality,
    summarize_unit_legality,
)
from ..profit.affinity import TypeProfile, compute_profiles
from ..profit.feedback import FeedbackFile, match_feedback
from ..profit.weights import (
    ProgramWeights, estimate_ispbo, estimate_ispbo_w, estimate_spbo,
)
from ..transform.heuristics import (
    HeuristicParams, TransformDecision, apply_decisions,
    decide_transforms,
)
from ..transform.search import search_layouts
from ..runtime.replay import capture_trace
from ..runtime.run import RunOutcome, try_run_program
from ..obs import (
    CAT_COMPILE, CAT_PHASE, MetricsPassObserver,
    MetricsRegistry, NULL_TRACER, PASS_EVENTS, PassEvent, PassProfiler,
    Tracer, TracingPassObserver,
)
from .diagnostics import (
    CODE_BUDGET, CODE_CACHE, CODE_CONTAINED, CODE_CORRUPT, CODE_PARSE,
    CODE_ROLLBACK, CODE_VERIFY, DiagnosticEngine, FatalCompilerError,
)
from .faults import FAULTS, InjectedFault
from .summarycache import SummaryCache, fingerprint, open_cache

if TYPE_CHECKING:  # the api imports this module
    from ..api import SearchOptions

#: weight schemes the pipeline can drive transformations with
SCHEMES = ("SPBO", "ISPBO", "ISPBO.NO", "ISPBO.W", "PBO", "PPBO")

#: legality pseudo-reason marking a type demoted by fault containment
FAULT_REASON = "FAULT"

#: the function a simulated run starts in, and the root of the
#: interprocedural weight estimate
ENTRY = "main"

#: verification cycle budget for the *original* program; the
#: transformed budget is derived from the original's measured cycles:
#: cycles * VERIFY_CYCLE_FACTOR + VERIFY_CYCLE_SLACK
VERIFY_CYCLE_BASE = 200_000_000
VERIFY_CYCLE_FACTOR = 4.0
VERIFY_CYCLE_SLACK = 1_000_000

#: sentinel a per-unit summarize step returns when its source name is
#: absent from the parsed program (a unit the front end dropped for a
#: lex or sema error) — the merge step drops these entries
_SKIP = object()


def _run_of(runs: list, program: Program) -> RunOutcome | None:
    return next((out for p, out in runs if p is program), None)


def _record_run(runs: list, program: Program, out: RunOutcome) -> None:
    """Record ``out`` as ``program``'s run, if it completed and the
    program has none yet."""
    if out.completed and _run_of(runs, program) is None:
        runs.append((program, out))


def _unit_for(program: Program, name: str, occurrence: int):
    """The ``occurrence``-th unit called ``name``, or :data:`_SKIP`."""
    seen = 0
    for u in program.units:
        if u.name == name:
            if seen == occurrence:
                return u
            seen += 1
    return _SKIP


def report_cache_events(cache: SummaryCache,
                        diags: DiagnosticEngine) -> None:
    """Turn the cache handle's pending events into diagnostics: a
    warning per corrupt entry, a note per I/O problem, and one note
    counting the handle's hits and misses so far."""
    for e in cache.drain_events():
        if e.kind == "corrupt":
            diags.warning(
                "cache",
                f"corrupt cache entry discarded and recomputed "
                f"({e})", code=CODE_CACHE,
                action="delete the cache directory if this "
                       "persists")
        elif e.kind == "io-error":
            diags.note("cache", f"cache I/O problem ({e})",
                       code=CODE_CACHE)
    if cache.hits or cache.misses:
        diags.note("cache",
                   f"summary cache: {cache.hits} hit(s), "
                   f"{cache.misses} miss(es)", code=CODE_CACHE)


def count_cache_lookups(metrics: MetricsRegistry | None,
                        cache: SummaryCache) -> None:
    """Add the handle's hits and misses to the ``fe.cache.*`` series."""
    if metrics is not None:
        metrics.counter("fe.cache.hit").inc(cache.hits)
        metrics.counter("fe.cache.miss").inc(cache.misses)


@dataclass
class CompilerOptions:
    """Knobs for one compilation."""

    scheme: str = "ISPBO"
    feedback: FeedbackFile | None = None
    params: HeuristicParams = field(default_factory=HeuristicParams)
    #: apply the transformations (False = analyze/advise only)
    transform: bool = True
    #: tolerate CSTT/CSTF/ATKN when the field-sensitive points-to
    #: analysis proves field-sensitivity survived (§2.2's internal flag,
    #: verified instead of assumed)
    relax_legality: bool = False
    #: differential rollback: execute original vs transformed on the
    #: simulated machine and roll back semantics-changing decisions
    #: (the CLI enables this by default for ``transform``/``compare``)
    verify_transforms: bool = False
    #: strict mode: re-raise contained faults as FatalCompilerError
    #: instead of degrading gracefully
    strict: bool = False
    #: wall-clock budget per contained pass, seconds (None = unbounded)
    phase_budget: float | None = None
    #: iteration budget for the points-to fixpoint solver
    pointsto_max_sweeps: int = 10_000
    #: content-addressed summary cache spec (None = off): a local
    #: directory, or ``unix:PATH`` naming a shared cache-service
    #: socket; holds per-TU analysis summaries keyed by source +
    #: options fingerprints
    cache_dir: str | Path | None = None
    #: global layout-search options (None = greedy heuristics only;
    #: :class:`~repro.api.SearchOptions` validates them).  When set,
    #: the BE runs ``search.trace`` / ``search[T]`` steps that refine
    #: the greedy decisions through the replay oracle.  BE-only like
    #: the verification knobs, so it is excluded from
    #: :meth:`fingerprint` and FE/IPA cache entries are shared across
    #: search configurations.
    search: SearchOptions | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"choose from {SCHEMES}")
        if self.scheme in ("PBO", "PPBO") and self.feedback is None:
            raise ValueError(f"{self.scheme} requires a feedback file")

    def fingerprint(self) -> str:
        """Hash of every option that can change FE/IPA artifacts.

        Excludes ``cache_dir`` (execution strategy, not semantics)
        and the verification knobs (BE-only).  Used to key
        every cache tier, so changing any semantic option is a full
        cache miss.
        """
        return fingerprint(
            "options", self.scheme, self.relax_legality, ENTRY,
            sorted(asdict(self.params).items()),
            self.pointsto_max_sweeps)


@dataclass
class CompilationResult:
    """Everything one compilation produced."""

    program: Program
    options: CompilerOptions
    cfgs: dict[str, FunctionCFG]
    nests: dict[str, LoopNest]
    callgraph: CallGraph
    legality: LegalityResult
    escape: EscapeResult
    usage: UsageResult
    weights: ProgramWeights
    profiles: dict[str, TypeProfile]
    decisions: list[TransformDecision]
    transformed: Program
    timings: dict[str, float] = field(default_factory=dict)
    #: per-pass wall-clock timings (finer than the fe/ipa/be aggregate)
    pass_timings: dict[str, float] = field(default_factory=dict)
    #: every diagnostic any phase emitted
    diagnostics: DiagnosticEngine = field(
        default_factory=DiagnosticEngine)
    #: type names whose transforms verification rolled back
    rolled_back: list[str] = field(default_factory=list)
    #: per-pass profile (wall ms, peak-RSS growth, diagnostics emitted);
    #: populated only when the compile ran with tracing enabled
    pass_profile: dict[str, dict] = field(default_factory=dict)
    #: trace id of the compile's span tree (None when tracing was off)
    trace_id: str | None = None
    #: how the steps ran: step count, wall, step list and sum
    scheduler: dict = field(default_factory=dict)
    #: per-type layout-search stats keyed by type name, plus a
    #: ``_trace`` entry describing the captured access trace; empty
    #: when the compile ran without :attr:`CompilerOptions.search`
    search: dict = field(default_factory=dict)
    #: completed simulated runs, each paired with the program object it
    #: ran: the search trace's run of the original and the runs
    #: verification ended with
    runs: list[tuple[Program, RunOutcome]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics were recorded."""
        return not self.diagnostics.has_errors

    @property
    def degraded(self) -> bool:
        """True when any fault was contained or any transform rolled
        back — the result is valid but more conservative than planned."""
        return bool(self.diagnostics.contained()
                    or self.diagnostics.rollbacks())

    def run_of(self, program: Program) -> RunOutcome | None:
        """The recorded completed run of this very ``program`` object,
        or None."""
        return _run_of(self.runs, program)

    def decision_for(self, type_name: str) -> TransformDecision | None:
        return self.decisions_by_type().get(type_name)

    def decisions_by_type(self) -> dict[str, TransformDecision]:
        """The first decision for each decided type; callers that look
        up many types build this once."""
        out: dict[str, TransformDecision] = {}
        for d in self.decisions:
            out.setdefault(d.type_name, d)
        return out

    def transformed_types(self) -> list[TransformDecision]:
        return [d for d in self.decisions if d.transformed]

    def table1_row(self) -> tuple[int, int, int]:
        """(types, legal, relaxed) — one row of Table 1."""
        return self.legality.counts()

    def table3_row(self) -> tuple[int, int, int]:
        """(types, transformed types, fields split-out+dead)."""
        transformed = self.transformed_types()
        return (len(self.legality.types), len(transformed),
                sum(d.fields_affected for d in transformed))


class PhaseGuard:
    """Runs one pass under fault containment.

    A pass that raises, overruns its wall-clock budget, or returns a
    summary the validator rejects is replaced by its conservative
    fallback, with a diagnostic naming the contained failure.  In
    ``strict`` mode the original exception is re-raised as
    :class:`FatalCompilerError` instead.
    """

    def __init__(self, diags: DiagnosticEngine, *, strict: bool = False,
                 budget: float | None = None,
                 timings: dict[str, float] | None = None):
        self.diags = diags
        self.strict = strict
        self.budget = budget
        self.timings = timings if timings is not None else {}

    def run(self, name: str, fn: Callable[[], Any],
            fallback: Callable[[], Any]) -> Any:
        events = PASS_EVENTS
        if events:
            # ``enter`` is published *before* the containment boundary:
            # a process fault firing there (SIGKILL, simulated OOM)
            # must not be containable in-process
            events.publish(PassEvent(name, "enter",
                                     diags=len(self.diags)))
        t0 = time.perf_counter()
        try:
            FAULTS.fire(name)        # injection point (raise / stall)
            result = fn()
        except Exception as exc:     # containment boundary
            elapsed = time.perf_counter() - t0
            self.timings[name] = elapsed
            if events:                # before _contain: strict re-raises
                events.publish(PassEvent(
                    name, "fail", elapsed=elapsed,
                    error=f"{type(exc).__name__}: {exc}",
                    diags=len(self.diags)))
            return self._contain(name, exc, fallback)
        elapsed = time.perf_counter() - t0
        self.timings[name] = elapsed
        if events:
            events.publish(PassEvent(name, "exit", elapsed=elapsed,
                                     diags=len(self.diags)))
        if self.budget is not None and elapsed > self.budget:
            # the pass finished but blew its budget: its result is
            # suspect (a stalled analysis may have been wedged), so the
            # conservative fallback replaces it
            if self.strict:
                raise FatalCompilerError(
                    name, f"pass exceeded {self.budget:.3f}s budget "
                          f"({elapsed:.3f}s)")
            self.diags.warning(
                name, f"pass exceeded its {self.budget:.3f}s budget "
                      f"({elapsed:.3f}s); conservative fallback "
                      f"substituted", code=CODE_BUDGET,
                action="raise phase_budget or investigate the stall")
            return fallback()
        return FAULTS.corrupt(name, result)   # injection point (corrupt)

    def _contain(self, name: str, exc: Exception,
                 fallback: Callable[[], Any]) -> Any:
        if self.strict:
            if isinstance(exc, FatalCompilerError):
                raise exc            # already named its failing pass
            raise FatalCompilerError(name, str(exc), cause=exc) from exc
        kind = "injected fault" if isinstance(exc, InjectedFault) \
            else f"{type(exc).__name__}"
        self.diags.warning(
            name, f"pass failed ({kind}: {exc}); conservative fallback "
                  f"substituted", code=CODE_CONTAINED,
            action="affected types will not be transformed")
        return fallback()


class _Run:
    """One compile in flight.

    Holds the compile's one :class:`DiagnosticEngine`, the guards that
    write into it, the cache context of the per-unit probes, and the
    **step log**: every step appends ``(name, phase, start, end)`` in
    ``perf_counter`` seconds, and ``result.timings`` and
    ``result.scheduler`` are read from it.  Guarded passes record
    their own wall time in :attr:`pass_timings`.
    """

    def __init__(self, opts: CompilerOptions, cache: SummaryCache | None,
                 sources: list[tuple[str, str]] | None):
        self.strict = opts.strict
        self.diags = DiagnosticEngine()
        self.pass_timings: dict[str, float] = {}
        self.guard = self.guard_with(opts.phase_budget)
        self.cache = cache
        self.sources = sources
        self.opts_fp = opts.fingerprint()
        #: fingerprint of the program's type/symbol interface, part
        #: of every per-unit summary key (set by ``fe.parse``)
        self.iface_fp = ""
        self.log: list[tuple[str, str, float, float]] = []
        self.phase = ""

    def guard_with(self, budget: float | None) -> PhaseGuard:
        return PhaseGuard(self.diags, strict=self.strict, budget=budget,
                          timings=self.pass_timings)

    def step(self, name: str, fn: Callable[..., Any], *args) -> Any:
        """Run ``fn(*args)`` as step ``name`` of the current phase."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.log.append((name, self.phase, t0, time.perf_counter()))

    def window(self, phase: str) -> float:
        """Wall-clock window of a phase's steps (first start to last
        end); 0.0 when the phase ran no step."""
        spans = [(s, e) for _, p, s, e in self.log if p == phase]
        if not spans:
            return 0.0
        return max(e for _, e in spans) - min(s for s, _ in spans)

    def scheduler(self, wall: float) -> dict:
        """The ``scheduler`` block.  The steps form one chain, so the
        critical path is every step in run order and its length is
        their sum."""
        return {"nodes": len(self.log),
                "wall_ms": round(wall * 1e3, 3),
                "critical_path_ms": round(
                    sum(e - s for _, _, s, e in self.log) * 1e3, 3),
                "critical_path": [name for name, _, _, _ in self.log]}


class Compiler:
    """Drives one compilation through its straight line of steps.

    ``tracer`` and ``metrics`` are the observability hooks: a
    :class:`~repro.obs.Tracer` collects a ``compile`` → phase → pass
    span tree, and a :class:`~repro.obs.MetricsRegistry` receives
    ``pass.wall_ms`` / ``fe.cache.*`` series.  Both default to off;
    with neither set, the only observability cost is one falsy check
    per guarded pass.
    """

    def __init__(self, options: CompilerOptions | None = None, *,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        self.options = options or CompilerOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics

    @contextmanager
    def _observing(self):
        """Subscribe this compile's observers (tracing spans, metrics,
        per-pass profiling) for the duration of one compilation;
        yields the per-pass profiler — None on the zero-overhead
        path."""
        subs: list = []
        profiler = None
        if self.tracer.enabled:
            profiler = PassProfiler()
            subs += [TracingPassObserver(self.tracer), profiler]
        if self.metrics is not None:
            subs.append(MetricsPassObserver(self.metrics))
        if not subs:
            yield None
            return
        with PASS_EVENTS.subscribed(*subs):
            yield profiler

    def _finalize_obs(self, result: CompilationResult,
                      profiler) -> CompilationResult:
        if profiler is not None:
            result.pass_profile = profiler.profile
        if self.tracer.enabled:
            result.trace_id = self.tracer.trace_id
        return result

    def compile(self, program: Program) -> CompilationResult:
        return self._entry(program=program)

    def compile_sources(self, sources: list[tuple[str, str]], *,
                        cache: SummaryCache | None = None
                        ) -> CompilationResult:
        """Compile ``[(unit_name, source_text), ...]`` through the front
        end and (when ``cache_dir`` is set) the content-addressed
        summary cache; ``cache`` is a handle the caller already opened
        on ``cache_dir``, used instead of opening another.

        Every compile parses, lowers and finds loops; each unit whose
        source, program interface and options are unchanged then
        reads its legality and deadfields summaries from the cache
        (the paper's "IELF files" kept between compiles) instead of
        re-summarizing.  Cache problems of any kind degrade to
        recomputation with a ``CODE_CACHE`` diagnostic; they never
        fail the compile.

        The cache is bypassed while fault injection is armed so
        injected faults always exercise the real passes.
        """
        return self._entry(sources=sources, cache=cache)

    def _entry(self, program: Program | None = None,
               sources: list[tuple[str, str]] | None = None,
               cache: SummaryCache | None = None) -> CompilationResult:
        with self._observing() as profiler:
            with self.tracer.span("compile", category=CAT_COMPILE) as s:
                s.set(scheme=self.options.scheme,
                      units=len(sources) if sources is not None
                      else len(program.units))
                result = self._run(program, sources, cache)
            return self._finalize_obs(result, profiler)

    # -- the steps ---------------------------------------------------------

    @contextmanager
    def _phase(self, run: _Run, name: str):
        """Open phase ``name``: its steps log under it, and the spans
        of its guarded passes nest in its span."""
        run.phase = name
        with self.tracer.span(name, category=CAT_PHASE) as span:
            yield span

    def _run(self, program: Program | None,
             sources: list[tuple[str, str]] | None,
             handle: SummaryCache | None) -> CompilationResult:
        opts = self.options
        cache: SummaryCache | None = None
        if sources is not None and opts.cache_dir is not None \
                and not FAULTS:
            cache = handle if handle is not None \
                else open_cache(opts.cache_dir)
        run = _Run(opts, cache, sources)
        diags, guard = run.diags, run.guard

        t_run = time.perf_counter()
        with self._phase(run, "fe"):
            if sources is None:
                self._parse_diags(program, diags)
                unit_names = [u.name for u in program.units]
            else:
                program = self._parse(run)
                unit_names = [name for name, _ in sources]
            cfgs, nests, legality, usage = self._fe_analyses(
                run, program, unit_names)
            if cache is not None:
                report_cache_events(cache, diags)

        with self._phase(run, "ipa") as span:
            callgraph = run.step(
                "callgraph", guard.run, "callgraph",
                lambda: build_call_graph(cfgs, program),
                lambda: CallGraph(cfgs={}))
            escape = run.step(
                "escape", guard.run, "escape",
                lambda: analyze_escapes(program, legality),
                lambda: self._fallback_escape(legality))
            if opts.relax_legality:
                run.step("pointsto", self._relax, program, legality,
                         guard, diags)
            weights = run.step(
                "weights", guard.run, "weights",
                lambda: self._weights(cfgs, callgraph, nests),
                lambda: ProgramWeights(scheme=opts.scheme))
            profiles = run.step(
                "profiles", lambda: self._validate_profiles(guard.run(
                    "profiles",
                    lambda: compute_profiles(program, cfgs, weights,
                                             nests),
                    dict), diags))
            decisions = run.step(
                "heuristics", lambda: self._validate_decisions(
                    program, guard.run(
                        "heuristics",
                        lambda: decide_transforms(
                            program, legality, usage, profiles,
                            weights.scheme, opts.params),
                        list), diags))
            span.set(decisions=len(decisions))

        rolled_back: list[str] = []
        runs: list[tuple[Program, RunOutcome]] = []
        search_stats: dict = {}
        transformed = program
        with self._phase(run, "be") as span:
            if opts.search is not None:
                decisions, search_stats = self._search(
                    run, program, decisions, legality, profiles, runs)
            if opts.transform:
                applied = transformed = self._apply(run, program,
                                                    decisions)
                if opts.verify_transforms:
                    transformed = run.step(
                        "verify", guard.run, "verify",
                        lambda: self._verify_transforms(
                            program, decisions, applied, diags,
                            rolled_back, runs),
                        lambda: self._demote_all_decisions(
                            program, decisions,
                            "verification machinery failed; transforms "
                            "withheld"))
            span.set(transform=opts.transform,
                     rolled_back=len(rolled_back))
        wall = time.perf_counter() - t_run

        if cache is not None:
            count_cache_lookups(self.metrics, cache)
        return CompilationResult(
            program=program, options=opts, cfgs=cfgs, nests=nests,
            callgraph=callgraph, legality=legality, escape=escape,
            usage=usage, weights=weights, profiles=profiles,
            decisions=decisions, transformed=transformed,
            timings={"fe": run.window("fe"),
                     "ipa": run.window("ipa"), "be": run.window("be")},
            pass_timings=run.pass_timings, diagnostics=diags,
            rolled_back=rolled_back,
            scheduler=run.scheduler(wall),
            search=search_stats, runs=runs)

    # -- FE steps ----------------------------------------------------------

    def _parse(self, run: _Run) -> Program:
        """``fe.parse``: every unit through the serial front end in
        recover mode, its errors as ``parse`` diagnostics, and, with a
        cache, the interface fingerprint the per-unit summary keys
        carry."""

        def parse():
            program = Program.from_sources(run.sources, recover=True)
            self._parse_diags(program, run.diags)
            if run.cache is not None:
                run.iface_fp = self._interface_fingerprint(program)
            return program

        with self.tracer.span("fe.parse", category=CAT_PHASE):
            return run.step("fe.parse", parse)

    def _fe_analyses(self, run: _Run, program: Program,
                     unit_names: list[str]) -> tuple:
        """``lower``, ``loops``, then the ``legality`` and
        ``deadfields`` unit families with their merges; returns
        ``(cfgs, nests, legality, usage)``."""
        guard = run.guard
        cfgs = run.step("lower", guard.run, "lower",
                        lambda: lower_program(program), dict)
        nests = run.step(
            "loops", guard.run, "loops",
            lambda: {name: find_loops(cfg) for name, cfg in cfgs.items()},
            dict)
        legality = self._unit_family(
            run, "legality", program, unit_names,
            summarize=summarize_unit_legality,
            unit_fallback=fallback_unit_legality,
            summary_type=UnitLegality, merge=merge_unit_legality,
            fallback=self._fallback_legality,
            validate=self._validate_legality)
        usage = self._unit_family(
            run, "deadfields", program, unit_names,
            summarize=summarize_unit_usage,
            unit_fallback=fallback_unit_usage, summary_type=UnitUsage,
            merge=merge_unit_usage, fallback=self._fallback_usage,
            validate=self._validate_usage)
        return cfgs, nests, legality, usage

    def _unit_family(self, run: _Run, kind: str, program: Program,
                     unit_names: list[str], *, summarize, unit_fallback,
                     summary_type, merge, fallback, validate):
        """One summarize step per unit (``legality[a.c]``), each with a
        proportional share of the phase budget and its own summary-cache
        probe, then the merge step ``kind`` over every unit's summary —
        the FE/IPA split of §2."""
        pb = self.options.phase_budget
        unit_guard = run.guard_with(
            pb / max(len(unit_names), 1) if pb is not None else None)
        cache = run.cache

        def summary(i: int, raw: str, occ: int):
            u = _unit_for(program, raw, occ)
            if u is _SKIP:
                return _SKIP
            key = None
            # a cache implies sources; the program's units line up
            # with them one to one unless the FE dropped a unit
            if cache is not None and not program.frontend_errors:
                key = cache.key_for(
                    "summary", kind, raw, run.sources[i][1], run.iface_fp,
                    run.opts_fp)
                got = cache.load("summary", key)
                if isinstance(got, summary_type):
                    return got
                if got is not None:
                    cache.reject("summary", key,
                                 "artifact has the wrong type")
            s = unit_guard.run(f"{kind}[{raw}]", lambda: summarize(u),
                               lambda: unit_fallback(raw))
            if key is not None and isinstance(s, summary_type) \
                    and not s.demote_all:
                cache.store("summary", key, s)
            return s

        summaries = []
        counts: dict[str, int] = {}
        for i, raw in enumerate(unit_names):
            occ = counts.get(raw, 0)
            counts[raw] = occ + 1
            name = f"{kind}[{raw}]" if occ == 0 else f"{kind}[{raw}#{occ}]"
            s = run.step(name, summary, i, raw, occ)
            if s is not _SKIP:
                summaries.append(s)
        return run.step(kind, lambda: validate(
            program, run.guard.run(kind, lambda: merge(program, summaries),
                                   lambda: fallback(program)),
            run.diags))

    # -- BE steps ----------------------------------------------------------

    def _search(self, run: _Run, program: Program,
                decisions: list[TransformDecision],
                legality: LegalityResult,
                profiles: dict[str, TypeProfile],
                runs: list) -> tuple[list, dict]:
        """``search.trace`` runs the original program once, recording
        its accesses; the search driver then runs one ``search[T]``
        step per eligible type (each replays the shared read-only trace
        within its even share of ``budget_s``) and the ``search`` step
        that merges the refined decisions back in decision order.  A
        trace that ran to completion is recorded in ``runs`` as the
        original's run; the trace itself is dropped on return.
        Returns ``(decisions, stats)``."""
        guard = run.guard
        trace = run.step(
            "search.trace", guard.run, "search.trace",
            lambda: capture_trace(program, entry=ENTRY), lambda: None)
        if trace is not None and not trace.truncated:
            _record_run(runs, program, RunOutcome(
                stdout=trace.stdout, exit_code=trace.exit_code,
                cycles=trace.cycles))

        def step(name, fn, fallback):
            return run.step(name, guard.run, name, fn, fallback)

        return search_layouts(program, decisions, legality, profiles,
                              self.options.search, trace,
                              cache=run.cache, step=step)

    def _apply(self, run: _Run, program: Program,
               decisions: list[TransformDecision]) -> Program:
        """One ``apply[T]`` step per transformed decision, chained in
        decision order, then the ``apply`` step."""
        guard = run.guard
        base = program
        for d in [d for d in decisions if d.transformed]:
            name = f"apply[{d.type_name}]"
            base = run.step(name, guard.run, name,
                            partial(self._apply_one, d, base, run.diags),
                            lambda base=base: base)
        return run.step(
            "apply", guard.run, "apply", lambda: base,
            lambda: self._demote_all_decisions(
                program, decisions, "transform application failed"))

    def _apply_one(self, d: TransformDecision, base: Program,
                   diags: DiagnosticEngine) -> Program:
        try:
            return apply_decisions(base, [d])
        except Exception as exc:
            if self.options.strict:
                raise FatalCompilerError(
                    "apply", f"transform of {d.type_name!r} failed: {exc}",
                    cause=exc) from exc
            diags.warning(
                "apply",
                f"{d.action} failed ({type(exc).__name__}: {exc}); "
                f"type left untransformed",
                type_name=d.type_name, code=CODE_CONTAINED,
                action="report a rewriter bug with this source")
            d.notes.append(f"contained apply failure: {exc}")
            d.action = "none"
            return base

    # -- FE internals ------------------------------------------------------

    @staticmethod
    def _parse_diags(program: Program,
                     diags: DiagnosticEngine) -> None:
        for fe_err in program.frontend_errors:
            diags.error("parse", fe_err.message, unit=fe_err.unit,
                        line=fe_err.line or None, code=CODE_PARSE,
                        action="fix the source and recompile")

    @staticmethod
    def _interface_fingerprint(program: Program) -> str:
        """Hash of the cross-unit facts a per-TU summary can depend on:
        record layouts, typedefs, function signatures (and libc-ness),
        and global types.  A per-TU summary is reusable as long as the
        unit's source and this interface are unchanged."""
        recs = [(name,
                 [(f.name, str(f.type), f.bit_width)
                  for f in rec.fields])
                for name, rec in program.records.items()]
        tds = [(n, str(t.aliased))
               for n, t in program.typedefs.items()]
        fns = sorted(
            (n, str(s.type), bool(getattr(s, "is_libc", False)),
             bool(getattr(s, "is_builtin", False)))
            for n, s in program.symbols.functions.items())
        gls = sorted((n, str(s.type))
                     for n, s in program.symbols.globals.items())
        return fingerprint("iface", recs, tds, fns, gls)

    # -- conservative fallbacks -------------------------------------------

    @staticmethod
    def _fallback_legality(program: Program) -> LegalityResult:
        """Every type demoted to illegal: nothing will be transformed."""
        res = LegalityResult(program=program)
        for name, rec in program.records.items():
            res.types[name] = TypeInfo(record=rec,
                                       invalid_reasons={FAULT_REASON})
        return res

    @staticmethod
    def _fallback_usage(program: Program) -> UsageResult:
        """Every field counted as read and written: nothing removable."""
        res = UsageResult()
        for name, rec in program.records.items():
            fu = FieldUsage(record=rec)
            for f in rec.fields:
                fu.refs[f.name] = FieldRefs(reads=1, writes=1)
            res.types[name] = fu
        return res

    @staticmethod
    def _fallback_escape(legality: LegalityResult) -> EscapeResult:
        """Escape analysis failed: assume every type escaped."""
        for info in legality.types.values():
            info.invalid_reasons.add(FAULT_REASON)
        return EscapeResult()

    @staticmethod
    def _demote_all_decisions(program: Program,
                              decisions: list[TransformDecision],
                              why: str) -> Program:
        for d in decisions:
            if d.transformed:
                d.notes.append(f"demoted ({why})")
                d.action = "none"
        return program

    # -- summary validation (catches corrupted results) --------------------

    def _validate_legality(self, program: Program,
                           legality: LegalityResult,
                           diags: DiagnosticEngine) -> LegalityResult:
        known = set(ALL_REASONS) | {FAULT_REASON, "ESCP"}
        if not isinstance(legality, LegalityResult) \
                or not isinstance(getattr(legality, "types", None), dict):
            diags.warning("legality",
                          "summary failed validation; all types "
                          "demoted", code=CODE_CORRUPT)
            return self._fallback_legality(program)
        for name, rec in program.records.items():
            info = legality.types.get(name)
            if info is None:
                legality.types[name] = TypeInfo(
                    record=rec, invalid_reasons={FAULT_REASON})
                diags.warning(
                    "legality", "type missing from summary; demoted",
                    type_name=name, code=CODE_CORRUPT)
            elif not info.invalid_reasons <= known:
                info.invalid_reasons.add(FAULT_REASON)
                diags.warning(
                    "legality",
                    f"unknown violation codes "
                    f"{sorted(info.invalid_reasons - known)}; demoted",
                    type_name=name, code=CODE_CORRUPT)
        return legality

    def _validate_usage(self, program: Program, usage: UsageResult,
                        diags: DiagnosticEngine) -> UsageResult:
        if not isinstance(usage, UsageResult) \
                or not isinstance(getattr(usage, "types", None), dict):
            diags.warning("deadfields",
                          "summary failed validation; no fields "
                          "removable", code=CODE_CORRUPT)
            return self._fallback_usage(program)
        for name, fu in list(usage.types.items()):
            rec = program.records.get(name)
            if rec is None:
                continue
            fields = {f.name for f in rec.fields}
            if not set(fu.refs) <= fields:
                diags.warning(
                    "deadfields",
                    "summary names unknown fields; type made "
                    "conservative", type_name=name, code=CODE_CORRUPT)
                repaired = FieldUsage(record=rec)
                for f in rec.fields:
                    repaired.refs[f.name] = FieldRefs(reads=1, writes=1)
                usage.types[name] = repaired
        return usage

    @staticmethod
    def _validate_profiles(profiles: dict[str, TypeProfile],
                           diags: DiagnosticEngine
                           ) -> dict[str, TypeProfile]:
        if not isinstance(profiles, dict):
            diags.warning("profiles",
                          "summary failed validation; discarded",
                          code=CODE_CORRUPT)
            return {}
        ok: dict[str, TypeProfile] = {}
        for name, prof in profiles.items():
            counts = list(prof.read_counts.values()) \
                + list(prof.write_counts.values())
            if any(not math.isfinite(c) or c < 0.0 for c in counts):
                diags.warning(
                    "profiles",
                    "non-finite or negative hotness; profile "
                    "discarded, type will not be transformed",
                    type_name=name, code=CODE_CORRUPT)
                continue
            ok[name] = prof
        return ok

    @staticmethod
    def _validate_decisions(program: Program,
                            decisions: list[TransformDecision],
                            diags: DiagnosticEngine
                            ) -> list[TransformDecision]:
        if not isinstance(decisions, list):
            diags.warning("heuristics",
                          "decision list failed validation; discarded",
                          code=CODE_CORRUPT)
            return []
        ok: list[TransformDecision] = []
        for d in decisions:
            if not isinstance(d, TransformDecision):
                diags.warning("heuristics",
                              "non-decision entry dropped",
                              code=CODE_CORRUPT)
                continue
            rec = program.records.get(d.type_name)
            if d.transformed and rec is not None:
                fields = {f.name for f in rec.fields}
                named = set(d.dead_fields) | set(d.cold_fields) | \
                    set(f for g in (d.groups or []) for f in g)
                if not named <= fields:
                    diags.warning(
                        "heuristics",
                        f"decision names unknown fields "
                        f"{sorted(named - fields)}; demoted",
                        type_name=d.type_name, code=CODE_CORRUPT)
                    d.notes.append("demoted: named unknown fields")
                    d.action = "none"
            ok.append(d)
        return ok

    # -- guarded pass bodies ----------------------------------------------

    def _relax(self, program: Program, legality: LegalityResult,
               guard: PhaseGuard, diags: DiagnosticEngine) -> None:
        """Clear the relaxable violations for types whose points-to
        sets did not collapse — the sharper legality the paper
        estimates an upper bound for with its internal flag.  Runs
        under containment: any points-to failure (including the
        fixpoint iteration cap) simply skips relaxation, keeping the
        conservative violations in place."""
        from ..analysis.pointsto import analyze_points_to
        opts = self.options
        pointsto = guard.run(
            "pointsto",
            lambda: analyze_points_to(
                program, max_sweeps=opts.pointsto_max_sweeps),
            lambda: None)
        if pointsto is None:
            diags.note("pointsto",
                       "relaxation skipped: analysis unavailable",
                       code=CODE_CONTAINED)
            return
        from ..analysis.legality import RELAXABLE_REASONS
        for info in legality.types.values():
            if info.invalid_reasons and \
                    info.invalid_reasons <= RELAXABLE_REASONS and \
                    pointsto.is_field_safe(info.name):
                info.invalid_reasons.clear()

    def _weights(self, cfgs, callgraph, nests) -> ProgramWeights:
        opts = self.options
        scheme = opts.scheme
        if scheme in ("PBO", "PPBO"):
            return match_feedback(cfgs, opts.feedback, scheme=scheme)
        if scheme == "SPBO":
            return estimate_spbo(cfgs, nests)
        if scheme == "ISPBO":
            return estimate_ispbo(cfgs, callgraph, nests, entry=ENTRY)
        if scheme == "ISPBO.NO":
            return estimate_ispbo(cfgs, callgraph, nests, exponent=1.0,
                                  entry=ENTRY)
        if scheme == "ISPBO.W":
            return estimate_ispbo_w(cfgs, callgraph, nests, entry=ENTRY)
        raise ValueError(f"unknown scheme {scheme!r}")

    # -- differential rollback --------------------------------------------

    def _verify_transforms(self, program: Program,
                           decisions: list[TransformDecision],
                           transformed: Program,
                           diags: DiagnosticEngine,
                           rolled_back: list[str],
                           runs: list) -> Program:
        """Execute original vs transformed with a bounded cycle budget;
        on any divergence or trap, bisect the decision list, roll back
        the offending decision(s), and re-apply the rest.

        The original's run is taken from ``runs`` (the search trace's)
        when its cycles are within :data:`VERIFY_CYCLE_BASE`: the limit
        is checked before each block, so that run also completes,
        identically, under the budget.  The completed runs the check
        ends with — the original's and the returned program's — are
        recorded in ``runs``."""
        active = [d for d in decisions if d.transformed]
        if not active:
            return transformed
        base = _run_of(runs, program)
        if base is None or base.cycles > VERIFY_CYCLE_BASE:
            base = try_run_program(program, cycle_limit=VERIFY_CYCLE_BASE,
                                   entry=ENTRY)
        if base.trap == "StepLimitExceeded":
            diags.warning(
                "verify",
                f"original program exceeds the "
                f"{VERIFY_CYCLE_BASE:,}-cycle verification "
                f"budget; verification inconclusive, transforms kept",
                code=CODE_VERIFY,
                action="verify the program on a smaller input")
            return transformed
        if base.trap is not None:
            diags.note(
                "verify",
                f"original program not executable ({base.trap}); "
                f"differential verification skipped", code=CODE_VERIFY)
            return transformed
        _record_run(runs, program, base)
        budget = int(base.cycles * VERIFY_CYCLE_FACTOR) + VERIFY_CYCLE_SLACK

        def outcome_of(prog: Program) -> RunOutcome:
            return try_run_program(prog, cycle_limit=budget, entry=ENTRY)

        def prefix_fails(k: int) -> bool:
            if k == 0:
                return False
            try:
                prog = apply_decisions(program, active[:k])
            except Exception:
                return True
            return not base.same_behaviour(outcome_of(prog))

        current = transformed
        out = outcome_of(current)
        while not base.same_behaviour(out):
            if not active:
                # identity compile still diverges: the divergence is
                # not caused by any decision (should be impossible on
                # the deterministic machine)
                diags.error(
                    "verify",
                    "program diverges from itself with no transforms "
                    "applied; emitting the original",
                    code=CODE_VERIFY)
                return program
            if self.options.strict:
                raise FatalCompilerError(
                    "verify",
                    f"transformed program diverged "
                    f"(trap={out.trap}, exit={out.exit_code})")
            # bisect: smallest k with apply(active[:k]) diverging
            lo, hi = 0, len(active)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if prefix_fails(mid):
                    hi = mid
                else:
                    lo = mid
            offender = active.pop(hi - 1)
            rolled_back.append(offender.type_name)
            why = f"trap {out.trap}" if out.trap is not None \
                else "output mismatch"
            diags.warning(
                "verify",
                f"rolled back {offender.action}: transformed program "
                f"diverged ({why})", type_name=offender.type_name,
                code=CODE_ROLLBACK,
                action="report a rewriter/legality bug for this type")
            offender.notes.append(
                f"rolled back by differential verification ({why})")
            offender.action = "none"
            try:
                current = apply_decisions(program, active)
            except Exception:
                # re-application failed without the offender: demote
                # everything that is left and emit the original
                for d in active:
                    rolled_back.append(d.type_name)
                    d.notes.append("rolled back: re-application failed")
                    d.action = "none"
                active = []
                current = program
            out = outcome_of(current)
        _record_run(runs, current, out)
        return current
