"""The typed public facade: one schema for every way in.

- :class:`CompileOptions` is the one options schema.  The CLI builds
  it from flags (local and ``client`` commands alike), the service
  validates wire dicts against it, and
  :meth:`CompileOptions.compiler_options` lowers it onto the core
  :class:`~repro.core.pipeline.CompilerOptions` for one ladder tier —
  the only place that lowering happens.
- :class:`CompileRequest` / :class:`CompileReply` are the typed
  request/response pair.  ``repro client`` serializes a request with
  :meth:`CompileRequest.to_wire`; the daemon parses the same dict
  back with :meth:`CompileRequest.from_dict`; a reply parses with
  :meth:`CompileReply.from_wire`.
- :class:`Session` is the in-process entry point: a compiler handle
  carrying options plus the observability hooks (a
  :class:`~repro.obs.Tracer` and a
  :class:`~repro.obs.MetricsRegistry`).  It compiles programs or
  sources directly and can also execute a full
  :class:`CompileRequest` locally — the *same* payload builder the
  service workers run (:func:`execute_tier`), so a local
  ``Session.execute`` and a daemon round-trip produce identical
  payloads.

Validation errors raise :class:`ApiError`, which carries a structured
``detail`` dict (e.g. the list of unknown fields) so the service can
answer with a structured diagnostic instead of a bare string.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass, field, fields as dc_fields

from .core.diagnostics import CODE_BUDGET, CODE_CACHE, CODE_CONTAINED, \
    CODE_MISMATCH, CODE_TRAP, DiagnosticEngine
from .core.faults import CACHE_FAULTS, FAULTS, PROC_FAULTS, \
    ProcessFaultSpec
from .core.pipeline import SCHEMES, CompilationResult, Compiler, \
    CompilerOptions, count_cache_lookups, report_cache_events
from .core.summarycache import SummaryCache, fingerprint, open_cache
from .frontend.program import Program
from .obs import CAT_COMPILE, MetricsRegistry, NULL_TRACER, Tracer
from .runtime.run import RunOutcome, try_run_program
from .transform.heuristics import HeuristicParams, PEEL_MODES, \
    PROFILE_SCHEMES
from .transform.search import ENGINES

#: the weight schemes a request can run: the profile schemes need a
#: feedback file, which no request carries
REQUEST_SCHEMES = tuple(s for s in SCHEMES if s not in PROFILE_SCHEMES)

#: compile operations, ladder-governed (the service adds control ops)
COMPILE_OPS = ("analyze", "advise", "transform", "compare")

#: the graceful-degradation ladder per operation, best tier first.
#: ``full`` applies (and verifies) the transformations; ``advisory``
#: runs the complete analysis but applies nothing; ``legality`` is the
#: minimal parse + legality report.
LADDER: dict[str, tuple[str, ...]] = {
    "transform": ("full", "advisory", "legality"),
    "compare": ("full", "advisory", "legality"),
    "advise": ("advisory", "legality"),
    "analyze": ("advisory", "legality"),
}

#: every ladder tier, best first (plus the terminal error pseudo-tier)
TIERS = ("full", "advisory", "legality", "error")

#: response statuses
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_BUSY = "busy"
STATUS_ERROR = "error"
#: terminal admission statuses (overload control): a ``rejected``
#: request was refused on arrival (quota, full queue, or hopeless
#: deadline) and carries an honest ``retry_after``; a
#: ``deadline_exceeded`` request ran out of end-to-end budget before
#: it could be served.  Neither is retried by the farm router — the
#: *caller* owns the retry decision.
STATUS_REJECTED = "rejected"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"


class ApiError(ValueError):
    """A request or option set that fails schema validation.

    ``detail`` is a JSON-ready dict naming what failed (unknown
    fields, the offending value, ...) so transports can answer with a
    structured diagnostic."""

    def __init__(self, message: str, *, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


#: wire spellings of the priority lanes, best first; the service's
#: admission queue numbers its lanes from this table
PRIORITY_NAMES = {"high": 0, "normal": 1, "low": 2}


def coerce_priority(value) -> int:
    """Normalize a wire priority (int or name) to a lane index."""
    top = len(PRIORITY_NAMES) - 1
    if isinstance(value, str):
        try:
            return PRIORITY_NAMES[value.lower()]
        except KeyError:
            raise ApiError(
                f"unknown priority {value!r}; expected one of "
                f"{', '.join(PRIORITY_NAMES)} or 0..{top}",
                detail={"where": "priority"}) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError("'priority' must be an integer or a name",
                       detail={"where": "priority"})
    if not 0 <= value <= top:
        raise ApiError(f"'priority' must be in 0..{top}",
                       detail={"where": "priority"})
    return value


def _reject_unknown(d: dict, known: tuple[str, ...],
                    where: str) -> None:
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ApiError(
            f"unknown {where} field(s): {', '.join(unknown)}",
            detail={"unknown_fields": unknown,
                    "known_fields": sorted(known),
                    "where": where})


def _check_count(value, least: int | None, where: str) -> None:
    """A count is an integer of at least ``least``: a boolean, a
    fraction or a string is refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ApiError(f"'{where}' must be an integer{bound}, got "
                       f"{value!r}", detail={"where": where})


def _check_number(value, where: str, *, positive: bool = False) -> None:
    """A wire number is a finite int or float of at least 0, above 0
    when ``positive``: a boolean, a string, NaN or an infinity is
    refused, never coerced."""
    # the chained comparison also refuses NaN, and ints too large for
    # a float without converting them
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 <= value <= sys.float_info.max \
            or (positive and value == 0):
        raise ApiError(f"'{where}' must be a finite number "
                       f"{'> 0' if positive else '>= 0'}, got {value!r}",
                       detail={"where": where})


def _wire_count(value):
    """A wire count: integral floats (2e9) are counts; any other value
    is left for :func:`_check_count` to refuse, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _flag(d: dict, name: str, where: str) -> bool:
    """A wire flag: only a JSON boolean counts, so ``"false"`` is an
    error, never true."""
    value = d[name]
    if not isinstance(value, bool):
        raise ApiError(f"{where} must be true or false, got {value!r}",
                       detail={"where": where})
    return value


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchOptions:
    """Options for the global layout search (simulated annealing).

    Immutable so one instance can be shared across request retries,
    ladder tiers, and compile steps without defensive copies.  This
    dataclass *is* the knob schema: the search reads its fields as
    they are, so every value is checked here, on the wire and in
    process alike.  ``engine="greedy"`` scores the greedy layout
    through the replay oracle (useful for reports) without exploring;
    ``sa`` anneals from it on the fixed temperature schedule of
    :func:`repro.transform.search.anneal`.
    """

    engine: str = "sa"                  # greedy|sa
    budget_s: float = 10.0              # wall clock per compile, 0 = none
    seed: int = 0                       # SA rng seed (per-type derived)
    sa_batch: int = 8                   # proposals scored per oracle call
    sa_iters: int = 60                  # batches per restart
    sa_restarts: int = 2                # re-heats from the incumbent

    WIRE_FIELDS = ("engine", "budget_s", "seed", "sa_batch", "sa_iters",
                   "sa_restarts")
    #: integer fields and their least accepted value (None: any)
    _COUNTS = (("seed", None), ("sa_batch", 1), ("sa_iters", 1),
               ("sa_restarts", 0))

    #: CLI spellings accepted by :meth:`from_cli` on top of the wire
    #: names (``budget=10s`` reads more naturally than ``budget_s=10``)
    _CLI_ALIASES = {"budget": "budget_s", "restarts": "sa_restarts",
                    "iters": "sa_iters", "batch": "sa_batch"}

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ApiError(
                f"unknown search engine {self.engine!r}; expected one "
                f"of {', '.join(ENGINES)}",
                detail={"where": "search.engine",
                        "known_engines": list(ENGINES)})
        _check_number(self.budget_s, "search.budget_s")
        for name, least in self._COUNTS:
            _check_count(getattr(self, name), least, f"search.{name}")

    @classmethod
    def from_dict(cls, d: dict | None) -> "SearchOptions":
        if d is None:
            return cls()
        if not isinstance(d, dict):
            raise ApiError("'search' must be an object",
                           detail={"where": "search"})
        _reject_unknown(d, cls.WIRE_FIELDS, "search")
        counts = {name for name, _ in cls._COUNTS}
        return cls(**{name: _wire_count(value) if name in counts
                      else value for name, value in d.items()})

    def to_dict(self) -> dict:
        """Only the non-default fields — the compact wire form."""
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if v != f.default:
                out[f.name] = v
        return out

    @classmethod
    def from_cli(cls, spec: str) -> "SearchOptions":
        """Parse the ``--search`` flag's compact spec.

        ``--search engine=sa,budget=10s,seed=7`` — comma-separated
        ``key=value`` items; a bare first item names the engine
        (``--search greedy``).  ``budget`` accepts a trailing ``s``
        (seconds).  Numbers are read here and checked by
        :meth:`from_dict`; unknown keys raise :class:`ApiError` with
        the known spellings, same contract as the wire validator.
        """
        d: dict = {}
        known = cls.WIRE_FIELDS + tuple(cls._CLI_ALIASES)
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                if "engine" in d:
                    raise ApiError(
                        f"bad --search item {item!r}: expected "
                        f"key=value",
                        detail={"where": "search",
                                "known_fields": sorted(known)})
                d["engine"] = item
                continue
            key, _, value = item.partition("=")
            key = key.strip().replace("-", "_")
            key = cls._CLI_ALIASES.get(key, key)
            if key not in cls.WIRE_FIELDS:
                raise ApiError(
                    f"unknown --search key {key!r}",
                    detail={"where": "search",
                            "known_fields": sorted(known)})
            value = value.strip()
            if key == "budget_s" and value.endswith("s"):
                value = value[:-1]
            if key != "engine":
                read = float if key == "budget_s" else int
                try:
                    value = read(value)
                except ValueError:
                    raise ApiError(
                        f"bad --search value {key}={value!r}: expected "
                        f"{'a number' if read is float else 'an integer'}",
                        detail={"where": f"search.{key}"}) from None
            d[key] = value
        return cls.from_dict(d)


@dataclass
class CompileOptions:
    """The one user-facing options schema.

    Every field is wire-serializable; the service validates incoming
    ``options`` objects against exactly this set of fields (unknown
    keys are rejected with a structured diagnostic)."""

    scheme: str = "ISPBO"              # weight-estimation scheme
    relax: bool = False                # legality relaxation (§3.2)
    ts: float | None = None            # splitting threshold, percent
    peel_mode: str | None = None       # auto|per-field|hot-cold|affinity
    verify: bool = True                # differential verification
    cache: bool = True                 # use the daemon's summary cache
    #: accepted and validated (an integer >= 0) for clients written
    #: against the former parse pool; it has no effect, since a
    #: compile runs on one core
    jobs: int = 1
    cycle_limit: int = 2_000_000_000   # simulator budget for compare
    #: global layout search (None = greedy §2.4 heuristics only)
    search: SearchOptions | None = None

    WIRE_FIELDS = ("scheme", "relax", "ts", "peel_mode", "verify",
                   "cache", "jobs", "cycle_limit", "search")
    #: integer fields and their least accepted value
    _COUNTS = (("jobs", 0), ("cycle_limit", 1))

    def __post_init__(self):
        for name, least in self._COUNTS:
            _check_count(getattr(self, name), least, f"options.{name}")
        if self.scheme not in REQUEST_SCHEMES:
            raise ApiError(
                f"unknown scheme {self.scheme!r}; a request runs one "
                f"of {', '.join(REQUEST_SCHEMES)}",
                detail={"where": "options.scheme",
                        "known_schemes": list(REQUEST_SCHEMES)})
        if self.ts is not None:
            _check_number(self.ts, "options.ts")
        if self.peel_mode is not None \
                and self.peel_mode not in PEEL_MODES:
            raise ApiError(
                f"unknown peel mode {self.peel_mode!r}; expected one "
                f"of {', '.join(PEEL_MODES)}",
                detail={"where": "options.peel_mode",
                        "known_modes": list(PEEL_MODES)})

    @classmethod
    def from_dict(cls, d: dict | None) -> "CompileOptions":
        if d is None:
            return cls()
        if not isinstance(d, dict):
            raise ApiError("'options' must be an object",
                           detail={"where": "options"})
        _reject_unknown(d, cls.WIRE_FIELDS, "options")
        kwargs: dict = {name: _flag(d, name, f"options.{name}")
                        for name in ("relax", "verify", "cache")
                        if name in d}
        kwargs.update({name: d[name] for name in ("scheme", "ts",
                                                  "peel_mode")
                       if name in d})
        kwargs.update({name: _wire_count(d[name])
                       for name, _ in cls._COUNTS if name in d})
        if d.get("search") is not None:
            kwargs["search"] = SearchOptions.from_dict(d["search"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Only the non-default fields — the compact wire form."""
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if v != f.default:
                out[f.name] = v.to_dict() if f.name == "search" else v
        return out

    def compiler_options(self, tier: str = "full",
                         cache_dir: str | None = None
                         ) -> CompilerOptions:
        """Lower onto core options for one degradation-ladder tier.

        The one lowering every way in shares: the local CLI commands,
        the service workers (and so ``repro client``) and
        :meth:`Session.execute`.  ``ts`` and ``peel_mode`` tune the
        greedy heuristics; only ``search`` turns the layout search on.
        """
        params = HeuristicParams()
        if self.ts is not None:
            params.ts_static = float(self.ts)
            params.ts_profile = float(self.ts)
        if self.peel_mode:
            params.peel_mode = self.peel_mode
        full = tier == "full"
        return CompilerOptions(
            scheme=self.scheme,
            params=params,
            relax_legality=self.relax,
            transform=full,
            verify_transforms=full and self.verify,
            cache_dir=cache_dir if self.cache else None,
            search=self.search)


# ---------------------------------------------------------------------------
# Request / reply
# ---------------------------------------------------------------------------

@dataclass
class CompileRequest:
    """One typed compile request — the CLI, the service wire protocol,
    and in-process execution all build exactly this."""

    op: str
    sources: list[tuple[str, str]] = field(default_factory=list)
    options: CompileOptions = field(default_factory=CompileOptions)
    id: str | int | None = None
    deadline: float | None = None      # per-attempt wall clock, seconds
    max_retries: int | None = None     # retries at the requested tier
    faults: list[ProcessFaultSpec] = field(default_factory=list)
    #: ask for a stitched distributed trace of this request
    trace: bool = False
    #: multi-tenancy triple (overload control).  ``tenant`` names the
    #: quota/fair-queue bucket this request is accounted to;
    #: ``priority`` picks the within-tenant lane (0=high, 1=normal,
    #: 2=low — names accepted on the wire); ``deadline_ms`` is the
    #: *remaining end-to-end budget in milliseconds at send time* —
    #: every hop (router, server queue, supervisor) deducts its own
    #: elapsed time before passing it on.
    tenant: str | None = None
    priority: int = 1
    deadline_ms: float | None = None

    WIRE_FIELDS = ("op", "id", "sources", "options", "deadline",
                   "max_retries", "faults", "trace", "tenant",
                   "priority", "deadline_ms")

    def __post_init__(self):
        if self.op not in COMPILE_OPS:
            raise ApiError(
                f"unknown op {self.op!r}; expected one of "
                f"{', '.join(COMPILE_OPS)}",
                detail={"op": self.op, "known_ops": list(COMPILE_OPS)})
        for name in ("deadline", "deadline_ms"):
            if getattr(self, name) is not None:
                _check_number(getattr(self, name), name, positive=True)
        if self.max_retries is not None:
            _check_count(self.max_retries, 0, "max_retries")

    @classmethod
    def from_dict(cls, d: dict) -> "CompileRequest":
        if not isinstance(d, dict):
            raise ApiError("request must be a JSON object")
        _reject_unknown(d, cls.WIRE_FIELDS, "request")
        op = d.get("op")
        if op not in COMPILE_OPS:
            raise ApiError(
                f"unknown op {op!r}; expected one of "
                f"{', '.join(COMPILE_OPS)}",
                detail={"op": op, "known_ops": list(COMPILE_OPS)})
        raw = d.get("sources")
        if not isinstance(raw, list) or not raw:
            raise ApiError(
                f"op {op!r} requires a non-empty 'sources' list of "
                f"[unit_name, text] pairs", detail={"where": "sources"})
        sources: list[tuple[str, str]] = []
        for entry in raw:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not all(isinstance(x, str) for x in entry)):
                raise ApiError(
                    "each source must be a [unit_name, text] pair of "
                    "strings", detail={"where": "sources"})
            sources.append((entry[0], entry[1]))
        options = CompileOptions.from_dict(d.get("options"))
        try:
            faults = [ProcessFaultSpec.from_dict(f)
                      for f in (d.get("faults") or [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise ApiError(f"bad fault spec: {exc}",
                           detail={"where": "faults"}) from exc
        tenant = d.get("tenant")
        if tenant is not None:
            if not isinstance(tenant, str) or not tenant:
                raise ApiError("'tenant' must be a non-empty string",
                               detail={"where": "tenant"})
        priority = coerce_priority(d.get("priority", 1))
        return cls(op=op, sources=sources, options=options,
                   id=d.get("id"), deadline=d.get("deadline"),
                   max_retries=_wire_count(d.get("max_retries")),
                   faults=faults,
                   trace=_flag(d, "trace", "trace") if "trace" in d
                   else False,
                   tenant=tenant, priority=priority,
                   deadline_ms=d.get("deadline_ms"))

    def to_wire(self) -> dict:
        """The request as the wire dict ``from_dict`` round-trips."""
        out: dict = {"op": self.op,
                     "sources": [[n, t] for n, t in self.sources]}
        if self.id is not None:
            out["id"] = self.id
        opts = self.options.to_dict()
        if opts:
            out["options"] = opts
        if self.deadline is not None:
            out["deadline"] = self.deadline
        if self.max_retries is not None:
            out["max_retries"] = self.max_retries
        if self.faults:
            out["faults"] = [f.to_dict() for f in self.faults]
        if self.trace:
            out["trace"] = True
        if self.tenant is not None:
            out["tenant"] = self.tenant
        if self.priority != 1:
            out["priority"] = self.priority
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out

    def ladder(self) -> tuple[str, ...]:
        return LADDER[self.op]

    def source_fingerprint(self) -> str:
        """Content hash of the sources — the per-workload half of the
        service's circuit-breaker key."""
        return fingerprint("req-sources", tuple(self.sources))


@dataclass
class CompileReply:
    """One typed reply, local or from the daemon."""

    op: str
    #: ok|degraded|busy|error|rejected|deadline_exceeded
    status: str
    id: str | int | None = None
    tier: str | None = None
    payload: dict = field(default_factory=dict)
    diagnostics: list[dict] = field(default_factory=list)
    attempts: int = 0
    respawns: int = 0
    elapsed_s: float | None = None
    error: dict | None = None
    retry_after: float | None = None
    trace_id: str | None = None
    #: stitched span dicts, present when the request asked for a trace
    spans: list[dict] = field(default_factory=list)
    #: routing record, present when a farm router served the request:
    #: ``{"shard": ..., "attempts": ..., "failovers": ..., "hedged": ...}``
    route: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED

    @classmethod
    def from_wire(cls, d: dict) -> "CompileReply":
        if not isinstance(d, dict):
            raise ApiError("reply must be a JSON object")
        return cls(
            op=str(d.get("op", "(unknown)")),
            status=str(d.get("status", STATUS_ERROR)),
            id=d.get("id"),
            tier=d.get("tier"),
            payload=dict(d.get("payload") or {}),
            diagnostics=list(d.get("diagnostics") or []),
            attempts=int(d.get("attempts", 0)),
            respawns=int(d.get("respawns", 0)),
            elapsed_s=d.get("elapsed_s"),
            error=d.get("error"),
            retry_after=d.get("retry_after"),
            trace_id=d.get("trace_id"),
            spans=list(d.get("spans") or []),
            route=d.get("route"))

    def to_wire(self) -> dict:
        out: dict = {"id": self.id, "op": self.op,
                     "status": self.status,
                     "diagnostics": self.diagnostics,
                     "attempts": self.attempts,
                     "respawns": self.respawns}
        if self.tier is not None:
            out["tier"] = self.tier
        if self.payload:
            out["payload"] = self.payload
        if self.elapsed_s is not None:
            out["elapsed_s"] = round(self.elapsed_s, 4)
        if self.error is not None:
            out["error"] = self.error
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.spans:
            out["spans"] = self.spans
        if self.route is not None:
            out["route"] = self.route
        return out


# ---------------------------------------------------------------------------
# Tier execution — shared by Session.execute and the service workers
# ---------------------------------------------------------------------------

def type_rows(legality, decisions: dict | None = None) -> dict:
    """Per-type legality rows, with each type's plan and notes when
    ``decisions`` (by type name) are given: the ``repro analyze``
    table of a payload's ``types``."""
    rows = {}
    for name, info in sorted(legality.types.items()):
        row = rows[name] = {
            "status": "OK" if info.is_legal()
            else ",".join(sorted(info.invalid_reasons)),
            "attrs": list(info.attributes()),
        }
        if decisions is not None:
            decision = decisions.get(name)
            row["plan"] = decision.action if decision is not None \
                else "none"
            row["notes"] = list(decision.notes) if decision is not None \
                else []
    return rows


def _legality_payload(sources: list[tuple[str, str]]
                      ) -> tuple[dict, list]:
    """The ``legality`` ladder tier: parse + per-unit legality merge
    only — no weights, profiles, heuristics, or transformation.  The
    cheapest still-useful answer the service can give."""
    from .analysis.legality import (
        fallback_unit_legality, merge_unit_legality,
        summarize_unit_legality,
    )
    diags = DiagnosticEngine()
    program = Program.from_sources(sources, recover=True)
    for err in program.frontend_errors:
        diags.error("parse", err.message, unit=err.unit,
                    line=err.line or None)
    summaries = []
    for unit in program.units:
        try:
            summaries.append(summarize_unit_legality(unit))
        except Exception as exc:
            diags.warning(
                f"legality[{unit.name}]",
                f"unit summary failed ({type(exc).__name__}: {exc}); "
                f"conservative fallback substituted",
                unit=unit.name, code=CODE_CONTAINED)
            summaries.append(fallback_unit_legality(unit.name))
    legality = merge_unit_legality(program, summaries)
    payload = {"table1": list(legality.counts()),
               "types": type_rows(legality)}
    return payload, [d.to_dict() for d in diags]


#: the summary-cache category of memoized replies
REPLY_CATEGORY = "reply"


def execute_tier(op: str, tier: str, sources: list[tuple[str, str]],
                 options: CompileOptions, *,
                 cache_dir: str | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None
                 ) -> tuple[dict, list]:
    """Run one compile operation at one ladder tier.

    Returns ``(payload, diagnostics)``; raises on failure — transports
    turn exceptions into their own structured error forms.  This is
    the single payload builder: the service workers and
    :meth:`Session.execute` both call it, so a request answered
    locally and one answered by the daemon agree byte-for-byte.

    **Reply memo.**  With the request's ``cache`` option on and a
    ``cache_dir``, a deterministic request is memoized in the summary
    cache's ``reply`` category, keyed by everything its payload
    depends on (:func:`_reply_key`).  A hit returns the stored payload
    — its ``timings`` time only the restore — with two fresh cache
    notes.  A miss compiles on the same cache handle (in a farm
    worker, every cache op rides the worker's one pooled
    cache-service connection) and stores the payload without
    its ``timings``, plus its non-cache notes, unless a diagnostic is
    a warning or worse.  The ``legality`` tier, the ladder's cheap
    last resort, is not memoized.

    The request's objects are traced by the cyclic collector once: it
    is paused while the request runs and, after the request's graph
    is dropped, one young collection frees it (see DESIGN.md,
    "Request-scoped memory").  A request that finds the collector
    already disabled — by its caller, or by an overlapping request on
    another thread — leaves it alone.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        if tier == "legality":
            return _legality_payload(sources)
        copts = options.compiler_options(tier, cache_dir)
        cache = open_cache(copts.cache_dir)
        try:
            key = _reply_key(cache, op, tier, sources, options, copts)
            reply = _restore_reply(cache, key, tracer, metrics) \
                if key is not None else None
            if reply is not None:
                return reply
            payload, diagnostics = _build_payload(
                op, tier, sources, options, copts, cache, tracer, metrics)
            if key is not None:
                _store_reply(cache, key, payload, diagnostics)
            return payload, diagnostics
        finally:
            if cache is not None:
                cache.close()
    finally:
        if paused:
            gc.enable()
            gc.collect(0)


def _reply_key(cache: SummaryCache | None, op: str, tier: str,
               sources: list[tuple[str, str]], options: CompileOptions,
               copts: CompilerOptions) -> str | None:
    """The memo key of a deterministic request, or None.  A request
    is not deterministic while a fault registry is armed (every drill
    must reach the passes) or when its search has a wall-clock
    budget."""
    if cache is None or FAULTS or PROC_FAULTS or CACHE_FAULTS:
        return None
    search = options.search
    if search is not None and search.budget_s > 0:
        return None
    return cache.key_for(REPLY_CATEGORY, op, tier, tuple(sources),
                         copts.fingerprint(), options.verify,
                         options.cycle_limit, search)


def _restore_reply(cache: SummaryCache, key: str, tracer: Tracer | None,
                   metrics: MetricsRegistry | None
                   ) -> tuple[dict, list] | None:
    """The memoized reply under ``key``, or None (a miss, or an entry
    of the wrong shape, which is quarantined)."""
    t0 = time.perf_counter()
    memo = cache.load(REPLY_CATEGORY, key)
    if memo is None:
        return None
    if not (isinstance(memo, dict) and isinstance(memo.get("payload"), dict)
            and isinstance(memo.get("notes"), list)):
        cache.reject(REPLY_CATEGORY, key, "artifact has the wrong shape")
        return None
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.add_finished("reply", t0, t1, category=CAT_COMPILE,
                            attrs={"restored_from_cache": True})
    count_cache_lookups(metrics, cache)
    diags = DiagnosticEngine()
    diags.note("reply", "reply restored from summary cache",
               code=CODE_CACHE)
    report_cache_events(cache, diags)
    return ({**memo["payload"], "timings": {"reply": round(t1 - t0, 4)}},
            [d.to_dict() for d in diags] + memo["notes"])


def _store_reply(cache: SummaryCache, key: str, payload: dict,
                 diagnostics: list[dict]) -> None:
    """Memoize a reply no diagnostic warns about: its payload with the
    wall-clock ``timings`` blanked, and its notes bar the cache's own,
    which describe this request's lookups only."""
    if any(d["severity"] != "note" for d in diagnostics):
        return
    cache.store(REPLY_CATEGORY, key, {
        "payload": {**payload, "timings": None},
        "notes": [d for d in diagnostics if d.get("code") != CODE_CACHE]})


def _build_payload(op: str, tier: str, sources: list[tuple[str, str]],
                   options: CompileOptions, copts: CompilerOptions,
                   cache: SummaryCache | None, tracer: Tracer | None,
                   metrics: MetricsRegistry | None) -> tuple[dict, list]:
    result = Compiler(copts, tracer=tracer, metrics=metrics) \
        .compile_sources(sources, cache=cache)
    timings = {k: round(v, 4) for k, v in result.timings.items()}
    payload: dict = {
        "table1": list(result.table1_row()),
        "types": type_rows(result.legality, result.decisions_by_type()),
        "timings": timings,
    }
    if result.search:
        # per-type search stats (JSON-ready: the refined decisions
        # themselves already live in the ordinary decision rows); a
        # search's wall clock is timed in ``timings`` as ``search[T]``,
        # so the rest of a seeded search's payload repeats
        payload["search"] = {}
        for name, stats in sorted(result.search.items()):
            stats = dict(stats)
            if "elapsed_s" in stats:
                timings[f"search[{name}]"] = stats.pop("elapsed_s")
            payload["search"][name] = stats

    if op == "advise":
        from .advisor import advisor_report
        payload["report"] = advisor_report(result)

    if tier == "full":
        from .transform.unparse import program_sources
        payload["transformed_types"] = [
            {"type_name": d.type_name, "action": d.action,
             "cold_fields": list(d.cold_fields),
             "dead_fields": list(d.dead_fields)}
            for d in result.transformed_types()]
        payload["rolled_back"] = list(result.rolled_back)
        if op == "transform":
            payload["transformed_sources"] = [
                [name, text]
                for name, text in program_sources(result.transformed)]
        elif op == "compare":
            compared, failed = compare_result(result, options.cycle_limit)
            if failed is None:
                payload["compare"] = compared
            else:
                # nothing to compare: the reply says why, in one error
                result.diagnostics.error(
                    phase="compare",
                    code=CODE_BUDGET if failed.trap == "StepLimitExceeded"
                    else CODE_TRAP,
                    message=run_failure(failed.trap, failed.trap_message,
                                        options.cycle_limit))
    return payload, [d.to_dict() for d in result.diagnostics]


def compare_result(result: CompilationResult, cycle_limit: int
                   ) -> tuple[dict | None, RunOutcome | None]:
    """Compare the original and the transformed program's runs.

    Each program is simulated at most once per request: a run the
    compile recorded (:attr:`CompilationResult.runs`) is reused when
    its cycles are within ``cycle_limit`` — the limit is checked
    before each block, so such a run also completes under that limit
    — and the transformed program is the original's run when it is
    the same object.  Returns ``(block, None)``, the ``compare``
    payload block, with an error diagnostic on ``result`` when the
    outputs differ; or ``(None, failed)`` when a run could not
    complete (past ``cycle_limit``, a trap, no ``main``).
    """
    outs: list[RunOutcome] = []
    for program in (result.program, result.transformed):
        out = outs[0] if outs and program is result.program \
            else result.run_of(program)
        if out is None or out.cycles > cycle_limit:
            out = try_run_program(program, cycle_limit=cycle_limit)
        if not out.completed:
            return None, out
        outs.append(out)
    before, after = outs
    mismatch = before.stdout != after.stdout
    if mismatch:
        result.diagnostics.error(
            phase="compare", code=CODE_MISMATCH,
            message="transformation changed program output: "
                    + _first_divergence(before.stdout, after.stdout),
            action="rerun with verification enabled")
    return {
        "before_cycles": before.cycles,
        "after_cycles": after.cycles,
        "gain_pct": round(100.0 * (before.cycles / after.cycles - 1.0), 2)
        if after.cycles else None,
        "output": before.stdout,
        "mismatch": mismatch,
    }, None


def run_failure(trap: str, message: str, cycle_limit: int,
                limit_name: str = "cycle_limit") -> str:
    """One line saying why a simulated run ended in ``trap`` (an
    exception class name) instead of completing; ``limit_name`` is how
    the caller spells the limit."""
    if trap == "StepLimitExceeded":
        return f"program ran past {limit_name} ({cycle_limit:,} cycles)"
    if trap == "CompileError":
        return f"cannot run the program: {message}"
    return f"program trapped: {trap}: {message}"


def _first_divergence(before: str, after: str) -> str:
    """Where two outputs first differ: a line number and both lines."""
    for i, (a, b) in enumerate(zip(before.splitlines(),
                                   after.splitlines()), start=1):
        if a != b:
            return f"line {i}: '{a}' != '{b}'"
    na, nb = len(before.splitlines()), len(after.splitlines())
    return f"line {min(na, nb) + 1}: output truncated ({na} vs {nb} lines)"


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------

class Session:
    """An in-process compiler handle: options + observability::

        from repro.api import Session
        result = Session().compile_source(text)

        from repro.obs import Tracer
        tracer = Tracer()
        result = Session(tracer=tracer).compile_sources(sources)
        # tracer.finished() now holds the compile -> phase -> pass tree

    ``execute`` runs a full :class:`CompileRequest` through the same
    payload builder the service workers use.
    """

    def __init__(self, options: CompilerOptions | None = None, *,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 cache_dir: str | None = None):
        self.options = options or CompilerOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.cache_dir = cache_dir if cache_dir is not None \
            else self.options.cache_dir

    def _compiler(self) -> Compiler:
        return Compiler(self.options, tracer=self.tracer,
                        metrics=self.metrics)

    def compile(self, program: Program) -> CompilationResult:
        """Compile an already-parsed :class:`Program`."""
        return self._compiler().compile(program)

    def compile_source(self, source: str) -> CompilationResult:
        """Compile one MiniC source text."""
        return self._compiler().compile(Program.from_source(source))

    def compile_sources(self, sources: list[tuple[str, str]]
                        ) -> CompilationResult:
        """Compile ``[(unit_name, text), ...]`` through the front end
        and (when configured) the summary cache."""
        return self._compiler().compile_sources(sources)

    def execute(self, request: CompileRequest, *,
                tier: str | None = None) -> CompileReply:
        """Serve a typed request in-process, at its best ladder tier
        (or an explicit ``tier``) — no daemon involved."""
        tier = tier or request.ladder()[0]
        payload, diagnostics = execute_tier(
            request.op, tier, request.sources, request.options,
            cache_dir=self.cache_dir, tracer=self.tracer,
            metrics=self.metrics)
        spans = [s.to_dict() for s in self.tracer.finished()] \
            if self.tracer.enabled else []
        return CompileReply(
            op=request.op, status=STATUS_OK, id=request.id, tier=tier,
            payload=payload, diagnostics=diagnostics, attempts=1,
            trace_id=self.tracer.trace_id or None
            if self.tracer.enabled else None,
            spans=spans)
