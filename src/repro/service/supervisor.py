"""Supervisor: the worker pool, deadlines, retries, and the ladder.

The supervisor owns a fixed-size pool of worker subprocesses
(:mod:`repro.service.worker`) and turns each compile request into a
response by walking the request's graceful-degradation ladder:

1. The *requested tier* (e.g. ``full`` for ``transform``) is attempted
   up to ``1 + max_retries`` times, with jittered exponential backoff
   between attempts.
2. Every failed attempt feeds the per-``(op, tier, workload)`` circuit
   breaker; a tier whose breaker is open is skipped outright.
3. On exhaustion the next ladder tier is attempted (once each), down to
   the minimal ``legality`` report.
4. If every tier fails, the caller gets a *structured error response* —
   never a dropped connection, never a dead daemon.

Each attempt runs under a wall-clock **deadline** and a
**heartbeat-based hang detector**: a worker whose heartbeat goes stale
(``hang_timeout``) or whose attempt outlives the deadline is terminated
(SIGTERM, then SIGKILL escalation), a **crash report** naming its last
pass is persisted, and a replacement worker is spawned.  The on-disk
summary cache is shared by the whole pool, so a respawned worker is
warm immediately and a poisoned request degrades only itself.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from collections import OrderedDict

from ..api import CompileRequest
from ..core.diagnostics import (
    CODE_BREAKER, CODE_DEADLINE, CODE_DEGRADED, CODE_HANG, CODE_WORKER,
    Diagnostic, DiagnosticEngine,
)
from ..core.summarycache import fingerprint
from ..obs import CAT_SERVICE, MetricsRegistry, Tracer
from .breaker import CircuitBreaker
from .requests import (
    STATUS_DEGRADED, STATUS_OK, busy_response, deadline_response,
    error_response, response,
)
from .worker import STAGE_BYTES, get_stage, worker_main

#: stitched traces kept in memory for the ``trace`` control op
TRACE_STORE_MAX = 64

#: seconds held back from a request's end-to-end ``deadline_ms``
#: budget when deriving the worker deadline, so a successful reply
#: always lands *before* the wire deadline
DEADLINE_MARGIN = 0.1

#: replacement spawns tried after a worker fails to come up
SPAWN_RETRIES = 3

#: SIGTERM grace before SIGKILL escalation, seconds
TERM_GRACE = 0.5


@dataclass
class SupervisorConfig:
    """Knobs for one supervisor (CLI flags map onto these)."""

    pool_size: int = 2
    #: per-attempt wall-clock deadline, seconds (requests may lower it)
    deadline: float = 60.0
    #: retries at the requested tier (lower tiers get one attempt each)
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: kill a busy worker whose heartbeat is older than this
    hang_timeout: float = 2.0
    #: max wait for a fresh worker's first heartbeat before respawning
    ready_timeout: float = 15.0
    #: shared content-addressed summary cache (None = no cache)
    cache_dir: str | None = None
    #: where crash reports are persisted (default: <cache_dir>/crashes,
    #: or a temp directory when there is no cache or the cache is a
    #: remote ``unix:`` service)
    crash_dir: str | None = None
    #: cap on retained crash reports; oldest are rotated out beyond it
    crash_max: int = 200
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: boot-time fault specs (slow-start drills) forwarded to the first
    #: ``boot_fault_spawns`` worker spawns only, so recovery converges
    boot_faults: list[dict] = field(default_factory=list)
    boot_fault_spawns: int = 1
    #: RNG seed for backoff jitter (None = nondeterministic)
    jitter_seed: int | None = None


class _WorkerHandle:
    """Parent-side view of one worker subprocess."""

    def __init__(self, index: int, proc, conn, heartbeat, state):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.heartbeat = heartbeat
        self.state = state
        self.spawned_at = time.monotonic()
        self.jobs_done = 0

    @property
    def last_stage(self) -> str:
        return get_stage(self.state)


class _Outcome:
    """Result of one execution attempt."""

    def __init__(self, kind: str, *, payload=None, diagnostics=None,
                 detail: str = "", last_stage: str = "",
                 respawned: bool = False):
        self.kind = kind      # ok | error | fatal | crash | deadline |
        #                       hang | busy
        self.payload = payload
        self.diagnostics = diagnostics or []
        self.detail = detail
        self.last_stage = last_stage
        #: the attempt's own worker died and was replaced
        self.respawned = respawned

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


class Supervisor:
    """Owns the pool; turns requests into structured responses.

    Every event it counts is one series in :attr:`metrics`, the
    daemon's one registry; the ``supervisor`` stats block is read out
    of it."""

    def __init__(self, config: SupervisorConfig | None = None):
        self.config = config or SupervisorConfig()
        cfg = self.config
        # fork keeps a respawn cheap; spawn is the portable fallback
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self.breaker = CircuitBreaker(threshold=cfg.breaker_threshold,
                                      cooldown=cfg.breaker_cooldown)
        self._rng = random.Random(cfg.jitter_seed)
        self._cv = threading.Condition()
        self._idle: list[_WorkerHandle] = []
        #: every live handle, idle or checked out — stop() must reap
        #: busy workers too, or they outlive the daemon as orphans
        self._workers: set[_WorkerHandle] = set()
        self._stopping = False
        self._spawn_count = 0
        self._crash_seq = 0
        self.metrics = MetricsRegistry()
        self._trace_lock = threading.Lock()
        #: trace_id -> stitched span dicts, newest last (bounded)
        self._traces: OrderedDict[str, list[dict]] = OrderedDict()
        if cfg.crash_dir is None:
            if cfg.cache_dir is not None \
                    and not str(cfg.cache_dir).startswith("unix:"):
                cfg.crash_dir = str(Path(cfg.cache_dir) / "crashes")
            else:
                import tempfile
                cfg.crash_dir = tempfile.mkdtemp(prefix="repro-crash-")
        Path(cfg.crash_dir).mkdir(parents=True, exist_ok=True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for i in range(self.config.pool_size):
            handle = self._spawn(i)
            with self._cv:
                self._idle.append(handle)
                self._cv.notify()

    def stop(self) -> None:
        with self._cv:
            self._stopping = True
            idle = list(self._idle)
            self._idle.clear()
            everyone = list(self._workers)
            self._cv.notify_all()
        for w in idle:
            try:
                w.conn.send(None)
            except (OSError, ValueError):
                pass
        for w in everyone:
            w.proc.join(timeout=1.0 if w in idle else 0.0)
            if w.proc.is_alive():
                self._kill(w)
            try:
                w.conn.close()
            except OSError:
                pass
        with self._cv:
            self._workers.clear()

    # -- spawning / killing ------------------------------------------------

    def _spawn(self, index: int) -> _WorkerHandle:
        """Spawn one worker and wait for its first heartbeat.

        A worker that does not come up within ``ready_timeout``
        (slow-start fault, wedged import) is killed, crash-reported,
        and replaced, up to :data:`SPAWN_RETRIES` times.
        """
        cfg = self.config
        last_error = "worker never became ready"
        for attempt in range(SPAWN_RETRIES + 1):
            self._spawn_count += 1
            boot_faults = cfg.boot_faults \
                if self._spawn_count <= cfg.boot_fault_spawns else []
            parent_conn, child_conn = self._ctx.Pipe()
            heartbeat = self._ctx.Value("d", 0.0, lock=False)
            state = self._ctx.Array("c", STAGE_BYTES)
            proc = self._ctx.Process(
                target=worker_main,
                args=(child_conn, heartbeat, state, cfg.cache_dir,
                      boot_faults, os.getpid()),
                daemon=True, name=f"repro-worker-{index}")
            proc.start()
            child_conn.close()
            handle = _WorkerHandle(index, proc, parent_conn, heartbeat,
                                   state)
            t0 = time.monotonic()
            while time.monotonic() - t0 < cfg.ready_timeout:
                if heartbeat.value > 0.0:
                    with self._cv:
                        self._workers.add(handle)
                    return handle
                if not proc.is_alive():
                    break
                time.sleep(0.01)
            last_error = ("worker died during startup"
                          if not proc.is_alive()
                          else f"no heartbeat within "
                               f"{cfg.ready_timeout:.1f}s")
            self._kill(handle)
            self._crash_report(
                op="(spawn)", tier="-", request_id=None, attempt=attempt,
                units=[], last_stage="start", reason="slow-start",
                detail=last_error, exitcode=proc.exitcode)
        raise RuntimeError(
            f"worker {index} failed to start after "
            f"{SPAWN_RETRIES + 1} attempts: {last_error}")

    def _kill(self, w: _WorkerHandle) -> None:
        """SIGTERM, grace, then SIGKILL escalation."""
        with self._cv:
            self._workers.discard(w)
        if w.proc.is_alive():
            w.proc.terminate()
            w.proc.join(timeout=TERM_GRACE)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join(timeout=2.0)
        try:
            w.conn.close()
        except OSError:
            pass

    def _replace(self, w: _WorkerHandle) -> bool:
        """Kill ``w`` (if needed) and return a fresh worker to the pool;
        False when shutting down, which spawns no replacement.

        The replacement inherits nothing from the corpse except the
        on-disk summary cache — which is the point: warm state survives
        the crash."""
        self._kill(w)
        with self._cv:
            if self._stopping:
                return False
        self.metrics.counter("service.respawns").inc()
        replacement = self._spawn(w.index)
        self._release(replacement)
        return True

    # -- stitched traces ---------------------------------------------------

    def _store_trace(self, trace_id: str, spans: list[dict]) -> None:
        with self._trace_lock:
            self._traces[trace_id] = spans
            self._traces.move_to_end(trace_id)
            while len(self._traces) > TRACE_STORE_MAX:
                self._traces.popitem(last=False)

    def get_trace(self, trace_id: str | None = None
                  ) -> tuple[str, list[dict]] | None:
        """A stored stitched trace: by id, or the most recent one."""
        with self._trace_lock:
            if trace_id is not None:
                spans = self._traces.get(trace_id)
                return (trace_id, spans) if spans is not None else None
            if not self._traces:
                return None
            tid = next(reversed(self._traces))
            return tid, self._traces[tid]

    # -- pool checkout -----------------------------------------------------

    def _acquire(self, timeout: float) -> _WorkerHandle | None:
        deadline = time.monotonic() + timeout
        with self._cv:
            while not self._idle and not self._stopping:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cv.wait(timeout=remaining)
            if self._stopping or not self._idle:
                return None
            return self._idle.pop()

    def _release(self, w: _WorkerHandle) -> None:
        with self._cv:
            if self._stopping:
                pass
            self._idle.append(w)
            self._cv.notify()

    # -- crash reports -----------------------------------------------------

    def _crash_report(self, *, op: str, tier: str, request_id,
                      attempt: int, units: list[str], last_stage: str,
                      reason: str, detail: str,
                      exitcode: int | None) -> Path:
        """Persist one crash report; returns its path."""
        self._crash_seq += 1
        # attribute the crash to the pass *family*: per-node stages
        # like "apply[Point]" or "legality[a.c]" fingerprint/report as
        # their base pass, with the full stage kept in last_stage
        base = last_stage.split("[", 1)[0]
        fp = fingerprint("crash", op, tier, tuple(units), base,
                         reason)[:16]
        report = {
            "time": time.time(),
            "request_id": request_id,
            "op": op,
            "tier": tier,
            "attempt": attempt,
            "units": units,
            "last_pass": base,
            "last_stage": last_stage,
            "reason": reason,
            "detail": detail,
            "exitcode": exitcode,
            "fingerprint": fp,
        }
        path = Path(self.config.crash_dir) / \
            f"crash-{os.getpid()}-{self._crash_seq:04d}.json"
        try:
            path.write_text(json.dumps(report, indent=2) + "\n")
        except OSError:
            pass                      # reporting must never fail a request
        self._rotate_crash_reports()
        return path

    def _rotate_crash_reports(self) -> None:
        """Keep at most ``crash_max`` reports; drop oldest first.

        A disk full of crash reports from a crash loop is its own
        outage — the cap turns an unbounded leak into a ring buffer.
        Every dropped report is counted (``crash_reports_dropped``),
        so the fact of rotation is visible even after the evidence is
        gone."""
        crash_max = self.config.crash_max
        if crash_max is None or crash_max <= 0:
            return
        try:
            reports = sorted(
                Path(self.config.crash_dir).glob("crash-*.json"),
                key=lambda p: (p.stat().st_mtime, p.name))
        except OSError:
            return
        excess = reports[:max(0, len(reports) - crash_max)]
        dropped = 0
        for stale in excess:
            try:                      # racing writers: best effort
                stale.unlink()
                dropped += 1
            except OSError:
                pass
        if dropped:
            self.metrics.counter("service.crash_reports_dropped") \
                .inc(dropped)

    # -- one execution attempt ---------------------------------------------

    def _execute(self, req: CompileRequest, tier: str, attempt: int,
                 deadline: float,
                 tracer: Tracer | None = None) -> _Outcome:
        span = None
        if tracer is not None:
            span = tracer.start("attempt", category=CAT_SERVICE)
            span.set(tier=tier, attempt=attempt)

        def done(outcome: _Outcome,
                 worker_spans: list[dict] | None = None) -> _Outcome:
            if span is not None:
                span.set(result=outcome.kind)
                if not outcome.ok:
                    span.status = "error"
                    span.set(detail=outcome.detail,
                             last_pass=outcome.last_stage)
                if worker_spans:
                    # re-parent the worker's root spans under this
                    # attempt; ids were already pid-prefixed worker-side
                    tracer.adopt(worker_spans, parent_id=span.span_id)
                tracer.finish(span)
            return outcome

        cfg = self.config
        w = self._acquire(timeout=deadline)
        if w is None:
            return done(_Outcome("busy", detail="no worker available"))
        # a worker can die while idle (external kill); replace silently
        if not w.proc.is_alive():
            self._replace(w)
            w = self._acquire(timeout=deadline)
            if w is None:
                return done(
                    _Outcome("busy", detail="no worker available"))
        if span is not None:
            span.set(worker=w.index, worker_pid=w.proc.pid)

        job = {"request": req, "tier": tier, "attempt": attempt}
        if tracer is not None:
            job["trace"] = {"trace_id": tracer.trace_id}
        try:
            w.conn.send(job)
        except (OSError, ValueError) as exc:
            last = w.last_stage
            return done(_Outcome("crash",
                                 detail=f"dispatch failed: {exc}",
                                 last_stage=last,
                                 respawned=self._replace(w)))

        start = time.monotonic()
        while True:
            try:
                if w.conn.poll(0.02):
                    msg = w.conn.recv()
                    break
            except (EOFError, OSError):
                msg = None            # pipe died: worker crashed
                break
            now = time.monotonic()
            if now - start > deadline:
                last = w.last_stage
                self.metrics.counter("service.kills",
                                     reason="deadline").inc()
                self._crash_report(
                    op=req.op, tier=tier, request_id=req.id,
                    attempt=attempt, units=[n for n, _ in req.sources],
                    last_stage=last, reason="deadline",
                    detail=f"attempt exceeded its {deadline:.2f}s "
                           f"deadline", exitcode=None)
                return done(_Outcome("deadline", last_stage=last,
                                     detail=f"{deadline:.2f}s deadline "
                                            f"expired in pass {last!r}",
                                     respawned=self._replace(w)))
            hb = w.heartbeat.value
            if hb > 0.0 and now - hb > cfg.hang_timeout:
                last = w.last_stage
                self.metrics.counter("service.kills",
                                     reason="hang").inc()
                self._crash_report(
                    op=req.op, tier=tier, request_id=req.id,
                    attempt=attempt, units=[n for n, _ in req.sources],
                    last_stage=last, reason="hang",
                    detail=f"heartbeat stale for "
                           f"{now - hb:.2f}s", exitcode=None)
                return done(_Outcome(
                    "hang", last_stage=last,
                    detail=f"heartbeat lost for {now - hb:.2f}s in "
                           f"pass {last!r}",
                    respawned=self._replace(w)))
            if not w.proc.is_alive():
                try:
                    if w.conn.poll(0.0):
                        continue      # drain the last message first
                except (EOFError, OSError):
                    pass
                msg = None
                break

        if msg is None:               # worker died mid-request
            last = w.last_stage
            exitcode = w.proc.exitcode
            self.metrics.counter("service.crashes").inc()
            self._crash_report(
                op=req.op, tier=tier, request_id=req.id,
                attempt=attempt, units=[n for n, _ in req.sources],
                last_stage=last, reason="crash",
                detail=f"worker exited with {exitcode}",
                exitcode=exitcode)
            return done(_Outcome(
                "crash", last_stage=last,
                detail=f"worker died (exit {exitcode}) in "
                       f"pass {last!r}",
                respawned=self._replace(w)))

        kind = msg.get("kind")
        if kind == "result":
            w.jobs_done += 1
            self._release(w)
            return done(_Outcome("ok", payload=msg.get("payload"),
                                 diagnostics=msg.get("diagnostics")),
                        msg.get("spans"))
        if kind == "fatal":           # worker reported OOM and is dying
            last = msg.get("stage") or w.last_stage
            w.proc.join(timeout=2.0)
            self.metrics.counter("service.crashes").inc()
            self._crash_report(
                op=req.op, tier=tier, request_id=req.id,
                attempt=attempt, units=[n for n, _ in req.sources],
                last_stage=last, reason="fatal",
                detail=msg.get("error", ""), exitcode=w.proc.exitcode)
            return done(_Outcome("fatal", last_stage=last,
                                 detail=msg.get("error",
                                                "worker fatal"),
                                 respawned=self._replace(w)))
        # kind == "error": the job failed but the worker is healthy
        self._release(w)
        return done(_Outcome("error", last_stage=msg.get("stage", ""),
                             detail=msg.get("error", "request failed")),
                    msg.get("spans"))

    # -- the ladder --------------------------------------------------------

    def submit(self, req: CompileRequest, *,
               expires_at: float | None = None,
               queue_wait_s: float = 0.0) -> dict:
        """Serve one request by walking its degradation ladder.

        ``expires_at`` is the monotonic instant the request's
        end-to-end ``deadline_ms`` budget runs out (the admission
        queue item's); ``queue_wait_s`` is the time it sat in that
        queue.  When the request asked for a trace (``"trace": true``), the
        whole walk runs under a ``request`` span with one ``attempt``
        child span per execution attempt; worker-side spans come back
        with each attempt's result and are stitched underneath it.
        The stitched trace is attached to the response (``trace_id`` +
        ``spans``) and kept in a bounded store for the ``trace``
        control op."""
        if not req.trace:
            return self._submit(req, expires_at, None)
        tracer = Tracer(id_prefix="s.")
        with tracer.span("request", category=CAT_SERVICE) as rs:
            rs.set(op=req.op, request_id=req.id,
                   units=[n for n, _ in req.sources])
            if queue_wait_s:
                # the admission queue wait happened before submit();
                # synthesize its span so the trace shows the full
                # arrival -> dispatch -> attempt timeline
                now = tracer.clock()
                tracer.add_finished(
                    "queue", now - queue_wait_s, now,
                    category=CAT_SERVICE, parent_id=rs.span_id,
                    attrs={"tenant": req.tenant or "anon",
                           "priority": req.priority,
                           "wait_ms": round(queue_wait_s * 1e3, 2)})
            resp = self._submit(req, expires_at, tracer)
            rs.set(status=resp.get("status"), tier=resp.get("tier"))
            if resp.get("status") not in (STATUS_OK, STATUS_DEGRADED):
                rs.status = "error"
        spans = [s.to_dict() for s in tracer.finished()]
        self._store_trace(tracer.trace_id, spans)
        resp["trace_id"] = tracer.trace_id
        resp["spans"] = spans
        return resp

    def _submit(self, req: CompileRequest, expires_at: float | None,
                 tracer: Tracer | None) -> dict:
        cfg = self.config
        self.metrics.counter("service.requests", op=req.op).inc()
        t_start = time.monotonic()
        deadline = req.deadline if req.deadline is not None \
            else cfg.deadline
        max_retries = req.max_retries if req.max_retries is not None \
            else cfg.max_retries
        ladder = req.ladder()
        src_fp = req.source_fingerprint()[:16]
        engine = DiagnosticEngine()
        attempts = 0
        # workers this request's own attempts killed and replaced
        respawns = 0
        failure_reasons: list[dict] = []

        def remaining_s(now: float) -> float | None:
            return None if expires_at is None else expires_at - now

        for tier_index, tier in enumerate(ladder):
            key = f"{req.op}:{tier}:{src_fp}"
            if not self.breaker.allow(key):
                self.metrics.counter("breaker.open",
                                     tier=tier).inc()
                engine.warning(
                    "service",
                    f"circuit breaker open for tier {tier!r} of this "
                    f"workload; tier skipped", code=CODE_BREAKER,
                    action=f"retry after the "
                           f"{self.breaker.cooldown:.0f}s cooldown")
                failure_reasons.append(
                    {"tier": tier, "reason": "breaker-open"})
                continue
            tries = 1 + (max_retries if tier_index == 0 else 0)
            for local_try in range(tries):
                remaining = remaining_s(time.monotonic())
                if remaining is not None \
                        and remaining <= DEADLINE_MARGIN:
                    # out of end-to-end budget: answering now (with
                    # margin to spare) beats dispatching an attempt
                    # whose reply would land past the wire deadline
                    self.metrics.counter("service.deadline_exceeded",
                                         op=req.op).inc()
                    return deadline_response(
                        req.id, req.op,
                        message=f"end-to-end budget exhausted after "
                                f"{attempts} attempt(s); tier "
                                f"{tier!r} not attempted",
                        reason="budget_exhausted")
                attempt_deadline = deadline
                if remaining is not None:
                    # the worker deadline is the remaining budget
                    # minus the reply margin, never more than the
                    # configured per-attempt deadline
                    attempt_deadline = max(
                        0.05, min(deadline, remaining - DEADLINE_MARGIN))
                attempts += 1
                self.metrics.counter(
                    "service.attempts",
                    kind="retry" if attempts > 1 else "first").inc()
                outcome = self._execute(req, tier, attempts,
                                        attempt_deadline, tracer)
                respawns += outcome.respawned
                if outcome.kind == "busy":
                    self.metrics.counter("service.busy").inc()
                    return busy_response(req.id, req.op)
                if outcome.ok:
                    self.breaker.record_success(key)
                    return self._success_response(
                        req, tier, ladder, outcome, engine, attempts,
                        respawns, t_start)
                self.breaker.record_failure(key)
                self._note_failure(engine, tier, attempts, outcome)
                failure_reasons.append(
                    {"tier": tier, "reason": outcome.kind,
                     "detail": outcome.detail,
                     "last_pass": outcome.last_stage})
                if local_try < tries - 1:
                    sleep = self._backoff(local_try)
                    remaining = remaining_s(time.monotonic())
                    if remaining is not None:
                        # never sleep the budget away
                        sleep = min(sleep, max(0.0, remaining / 4))
                    time.sleep(sleep)

        self.metrics.counter("service.errors", op=req.op).inc()
        return error_response(
            req.id, req.op,
            "every degradation-ladder tier failed for this request",
            diagnostics=[d.to_dict() for d in engine],
            attempts=attempts, respawns=respawns,
            detail={"tiers_tried": list(ladder),
                    "failures": failure_reasons})

    def _backoff(self, local_try: int) -> float:
        cfg = self.config
        raw = min(cfg.backoff_cap, cfg.backoff_base * (2 ** local_try))
        return raw * (0.5 + self._rng.random() * 0.5)

    def _note_failure(self, engine: DiagnosticEngine, tier: str,
                      attempt: int, outcome: _Outcome) -> None:
        code = {"deadline": CODE_DEADLINE, "hang": CODE_HANG}.get(
            outcome.kind, CODE_WORKER)
        engine.warning(
            "service",
            f"tier {tier!r} attempt failed ({outcome.kind}: "
            f"{outcome.detail})", code=code,
            action="the supervisor retried or degraded the request")

    def _success_response(self, req: CompileRequest, tier: str,
                          ladder: tuple[str, ...], outcome: _Outcome,
                          engine: DiagnosticEngine, attempts: int,
                          respawns: int, t_start: float) -> dict:
        for d in outcome.diagnostics:
            try:
                engine.emit(Diagnostic.from_dict(d))
            except (KeyError, ValueError):
                pass
        degraded = tier != ladder[0]
        if degraded:
            engine.warning(
                "service",
                f"request degraded: served tier {tier!r} instead of "
                f"{ladder[0]!r}", code=CODE_DEGRADED,
                action="fix or re-try the workload for a full result")
        status = STATUS_DEGRADED if degraded else STATUS_OK
        self.metrics.counter("service.served", op=req.op,
                             status=status).inc()
        self.metrics.histogram("service.request_wall_ms",
                               op=req.op).observe(
            (time.monotonic() - t_start) * 1e3)
        return response(
            req.id, req.op, status, tier=tier, payload=outcome.payload,
            diagnostics=[d.to_dict() for d in engine],
            attempts=attempts, respawns=respawns,
            elapsed_s=time.monotonic() - t_start)

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        m = self.metrics
        counters = {
            "requests": m.total("service.requests"),
            "served_ok": m.total("service.served", status=STATUS_OK),
            "served_degraded": m.total("service.served",
                                       status=STATUS_DEGRADED),
            "errors": m.total("service.errors"),
            "busy": m.total("service.busy"),
            "attempts": m.total("service.attempts"),
            "respawns": m.total("service.respawns"),
            "crashes": m.total("service.crashes"),
            "deadline_kills": m.total("service.kills", reason="deadline"),
            "hang_kills": m.total("service.kills", reason="hang"),
            "breaker_skips": m.total("breaker.open"),
            "crash_reports_dropped": m.total(
                "service.crash_reports_dropped"),
            "deadline_exceeded": m.total("service.deadline_exceeded"),
        }
        with self._cv:
            idle = len(self._idle)
        counters.update({
            "pool_size": self.config.pool_size,
            "idle_workers": idle,
            "spawns": self._spawn_count,
            "crash_dir": str(self.config.crash_dir),
        })
        with self._trace_lock:
            traces = list(self._traces)
        return {"supervisor": counters,
                "breaker": self.breaker.snapshot(),
                "traces": traces}
