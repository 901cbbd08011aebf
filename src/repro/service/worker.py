"""Worker subprocess for the supervised compile service.

Each worker is one long-lived subprocess executing compile jobs the
supervisor sends over a pipe.  The worker

- runs a daemon *heartbeat thread* stamping a shared
  ``multiprocessing.Value`` with the monotonic clock every
  :data:`HEARTBEAT_INTERVAL` seconds — the supervisor's hang detector;
- publishes its *current pass* into a shared character array (via a
  subscriber on the pipeline's pass-event registry) so a crash report
  can name the last pass a dead worker was in;
- receives each job as the request's own
  :class:`~repro.api.CompileRequest` plus the ladder tier and attempt
  number, and arms the request's *process-level faults*
  (:class:`~repro.core.faults.ProcessFaultSpec`) before executing, so
  kill/hang/OOM recovery paths are provable from tests;
- when the job carries a trace context, runs the pipeline under a
  :class:`~repro.obs.Tracer` bound to the request's trace id and ships
  the collected spans back with the result, for the supervisor to
  stitch into one distributed trace;
- answers every job with exactly one message: ``result`` (payload +
  serialized diagnostics), ``error`` (the job failed but the worker is
  healthy), or ``fatal`` (the worker is dying — simulated or real OOM —
  and exits right after sending).

The worker holds no state a crash can lose: per-unit analysis
summaries and whole replies live in the on-disk content-addressed cache
shared by the whole pool, so a respawned worker is warm immediately.

Payload building is delegated to :func:`repro.api.execute_tier` — the
same code path :meth:`repro.api.Session.execute` runs in-process, so
daemon answers and local answers agree.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback

from ..api import CompileRequest, execute_tier
from ..core.faults import PROC_FAULTS, ProcessFault, ProcessFaultSpec
from ..core.pipeline import PASS_EVENTS
from ..obs import CAT_SERVICE, Tracer

#: bytes reserved for the shared current-pass name
STAGE_BYTES = 96

#: seconds between two heartbeat stamps
HEARTBEAT_INTERVAL = 0.05

#: exit status a worker uses when dying on a fatal (OOM-like) fault;
#: chosen to mirror a SIGKILLed process (128 + 9)
FATAL_EXIT = 137


def set_stage(state, name: str) -> None:
    """Publish the current pass name into the shared array."""
    state.value = name.encode("utf-8", errors="replace")[:STAGE_BYTES - 1]


def get_stage(state) -> str:
    return state.value.decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# Job execution (runs inside the worker process)
# ---------------------------------------------------------------------------

def execute_job(job: dict, cache_dir: str | None,
                tracer: Tracer | None = None) -> tuple[dict, list]:
    """Run one job at its assigned tier; returns (payload, diagnostics).

    Raises on failure — the caller turns exceptions into ``error``
    messages (or ``fatal`` for :class:`ProcessFault`/``MemoryError``).
    """
    req: CompileRequest = job["request"]
    return execute_tier(req.op, job["tier"], req.sources, req.options,
                        cache_dir=cache_dir, tracer=tracer)


def _job_tracer(job: dict) -> Tracer | None:
    """A tracer bound to the request's trace context, or None.

    Span ids are prefixed with this worker's pid so ids from different
    workers (or a killed-and-respawned worker on a retry) can never
    collide once the supervisor stitches them into one trace."""
    ctx = job.get("trace")
    if not ctx:
        return None
    return Tracer(trace_id=ctx.get("trace_id") or None,
                  id_prefix=f"w{os.getpid()}.")


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------

def worker_main(conn, heartbeat, state, cache_dir: str | None,
                boot_faults: list[dict],
                parent_pid: int | None = None) -> None:
    """Run the worker loop until the parent sends ``None`` or dies."""
    # a forked worker inherits the daemon's SIGTERM handler (graceful
    # drain); a worker must just die on SIGTERM so the supervisor's
    # kill-and-respawn escalation stays prompt
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    # a worker must not outlive its supervisor.  fork() makes every
    # worker inherit the supervisor's ends of all worker pipes already
    # open at fork time — including its own — so a SIGKILLed daemon
    # never delivers EOF on ``conn``: the recv() below would block
    # forever and the worker would leak as an orphan.  Watch parentage
    # instead; reparenting (to init/subreaper) means the daemon died.
    if parent_pid is None:
        parent_pid = os.getppid()

    def watch_parent() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=watch_parent, daemon=True,
                     name="repro-parent-watch").start()
    PROC_FAULTS.arm([ProcessFaultSpec.from_dict(d) for d in boot_faults])
    set_stage(state, "start")
    PROC_FAULTS.fire("start")         # slow-start boot faults land here

    silenced = threading.Event()
    PROC_FAULTS.on_hang = silenced.set

    def beat() -> None:
        while not silenced.is_set():
            heartbeat.value = time.monotonic()
            time.sleep(HEARTBEAT_INTERVAL)

    threading.Thread(target=beat, daemon=True,
                     name="repro-heartbeat").start()

    def observe(pass_name: str) -> None:
        set_stage(state, pass_name)
        PROC_FAULTS.fire(pass_name)

    def on_pass_event(ev) -> None:
        # stage publishing + fault firing happen at pass entry, before
        # the containment boundary — a ProcessFault raised here is a
        # BaseException and escapes the registry's swallow
        if ev.kind == "enter":
            observe(ev.name)

    # the subscription is unwound on *every* exit path by the finally,
    # so this worker's observer never leaks into later pipeline users
    PASS_EVENTS.subscribe(on_pass_event)
    set_stage(state, "idle")

    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                break                 # supervisor is gone
            if job is None:
                break                 # orderly shutdown
            req: CompileRequest = job["request"]
            set_stage(state, "request")
            PROC_FAULTS.arm(req.faults, attempt=job["attempt"])
            tracer = _job_tracer(job)
            try:
                PROC_FAULTS.fire("request")
                observe("parse")      # stages before the first guard
                if tracer is not None:
                    with tracer.span("job", category=CAT_SERVICE) as js:
                        js.set(op=req.op, tier=job["tier"],
                               attempt=job["attempt"],
                               worker_pid=os.getpid())
                        payload, diagnostics = execute_job(
                            job, cache_dir, tracer)
                else:
                    payload, diagnostics = execute_job(job, cache_dir)
                msg = {"kind": "result", "id": req.id,
                       "payload": payload, "diagnostics": diagnostics}
                if tracer is not None:
                    msg["spans"] = [s.to_dict()
                                    for s in tracer.finished()]
                conn.send(msg)
            except (ProcessFault, MemoryError) as exc:
                # an OOM (simulated or real) is not survivable
                # in-process: report what we can, then die like the
                # OOM killer hit us
                try:
                    conn.send({"kind": "fatal", "id": req.id,
                               "error": f"{type(exc).__name__}: {exc}",
                               "stage": get_stage(state)})
                finally:
                    os._exit(FATAL_EXIT)
            except Exception as exc:  # job failed; worker is healthy
                msg = {"kind": "error", "id": req.id,
                       "error": f"{type(exc).__name__}: {exc}",
                       "stage": get_stage(state),
                       "traceback": traceback.format_exc(limit=8)}
                if tracer is not None:
                    msg["spans"] = [s.to_dict()
                                    for s in tracer.finished()]
                conn.send(msg)
            finally:
                PROC_FAULTS.disarm()
                set_stage(state, "idle")
    finally:
        PASS_EVENTS.unsubscribe(on_pass_event)
