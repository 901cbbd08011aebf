"""Socket front doors and the service client.

:class:`LineServer` is the shared transport shell: a local Unix stream
socket, one thread per connection, newline-delimited JSON requests in,
exactly one structured response line out per request — plus the
**graceful drain** lifecycle every daemon in the farm shares.  Three
servers build on it:

- :class:`CompileServer` (this module) — the ``repro serve`` daemon
  fronting a :class:`~repro.service.supervisor.Supervisor`;
- :class:`~repro.service.router.RouterServer` — the farm's front tier;
- :class:`~repro.service.cacheservice.CacheServer` — the shared
  summary-cache service.

Drain semantics (the ``drain`` control op, and what ``SIGTERM`` runs):
the server stops *accepting* work ops — they are answered with a
``busy`` response marked ``"reason": "draining"`` so a router fails
them over instead of queueing — finishes every in-flight request, then
exits on its own.  A drained daemon can therefore be hot-restarted
with zero failed requests.

Backpressure (compile server): at most ``pool_size + queue_max``
compile requests may be in the system (queued or dispatching).  The
bound is enforced by an :class:`~repro.service.admission.
AdmissionController`: arrivals pass a per-tenant token-bucket quota, a
cost-aware hopeless-deadline check, and a bounded fair queue
(round-robin across tenants, priority lanes within one).
Beyond the bound the server *sheds load* — the request is answered
immediately with a ``busy`` response whose ``retry_after`` is derived
from the measured queue drain rate — unless the arriving tenant is
still under its fair share, in which case the most over-share tenant's
newest low-priority request is displaced (answered ``busy``) to make
room.  Quota rejections answer ``rejected``; requests whose
``deadline_ms`` budget is already hopeless answer
``deadline_exceeded``; requests that expire while queued are evicted
with ``deadline_exceeded`` instead of dispatched.

Every request takes one path, :meth:`LineServer.handle_request`:
validate, then answer a control op (``ping`` / ``stats`` / ``trace``
/ ``drain`` / ``shutdown``) or an unknown op, then pass a work op
through the server's one validator to its handler.  So a control op
means the same thing at every tier, and each server brings only what
differs: its work ops, validator and handler, its ``trace`` answer,
its extra ``ping`` fields and its own stats blocks.

Every server counts into one :class:`~repro.obs.MetricsRegistry`
(:attr:`LineServer.metrics`): each event it counts is one series
there, and each counter of its ``stats`` blocks is read back out of
that registry.

The invariant the tests enforce: **every request line receives exactly
one structured response line**.  Malformed JSON, unknown ops, internal
errors, worker crashes — all of them produce an ``error`` (or
``busy``/``degraded``) response; none of them kill the daemon or drop
the connection without an answer.
"""

from __future__ import annotations

import os
import queue as queuelib
import random
import socket
import threading
import time
from pathlib import Path

from ..api import CompileRequest
from ..core.dag import effective_cores
from ..obs import MetricsRegistry
from .admission import (
    ADMIT, ANON_TENANT, AdmissionController, QueueItem, REJECT_HOPELESS,
    REJECT_QUOTA,
)
from .requests import (
    COMPILE_OPS, CONTROL_OPS, ProtocolError, busy_response,
    deadline_response, decode, encode, error_response, parse_compile,
    parse_control, rejected_response,
)
from .supervisor import Supervisor
from .wire import (
    BoundedLineReader, DEFAULT_IDLE_TIMEOUT, DEFAULT_MAX_CONNECTIONS,
    DEFAULT_MAX_REPLY_BYTES, DEFAULT_MAX_REQUEST_BYTES, OversizedReplyError,
    PROTOCOL_VERSION, SUPPORTED_PROTOCOL_VERSIONS, oversized_response,
    parse_endpoints, protocol_error_response,
)


class _Conn:
    """One registered connection: the socket plus the bookkeeping the
    eviction policy needs (idleness, and whether a request is being
    served right now — busy connections are never cap-evicted)."""

    __slots__ = ("sock", "cid", "last_active", "busy")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.cid = 0
        self.last_active = time.monotonic()
        self.busy = False

    def close(self) -> None:
        # shutdown() first: it reliably wakes a handler thread blocked
        # in recv(), where a bare close() may not
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class LineServer:
    """Accept loop, line framing, the drain lifecycle, and the one
    request path.

    :meth:`handle_request` answers the control ops and unknown ops
    itself and hands each work op — one of :attr:`WORK_OPS`, counted
    as in-flight *work* and refused while draining — through
    :meth:`parse_work` to :meth:`serve`.  Control ops are always
    served, even while draining, so health checks and stats stay
    answerable.  A subclass overrides those two, and where it differs
    :meth:`trace`, :meth:`ping_fields` and :meth:`own_stats`.
    ``metrics`` is the server's one registry (a fresh one by default);
    connection events count there as ``wire.conn{event=...}``."""

    #: ops refused while draining and awaited before a drained exit
    WORK_OPS: tuple[str, ...] = ()

    def __init__(self, socket_path: str, *,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS,
                 metrics: MetricsRegistry | None = None):
        self.socket_path = str(socket_path)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.max_request_bytes = int(max_request_bytes)
        self.idle_timeout = float(idle_timeout)
        self.max_connections = int(max_connections)
        self._owner_pid = os.getpid()
        self._listener: socket.socket | None = None
        self._bound: os.stat_result | None = None   # our socket file
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        self._lock = threading.Lock()
        self._in_flight = 0
        self._draining = threading.Event()
        self._drain_thread: threading.Thread | None = None
        self._conns: dict[int, _Conn] = {}
        self._conn_seq = 0

    # -- lifecycle ---------------------------------------------------------

    def _startup(self) -> None:
        """Subclass hook run before the socket binds."""

    def _teardown(self) -> None:
        """Subclass hook run during shutdown, before the socket dies."""

    def start(self) -> None:
        """Bind and accept in a background thread."""
        path = Path(self.socket_path)
        if path.exists():
            path.unlink()
        self._startup()
        self._listener = socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._bound = os.stat(self.socket_path)
        # a backlog as deep as the connection cap: a burst of connects
        # must reach the cap's evict-or-refuse policy, not bounce off
        # a full kernel queue as EAGAIN
        self._listener.listen(self.max_connections)
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"{type(self).__name__}-accept")
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: start, then wait for shutdown."""
        if self._accept_thread is None:
            self.start()
        try:
            while not self._stop.wait(timeout=0.2):
                pass
        finally:
            self.shutdown()

    def request_shutdown(self) -> None:
        """Signal-handler-safe: ask ``serve_forever`` to exit and run
        the orderly ``shutdown``.  The listener shuts down here so new
        connections are refused immediately — already-open ones are
        still answered until the full ``shutdown`` runs."""
        self._stop.set()
        self._shut_listener()

    def _shut_listener(self) -> None:
        listener = self._listener
        if listener is None:
            return
        # forked workers inherit this object (and the daemon's signal
        # handlers); shutdown() on the inherited fd would kill the
        # *shared* listening socket out from under the parent
        if os.getpid() != self._owner_pid:
            return
        # a bare close() does NOT wake a thread blocked in accept();
        # shutdown() does, and makes new connects fail immediately
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def shutdown(self) -> None:
        self._stop.set()
        self._shut_listener()
        listener, self._listener = self._listener, None
        self._teardown()
        # wake every connection thread still blocked in recv() so the
        # process exits without waiting on peers to hang up
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for state in conns:
            state.close()
        if listener is not None and os.getpid() == self._owner_pid:
            # unlink only our own socket file, not one a successor bound
            # since the listener shut down (or before a failed bind):
            # the still-open listener keeps the file's inode, so its
            # (st_dev, st_ino) is ours alone
            try:
                if self._bound is not None and os.path.samestat(
                        os.stat(self.socket_path), self._bound):
                    os.unlink(self.socket_path)
            except OSError:
                pass
            listener.close()

    # -- drain -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def begin_drain(self, grace: float | None = None) -> dict:
        """Stop accepting work, finish the in-flight queue, then exit.

        Idempotent.  ``grace`` bounds the wait for in-flight work;
        past it the server exits anyway (the supervisor still reaps
        its workers on shutdown).  Returns the drain status dict the
        ``drain`` control op reports."""
        if not self._draining.is_set():
            self._draining.set()
            self._drain_thread = threading.Thread(
                target=self._drain_then_exit, args=(grace,),
                daemon=True, name=f"{type(self).__name__}-drain")
            self._drain_thread.start()
        return {"draining": True, "in_flight": self.in_flight}

    def _drain_then_exit(self, grace: float | None) -> None:
        deadline = None if grace is None \
            else time.monotonic() + grace
        while self.in_flight > 0:
            if deadline is not None and time.monotonic() > deadline:
                break
            time.sleep(0.02)
        self.request_shutdown()

    def _work_begin(self) -> None:
        with self._lock:
            self._in_flight += 1

    def _work_end(self) -> None:
        with self._lock:
            self._in_flight -= 1

    # -- accept / per-connection loop --------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return                # listener closed: shutting down
            state = self._register_conn(conn)
            if state is None:
                continue              # refused: cap full, or stopping
            threading.Thread(target=self._handle_connection,
                             args=(conn, state), daemon=True,
                             name=f"{type(self).__name__}-conn").start()

    def _register_conn(self, conn: socket.socket) -> _Conn | None:
        """Admit a connection under the count cap.

        Past the cap the *idlest* non-busy connection is evicted to
        make room (a slowloris peer loses its slot to a live one); if
        every held connection is mid-request, the newcomer is refused
        with a clean close instead.  So is one accepted just before
        :meth:`shutdown` closed the held connections: ``shutdown`` sets
        ``_stop`` before it takes the lock, so a connection registered
        here is either in its snapshot or refused."""
        state = _Conn(conn)
        victim = None
        with self._lock:
            self._conn_seq += 1
            state.cid = self._conn_seq
            if self._stop.is_set():
                self._count("refused")
                state.close()
                return None
            if len(self._conns) >= self.max_connections:
                candidates = [c for c in self._conns.values()
                              if not c.busy]
                if not candidates:
                    self._count("refused")
                    state.close()
                    return None
                victim = min(candidates,
                             key=lambda c: c.last_active)
                self._conns.pop(victim.cid, None)
                self._count("evicted_idle")
            self._count("opened")
            self._conns[state.cid] = state
        if victim is not None:
            victim.close()
        return state

    def _unregister_conn(self, state: _Conn) -> None:
        with self._lock:
            self._conns.pop(state.cid, None)

    def _count(self, event: str) -> None:
        self.metrics.counter("wire.conn", event=event).inc()

    def connection_stats(self) -> dict:
        """The ``connections`` stats block every server reports; an
        accepted connection was either opened or refused."""
        events = self.metrics.split("wire.conn", "event")
        out = {"accepted": events.get("opened", 0)
               + events.get("refused", 0)}
        for key in ("evicted_idle", "refused", "oversized",
                    "bad_version"):
            out[key] = events.get(key, 0)
        with self._lock:
            out["open"] = len(self._conns)
        out["max_connections"] = self.max_connections
        out["max_request_bytes"] = self.max_request_bytes
        out["idle_timeout_s"] = self.idle_timeout
        return out

    def _handle_connection(self, conn: socket.socket,
                           state: _Conn) -> None:
        try:
            reader = BoundedLineReader(conn, self.max_request_bytes,
                                       idle_timeout=self.idle_timeout)
            while True:
                try:
                    line, oversized = reader.readline()
                except TimeoutError:
                    # idle past the window — including a half-open
                    # peer that connected and never sent a byte —
                    # reclaim the thread and the connection slot
                    self._count("evicted_idle")
                    return
                except OSError:
                    return            # transport died (or evicted)
                if oversized:
                    self._count("oversized")
                    try:
                        conn.sendall(encode(
                            oversized_response(self.max_request_bytes)))
                    except OSError:
                        return
                    if line is None:
                        return        # EOF before the frame ended
                    continue          # resynced past the bad frame
                if line is None:
                    return            # clean EOF
                if not line.strip():
                    continue
                with self._lock:
                    state.last_active = time.monotonic()
                    state.busy = True
                try:
                    resp = self._handle_line(line)
                finally:
                    with self._lock:
                        state.busy = False
                        state.last_active = time.monotonic()
                try:
                    conn.sendall(encode(resp))
                except OSError:
                    return            # client went away
                if resp.get("op") == "shutdown" \
                        and resp.get("status") == "ok":
                    self._stop.set()
                    return
        finally:
            self._unregister_conn(state)
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _stamp(resp: dict) -> dict:
        resp.setdefault("v", PROTOCOL_VERSION)
        return resp

    def _handle_line(self, line: bytes) -> dict:
        """One request line -> exactly one structured response dict."""
        try:
            raw = decode(line)
        except ProtocolError as exc:
            return self._stamp(error_response(
                None, "(unknown)", str(exc),
                detail=exc.detail or None))
        # version negotiation happens at the transport layer: the `v`
        # field is stripped before the op schemas ever see it, and an
        # unsupported version is *answered*, never disconnected
        v = raw.pop("v", None)
        if v is not None and (isinstance(v, bool)
                              or v not in SUPPORTED_PROTOCOL_VERSIONS):
            self._count("bad_version")
            return self._stamp(protocol_error_response(
                raw.get("id"), raw.get("op"), v))
        return self._stamp(self._handle_versioned(raw))

    def _handle_versioned(self, raw: dict) -> dict:
        req_id = raw.get("id")
        op = raw.get("op")
        work = op in self.WORK_OPS
        if work:
            if self.draining:
                return busy_response(
                    req_id, op,
                    message="server draining; request not accepted",
                    reason="draining")
            self._work_begin()
        try:
            return self.handle_request(raw)
        except Exception as exc:      # the daemon must never die here
            return error_response(
                req_id, op or "(unknown)",
                f"internal error: {type(exc).__name__}: {exc}")
        finally:
            if work:
                self._work_end()

    def handle_request(self, raw: dict) -> dict:
        """One request: validate it, then answer a control op or an
        unknown op here, or serve a work op."""
        req_id = raw.get("id")
        op = raw.get("op")
        try:
            if op in CONTROL_OPS:
                return self._control(op, req_id, parse_control(raw))
            if op not in self.WORK_OPS:
                known = [*self.WORK_OPS, *CONTROL_OPS]
                raise ProtocolError(
                    f"unknown op {op!r}; expected one of "
                    f"{', '.join(known)}",
                    detail={"op": op, "known_ops": known})
            work = self.parse_work(raw)
        except ProtocolError as exc:
            return error_response(req_id, op or "(unknown)", str(exc),
                                  detail=exc.detail or None)
        return self.serve(work)

    def _control(self, op: str, req_id, trace_id: str | None) -> dict:
        if op == "trace":
            return self.trace(req_id, trace_id)
        resp = {"id": req_id, "op": op, "status": "ok"}
        if op == "ping":
            resp.update(pong=True, draining=self.draining,
                        **self.ping_fields())
        elif op == "drain":
            resp.update(self.begin_drain())
        elif op == "stats":
            resp["stats"] = self.stats()
        # shutdown: the connection loop stops the server on this reply
        return resp

    def parse_work(self, raw: dict):
        """The server's one validator for a work op: what :meth:`serve`
        takes, or a :class:`ProtocolError` the client is answered."""
        raise NotImplementedError

    def serve(self, work) -> dict:
        """Answer one validated work request."""
        raise NotImplementedError

    def trace(self, req_id, trace_id: str | None) -> dict:
        """The ``trace`` answer; a server that keeps no traces has none
        to give."""
        what = f"trace {trace_id!r}" if trace_id \
            else "no traces recorded yet"
        return error_response(req_id, "trace", f"unknown trace: {what}")

    def ping_fields(self) -> dict:
        """What this server's ``ping`` reply adds to ``pong`` and
        ``draining``."""
        return {}

    def own_stats(self) -> dict:
        """This server's own ``stats`` blocks; a ``server`` entry adds
        keys to the shared ``server`` block."""
        return {}

    def stats(self) -> dict:
        """The ``stats`` reply: the server's own blocks, the shared
        ``server`` keys, and the ``connections`` and ``metrics``
        blocks."""
        out = self.own_stats()
        out["server"] = {"in_flight": self.in_flight,
                         "draining": self.draining,
                         "uptime_s": self.uptime_s(),
                         "socket": self.socket_path,
                         **out.get("server", {})}
        out["connections"] = self.connection_stats()
        out["metrics"] = self.metrics.snapshot()
        return out

    def uptime_s(self) -> float:
        return round(time.monotonic() - self._started_at, 2)


def _box_put(box: "queuelib.Queue", resp: dict) -> None:
    """Deliver a reply to a one-slot reply box; a second delivery
    (teardown flush racing a dispatcher) is silently dropped — the
    waiter takes exactly one."""
    try:
        box.put_nowait(resp)
    except queuelib.Full:
        pass


class CompileServer(LineServer):
    """The ``repro serve`` front door for one supervisor.

    Compile requests flow admission -> fair queue -> dispatcher pool:
    the connection thread offers the request to the
    :class:`AdmissionController` and blocks on a one-slot reply box;
    ``pool_size`` dispatcher threads pull queued requests round-robin
    across tenants and run them through the supervisor.
    Every admitted, displaced, rejected, or expired request gets
    exactly one structured reply through its box or inline."""

    WORK_OPS = COMPILE_OPS

    def __init__(self, socket_path: str, supervisor: Supervisor,
                 queue_max: int = 8, tenant_rate: float = 0.0,
                 tenant_burst: float = 8.0,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 max_connections: int = DEFAULT_MAX_CONNECTIONS):
        super().__init__(socket_path,
                         max_request_bytes=max_request_bytes,
                         idle_timeout=idle_timeout,
                         max_connections=max_connections,
                         metrics=supervisor.metrics)
        self.supervisor = supervisor
        self.queue_max = queue_max
        #: bounds compile requests in the system: pool + bounded queue
        self.admission = AdmissionController(
            supervisor.config.pool_size + queue_max,
            tenant_rate=tenant_rate, tenant_burst=tenant_burst,
            metrics=self.metrics)
        #: requests currently held by a dispatcher (counts against the
        #: admission bound alongside the queue depth)
        self._dispatching = 0
        self._dispatchers: list[threading.Thread] = []
        self._dispatchers_stop = threading.Event()

    def _startup(self) -> None:
        self.supervisor.start()
        self._dispatchers_stop.clear()
        for i in range(max(1, self.supervisor.config.pool_size)):
            t = threading.Thread(target=self._dispatch_loop,
                                 daemon=True,
                                 name=f"compile-dispatch-{i}")
            t.start()
            self._dispatchers.append(t)

    def _teardown(self) -> None:
        self._dispatchers_stop.set()
        # anything still queued gets a structured answer before the
        # supervisor goes away — a blocked connection thread must
        # never be left waiting on a box no one will fill
        for item in self.admission.queue.drain():
            req, box = item.payload
            _box_put(box, error_response(
                req.id, req.op, "server shut down before the queued "
                                "request was dispatched"))
        self.supervisor.stop()
        for t in self._dispatchers:
            t.join(timeout=2.0)
        self._dispatchers.clear()

    # -- dispatcher pool ---------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._dispatchers_stop.is_set():
            item = self.admission.take(timeout=0.05)
            if item is None:
                continue
            with self._lock:
                self._dispatching += 1
            try:
                self._serve_item(item)
            finally:
                with self._lock:
                    self._dispatching -= 1

    def _serve_item(self, item: QueueItem) -> None:
        req, box = item.payload
        now = time.monotonic()
        if item.expired(now):
            # expired while queued: evict, never dispatch
            self.admission.evict_expired(item)
            _box_put(box, deadline_response(
                req.id, req.op,
                message="deadline budget expired while the request "
                        "was queued",
                reason="expired_in_queue"))
            return
        queue_wait_s = max(0.0, now - item.enqueued_at)
        self.metrics.histogram(
            "admission.queue_wait_ms").observe(queue_wait_s * 1e3)
        try:
            resp = self.supervisor.submit(req,
                                          expires_at=item.expires_at,
                                          queue_wait_s=queue_wait_s)
        except Exception as exc:   # the dispatcher must never die
            resp = error_response(
                req.id, req.op,
                f"internal error: {type(exc).__name__}: {exc}")
        self.admission.note_completed(
            item, service_s=time.monotonic() - now)
        _box_put(box, resp)

    parse_work = staticmethod(parse_compile)

    def trace(self, req_id, trace_id: str | None) -> dict:
        stored = self.supervisor.get_trace(trace_id)
        if stored is None:
            return super().trace(req_id, trace_id)
        trace_id, spans = stored
        return {"id": req_id, "op": "trace", "status": "ok",
                "trace_id": trace_id, "spans": spans}

    def serve(self, req: CompileRequest) -> dict:
        """Admission -> fair queue -> block on the reply box."""
        now = time.monotonic()
        budget_s = None if req.deadline_ms is None \
            else req.deadline_ms / 1e3
        box: queuelib.Queue = queuelib.Queue(maxsize=1)
        item = QueueItem(
            tenant=req.tenant or ANON_TENANT, priority=req.priority,
            op=req.op, enqueued_at=now,
            expires_at=None if budget_s is None else now + budget_s,
            payload=(req, box))
        with self._lock:
            extra = self._dispatching
        decision = self.admission.offer(
            item, budget_s=budget_s, extra_occupancy=extra)
        if decision.verdict == REJECT_QUOTA:
            return rejected_response(
                req.id, req.op, decision.retry_after or 0.5,
                message=decision.detail, reason="quota")
        if decision.verdict == REJECT_HOPELESS:
            # the remaining budget cannot cover the observed p50
            # service time: answering now is the only honest outcome
            return deadline_response(req.id, req.op,
                                     message=decision.detail,
                                     reason="hopeless")
        if decision.verdict != ADMIT:      # bounded queue full
            return busy_response(req.id, req.op,
                                 retry_after=decision.retry_after
                                 or 0.5)
        if decision.displaced is not None:
            # push-out: the flooder's newest low-priority request
            # makes room for an under-share tenant — it still gets
            # its one structured (busy) reply, right now
            vreq, vbox = decision.displaced.payload
            _box_put(vbox, busy_response(
                vreq.id, vreq.op,
                retry_after=self.admission.queue_retry_after(),
                message="request displaced from the queue by a "
                        "tenant under its fair share",
                reason="displaced"))
        return box.get()

    # -- stats -------------------------------------------------------------

    def own_stats(self) -> dict:
        m = self.metrics
        queue = self.admission.queue
        return {
            "server": {
                # every dispatched request completes; shed counts the
                # full-queue and displaced busy replies, deadline
                # refusals the hopeless arrivals and queue expiries
                "served": m.total("admission.completed"),
                "shed": m.total("admission.shed"),
                "deadline_refused": m.total("admission.rejected",
                                            reason="hopeless")
                + m.total("admission.deadline_evicted"),
                "queue_max": self.queue_max,
                "queue_depth": queue.depth(),
                "oldest_age_s": queue.oldest_age_s(),
                "dispatching": self._dispatching,
                "effective_cores": effective_cores(),
            },
            "fairness": self.admission.fairness(),
            **self.supervisor.stats(),
        }


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------

#: ops safe to resend after a reconnect: compile ops are pure
#: functions of the request, cache ops are content-addressed, and
#: ping/stats/trace/drain are reads or idempotent state transitions.
#: ``shutdown`` is deliberately excluded — resending it could kill a
#: *restarted* daemon the first send never reached.
IDEMPOTENT_OPS = frozenset(COMPILE_OPS) | {
    "ping", "stats", "trace", "drain",
    "cache.get", "cache.put", "cache.drop",
}


class ServiceClient:
    """Line-oriented client for one connection to a daemon.

    A daemon restarting underneath the client is invisible for
    idempotent ops: on connection loss (including a send or read that
    dies mid-request) the client reconnects with jittered exponential
    backoff, up to ``reconnects`` times, and resends the request.
    Non-idempotent ops fail fast instead — a resend could act twice.

    ``socket_path`` may be a **multi-endpoint list** —
    ``"unix:A,unix:B"`` (or a plain comma-separated pair of paths) —
    for an active/standby router tier.  Every (re)connect walks the
    list in order and takes the first endpoint that accepts, so a dead
    active router costs one failed ``connect()`` (microseconds on a
    local socket) and a recovered one is rediscovered on the next
    reconnect.  :attr:`endpoint` names the endpoint currently in use.

    Replies are read through the same :class:`BoundedLineReader` the
    servers use: a reply line beyond ``max_reply_bytes`` surfaces as a
    structured :class:`OversizedReplyError` (an ``ApiError``), never a
    ``MemoryError``.  Outgoing frames are stamped with the protocol
    version (``"v"``) unless the caller set one explicitly.

    When the server provides a ``retry_after`` hint (busy shed, quota
    rejection), the client *honors it*: the hint replaces the jittered
    default for the next reconnect backoff, and with ``retry_busy > 0``
    a busy/rejected reply to an idempotent op is automatically resent
    after sleeping the hinted interval (capped by
    ``retry_after_cap``), up to ``retry_busy`` times.
    """

    def __init__(self, socket_path: str, timeout: float | None = None,
                 reconnects: int = 3, backoff_base: float = 0.05,
                 backoff_cap: float = 1.0,
                 jitter_seed: int | None = None,
                 retry_busy: int = 0,
                 retry_after_cap: float = 5.0,
                 max_reply_bytes: int = DEFAULT_MAX_REPLY_BYTES):
        self.socket_path = str(socket_path)
        self.endpoints = parse_endpoints(socket_path)
        self.endpoint: str | None = None
        self.timeout = timeout
        self.reconnects = reconnects
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retry_busy = retry_busy
        self.retry_after_cap = retry_after_cap
        self.max_reply_bytes = int(max_reply_bytes)
        self._rng = random.Random(jitter_seed)
        self._sock: socket.socket | None = None
        self._reader: BoundedLineReader | None = None
        #: the most recent server-provided retry_after hint, consumed
        #: by the next backoff instead of the jittered default
        self._retry_hint: float | None = None

    def connect(self) -> "ServiceClient":
        last_exc: OSError | None = None
        for endpoint in self.endpoints:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if self.timeout is not None:
                sock.settimeout(self.timeout)
            try:
                sock.connect(endpoint)
            except OSError as exc:
                last_exc = exc
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            self._sock = sock
            self._reader = BoundedLineReader(sock,
                                             self.max_reply_bytes)
            self.endpoint = endpoint
            return self
        raise last_exc if last_exc is not None else ConnectionError(
            f"no reachable endpoint in {self.socket_path!r}")

    def close(self) -> None:
        self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _backoff(self, attempt: int) -> float:
        hint = self._retry_hint
        if hint is not None:
            # a server told us when to come back — believe it
            self._retry_hint = None
            return min(max(hint, 0.0), self.retry_after_cap)
        raw = min(self.backoff_cap,
                  self.backoff_base * (2 ** attempt))
        return raw * (0.5 + self._rng.random() * 0.5)

    def request(self, payload: dict) -> dict:
        """Send one request object; block for its response.

        Reconnects and resends (bounded, jittered backoff) when the
        connection dies under an idempotent op; with ``retry_busy``
        set, also resends after a busy/rejected reply, sleeping the
        server's ``retry_after`` hint."""
        retries = self.reconnects \
            if payload.get("op") in IDEMPOTENT_OPS else 0
        busy_retries = self.retry_busy \
            if payload.get("op") in IDEMPOTENT_OPS else 0
        busy_used = 0
        attempt = 0
        while True:
            try:
                resp = self._request_once(payload)
            except (OSError, ConnectionError):
                self.close()          # stale socket: force a reconnect
                if attempt >= retries:
                    raise
                time.sleep(self._backoff(attempt))
                attempt += 1
                continue
            hint = resp.get("retry_after")
            if hint is not None:
                self._retry_hint = float(hint)
            if resp.get("status") in ("busy", "rejected") \
                    and hint is not None and busy_used < busy_retries:
                busy_used += 1
                time.sleep(self._backoff(attempt))
                continue
            return resp

    def _request_once(self, payload: dict) -> dict:
        if self._sock is None:
            self.connect()
        if "v" not in payload:
            payload = {**payload, "v": PROTOCOL_VERSION}
        self._sock.sendall(encode(payload))
        line, oversized = self._reader.readline()
        if oversized:
            # the stream can no longer be trusted to frame correctly
            # from our side mid-line, so drop the connection — but
            # answer structurally, never with a MemoryError
            self.close()
            raise OversizedReplyError(
                f"server reply exceeds the {self.max_reply_bytes}-byte "
                f"reply limit",
                detail={"reason": "oversized_reply",
                        "max_reply_bytes": self.max_reply_bytes,
                        "endpoint": self.endpoint})
        if not line:
            raise ConnectionError(
                "connection closed before a response arrived")
        return decode(line)


def single_request(socket_path: str, payload: dict,
                   timeout: float | None = None,
                   reconnects: int = 3) -> dict:
    """One-shot convenience: connect, send, receive, close."""
    with ServiceClient(socket_path, timeout=timeout,
                       reconnects=reconnects) as client:
        return client.request(payload)


def ping(socket_path: str, timeout: float) -> dict | None:
    """One liveness probe: the server's ``ping`` reply, or None when
    nothing answers it with a pong within ``timeout`` seconds."""
    try:
        resp = single_request(socket_path, {"op": "ping"},
                              timeout=timeout, reconnects=0)
    except (OSError, ConnectionError, ProtocolError):
        return None
    return resp if resp.get("pong") else None


def wait_ready(socket_path: str, timeout: float = 10.0,
               interval: float = 0.05) -> bool:
    """Ping the server until it answers (or ``timeout`` passes)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if ping(socket_path, timeout=interval * 10) is not None:
            return True
        time.sleep(interval)
    return False
