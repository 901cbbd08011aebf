"""Front-tier router: sharding, health checks, failover, hedging.

The resilient compile farm is a :class:`RouterServer` in front of N
supervised ``repro serve`` daemons (*shards*) that all share one cache
service.  The router is the only socket clients need to know; behind
it the farm can lose, hang, drain, and hot-restart daemons without a
single failed request.

**Sharding** is weighted rendezvous (highest-random-weight) hashing on
the *workload fingerprint* — the content hash of the request's sources.
The same translation units always prefer the same shard, so each
shard's workers stay warm on their slice of the workload, while a
shard's disappearance only redistributes its own slice.  Weights come
from the cluster config: a shard with weight 2 attracts twice the
keyspace of a shard with weight 1.

**Health**: a background loop pings every shard.  ``fail_threshold``
consecutive failures eject a shard; ejected shards are re-probed on an
exponential backoff schedule and readmitted on the first successful
ping.  A shard whose ping answers ``draining: true`` is *suspended* —
no new work, but it is not a failure; when its replacement process
comes up the next ping readmits it.  Dispatch failures feed the same
consecutive-failure counter, so a dead shard is ejected by traffic
faster than the probe period.

**Failover**: a connection error, a shed (``busy``) response, or a
status-``error`` response from a shard sends the request to the next
shard in rendezvous order.  Compile requests are idempotent, so
resending is always safe.

**Hedging**: a request stuck past the observed latency percentile
(:data:`HEDGE_PERCENTILE`, with a floor so cold starts don't stampede)
gets a duplicate dispatched to the next-ranked shard; the first
non-failure answer wins and the loser is abandoned.  This bounds tail
latency when a shard is slow-but-not-dead (the classic gray failure).

Every routed response gains a ``route`` block::

    {"shard": "s0", "attempts": 2, "failovers": 1, "hedged": false}

The router counts every routing event once, as a ``router.*`` series
in its :class:`~repro.obs.MetricsRegistry`; the ``router`` stats block
is read out of that registry, and the ``metrics`` block lists it.

Tenancy is the shards' concern, not the router's: quotas, fair
queueing and priority lanes live in each daemon's admission layer
(:mod:`repro.service.admission`), and a shard's ``rejected`` or
``deadline_exceeded`` verdict reaches the client unchanged.  The
router keeps no per-tenant state.  Retries stay bounded without a
budget: failover tries each shard at most once per request and
hedging sends at most :data:`HEDGE_MAX` duplicates.
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..api import CompileRequest
from ..core.summarycache import fingerprint
from ..obs import MetricsRegistry
from .requests import (
    COMPILE_OPS, ProtocolError, STATUS_DEGRADED, STATUS_OK,
    deadline_response, error_response, parse_compile,
)
from .server import (
    ClientPool, LineServer, ReplyPending, ServiceClient, ping,
    single_request, wait_ready,
)

#: dispatch outcomes that trigger failover to the next-ranked shard.
#: ``rejected`` and ``deadline_exceeded`` are deliberately absent:
#: they are *terminal* admission verdicts — re-dispatching a
#: quota-rejected or budget-expired request to another shard would
#: turn overload control into an overload amplifier.
_FAILOVER_STATUSES = ("busy", "error")

#: seconds between two health probes of every shard
PROBE_INTERVAL = 0.5
#: an ejected shard's first re-probe delay, doubled per ejection up
#: to the cap (seconds)
PROBE_BACKOFF = 1.0
PROBE_BACKOFF_CAP = 10.0
#: seconds a health ping (or a forwarded ``trace`` fetch) may take
PROBE_TIMEOUT = 2.0
#: a request running past this latency percentile gets hedged ...
HEDGE_PERCENTILE = 0.95
#: ... at most this many times
HEDGE_MAX = 1

#: the ``router`` stats block, each count read from the ``router.*``
#: series (and label filters) that count it
_ROUTER_COUNTS = (
    ("requests", "router.requests", {}),
    ("completed", "router.completed", {}),
    ("failovers", "router.failovers", {}),
    ("hedges", "router.hedges", {}),
    ("hedge_wins", "router.completed", {"hedge": "won"}),
    ("no_healthy_shard", "router.no_healthy_shard", {}),
    ("exhausted", "router.exhausted", {}),
    ("ejections", "router.ejections", {}),
    ("readmissions", "router.readmissions", {}),
    ("deadline_refused", "router.completed",
     {"status": "deadline_exceeded"}),
)


# ---------------------------------------------------------------------------
# Cluster config
# ---------------------------------------------------------------------------

@dataclass
class ShardSpec:
    """One compile daemon in the cluster config."""

    name: str
    socket: str
    weight: float = 1.0

    def to_dict(self) -> dict:
        return {"name": self.name, "socket": self.socket,
                "weight": self.weight}

    @classmethod
    def from_dict(cls, d: dict) -> "ShardSpec":
        if not isinstance(d, dict) or not d.get("name") \
                or not d.get("socket"):
            raise ValueError(
                "each shard needs at least 'name' and 'socket'")
        weight = d.get("weight", 1.0)
        # a NaN or infinite weight would void the rendezvous order
        if isinstance(weight, bool) \
                or not isinstance(weight, (int, float)) \
                or not math.isfinite(weight) or weight <= 0:
            raise ValueError(
                f"shard {d['name']!r}: weight must be a finite "
                f"positive number, not {weight!r}")
        return cls(name=str(d["name"]), socket=str(d["socket"]),
                   weight=float(weight))


@dataclass
class ClusterConfig:
    """The farm's topology: shard sockets + the shared cache socket."""

    shards: list[ShardSpec] = field(default_factory=list)
    #: socket path of the shared cache service (None = per-daemon
    #: local caches; the farm loses cross-daemon warmth but still runs)
    cache_socket: str | None = None

    def to_dict(self) -> dict:
        return {"shards": [s.to_dict() for s in self.shards],
                "cache_socket": self.cache_socket}

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterConfig":
        if not isinstance(d, dict):
            raise ValueError("cluster config must be a JSON object")
        shards = [ShardSpec.from_dict(s) for s in d.get("shards", [])]
        if not shards:
            raise ValueError("cluster config names no shards")
        names = [s.name for s in shards]
        if len(set(names)) != len(names):
            raise ValueError("duplicate shard names in cluster config")
        return cls(shards=shards, cache_socket=d.get("cache_socket"))

    @classmethod
    def from_file(cls, path: str | Path) -> "ClusterConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"cannot read cluster config {path}: {exc}") from exc
        return cls.from_dict(data)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Shard state
# ---------------------------------------------------------------------------

class ShardState:
    """The router's live view of one shard."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.lock = threading.Lock()
        self.healthy = True           # until proven otherwise
        self.draining = False
        self.consecutive_failures = 0
        self.ejected_until = 0.0      # monotonic re-probe time
        self.ejections = 0
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.latencies: list[float] = []      # recent wall times, s

    @property
    def name(self) -> str:
        return self.spec.name

    def available(self) -> bool:
        with self.lock:
            return self.healthy and not self.draining

    def note_success(self, elapsed: float) -> None:
        with self.lock:
            self.consecutive_failures = 0
            self.healthy = True
            self.completed += 1
            self.latencies.append(elapsed)
            if len(self.latencies) > 64:
                del self.latencies[:-64]

    def note_failure(self, threshold: int, now: float,
                     backoff: float) -> bool:
        """Count one failure; returns True if this ejected the shard."""
        with self.lock:
            self.consecutive_failures += 1
            self.failed += 1
            if self.healthy \
                    and self.consecutive_failures >= threshold:
                self.healthy = False
                self.ejections += 1
                self.ejected_until = now + backoff
                return True
            if not self.healthy:
                self.ejected_until = now + backoff
            return False

    def readmit(self) -> None:
        with self.lock:
            self.healthy = True
            self.draining = False
            self.consecutive_failures = 0

    def snapshot(self) -> dict:
        with self.lock:
            lat = sorted(self.latencies)
            return {
                "socket": self.spec.socket,
                "weight": self.spec.weight,
                "healthy": self.healthy,
                "draining": self.draining,
                "consecutive_failures": self.consecutive_failures,
                "ejections": self.ejections,
                "dispatched": self.dispatched,
                "completed": self.completed,
                "failed": self.failed,
                "latency_p50_ms": round(_pct(lat, 0.50) * 1e3, 1)
                if lat else None,
                "latency_p95_ms": round(_pct(lat, 0.95) * 1e3, 1)
                if lat else None,
            }


def _pct(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, int(math.ceil(q * len(sorted_values))) - 1))
    return sorted_values[idx]


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------

class Router:
    """Shard ranking, health tracking, and resilient dispatch."""

    def __init__(self, cluster: ClusterConfig, *,
                 fail_threshold: int = 3,
                 shard_timeout: float = 120.0,
                 hedge_floor: float = 2.0):
        self.cluster = cluster
        self.shards = [ShardState(s) for s in cluster.shards]
        self.fail_threshold = fail_threshold
        self.shard_timeout = shard_timeout
        self.hedge_floor = hedge_floor
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        #: in-flight dispatches: seq -> arrival (monotonic)
        self._active: dict[int, float] = {}
        self._active_seq = 0
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        #: idle connections to each shard, kept across dispatches
        self._pool = ClientPool()

    def close(self) -> None:
        """Close the idle shard connections the router keeps."""
        self._pool.close()

    def _count(self, name: str, **labels: str) -> None:
        self.metrics.counter(name, **labels).inc()

    # -- health loop --------------------------------------------------------

    def start_health_loop(self) -> None:
        if self._health_thread is None:
            self._health_thread = threading.Thread(
                target=self._health_loop, daemon=True,
                name="router-health")
            self._health_thread.start()

    def stop_health_loop(self) -> None:
        self._stop.set()

    def _health_loop(self) -> None:
        while not self._stop.wait(timeout=PROBE_INTERVAL):
            for shard in self.shards:
                self.probe(shard)

    def probe(self, shard: ShardState) -> bool:
        """Ping one shard and update its state.  Ejected shards are
        only probed past their re-probe time."""
        now = time.monotonic()
        with shard.lock:
            if not shard.healthy and now < shard.ejected_until:
                return False
        resp = ping(shard.spec.socket, PROBE_TIMEOUT)
        if resp is None:
            self._note_shard_failure(shard)
            return False
        if resp.get("draining"):
            with shard.lock:
                # answering pings but refusing work: suspend without
                # counting a failure
                shard.draining = True
                shard.consecutive_failures = 0
            return False
        was_down = not shard.available()
        shard.readmit()
        if was_down:
            self._count("router.readmissions")
        return True

    def _note_shard_failure(self, shard: ShardState) -> None:
        backoff = min(PROBE_BACKOFF_CAP,
                      PROBE_BACKOFF * (2 ** min(6, shard.ejections)))
        if shard.note_failure(self.fail_threshold, time.monotonic(),
                              backoff):
            self._count("router.ejections")

    # -- sharding -----------------------------------------------------------

    @staticmethod
    def workload_fingerprint(raw: dict) -> str:
        """The sharding key: a content hash of the request's sources
        (same units -> same shard -> warm summary state)."""
        sources = raw.get("sources")
        if isinstance(sources, list) and sources:
            return fingerprint("route", *[tuple(s) for s in sources
                                          if isinstance(s, (list,
                                                            tuple))])
        return fingerprint("route", raw.get("op"), raw.get("id"))

    def rank(self, workload_fp: str,
             include_unavailable: bool = False) -> list[ShardState]:
        """Shards in weighted-rendezvous order for this workload.

        Every shard hashes (shard name x workload) to a uniform draw
        ``u``; its score is ``-weight / ln(u)`` — the classic weighted
        highest-random-weight construction, so the win probability is
        proportional to weight and removing a shard only reassigns the
        workloads that shard was winning."""
        scored = []
        for shard in self.shards:
            if not include_unavailable and not shard.available():
                continue
            digest = fingerprint(shard.spec.name, workload_fp)
            u = (int(digest[:13], 16) + 1) / float(16 ** 13 + 2)
            score = -shard.spec.weight / math.log(u)
            scored.append((score, shard))
        scored.sort(key=lambda pair: pair[0], reverse=True)
        return [shard for _, shard in scored]

    def hedge_after(self) -> float:
        """Seconds a request may run before a hedge fires: the
        :data:`HEDGE_PERCENTILE` of recent latencies across all shards,
        floored so an empty/cold farm doesn't hedge everything."""
        lat: list[float] = []
        for shard in self.shards:
            with shard.lock:
                lat.extend(shard.latencies)
        if len(lat) < 8:
            return self.hedge_floor
        return max(self.hedge_floor, _pct(sorted(lat),
                                          HEDGE_PERCENTILE))

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, raw: dict, deadline_ms: float | None = None
                 ) -> dict:
        """Route one compile request; failover and hedge as needed.

        ``raw`` is the request each shard gets, as the client sent it;
        ``deadline_ms`` is its validated budget
        (:meth:`RouterServer.parse_work`), deducted for elapsed router
        time at every (re)dispatch.

        Returns the winning shard's response with a ``route`` block
        attached, or a structured error if every shard is gone."""
        arrival = time.monotonic()
        self._count("router.requests")
        with self._lock:
            self._active_seq += 1
            seq = self._active_seq
            self._active[seq] = arrival
        try:
            resp = self._dispatch_routed(raw, arrival, deadline_ms)
        finally:
            with self._lock:
                self._active.pop(seq, None)
        return resp

    def _dispatch_routed(self, raw: dict, arrival: float,
                         deadline_ms: float | None) -> dict:
        fp = self.workload_fingerprint(raw)
        ranked = self.rank(fp)
        if not ranked:
            # last resort: try everything we know, even ejected
            # shards — a stale ejection beats refusing the request
            ranked = self.rank(fp, include_unavailable=True)
        if not ranked:
            self._count("router.no_healthy_shard")
            return error_response(
                raw.get("id"), raw.get("op") or "(unknown)",
                "no shard available to serve this request",
                detail={"shards": [s.name for s in self.shards]})

        results: queue.Queue = queue.Queue()
        tried: set[str] = set()
        launched = 0
        failovers = 0
        hedges = 0
        pending = 0
        last_failure: dict | None = None

        def launch(shard: ShardState) -> None:
            nonlocal launched, pending
            tried.add(shard.name)
            with shard.lock:
                shard.dispatched += 1
            launched += 1
            pending += 1

        def fire(shard: ShardState) -> None:
            launch(shard)
            threading.Thread(
                target=self._attempt,
                args=(shard, raw, results, arrival, deadline_ms),
                daemon=True,
                name=f"route-{shard.name}").start()

        def next_target() -> ShardState | None:
            """Best not-yet-tried shard *right now*.  Re-ranking on
            every hedge/failover decision (instead of freezing the
            candidate list at arrival) means a shard readmitted while
            this request is in flight — e.g. one that just finished
            restarting after an ejection — becomes a target, rather
            than the request riding out its full timeout on the one
            sick shard that was available at arrival time."""
            for shard in self.rank(fp):
                if shard.name not in tried:
                    return shard
            return None

        primary = ranked[0]
        launch(primary)
        hedge_after = self.hedge_after()
        deadline = time.monotonic() + self.shard_timeout
        # the primary runs on this thread until its reply or the hedge
        # window; past the window a thread finishes it and the hedge
        # decision comes at once
        hedge_now = not self._attempt(
            primary, raw, results, arrival, deadline_ms,
            window=min(hedge_after, self.shard_timeout))

        while pending:
            budget = deadline - time.monotonic()
            if budget <= 0:
                break
            wait = budget
            hedge_wanted = hedges < HEDGE_MAX
            if hedge_wanted:
                # keep waking at hedge cadence even when no target is
                # available yet: a readmission can create one
                wait = 0.0 if hedge_now else min(wait, hedge_after)
            hedge_now = False
            try:
                shard, resp, elapsed = results.get(timeout=wait)
            except queue.Empty:
                if hedge_wanted:
                    # stuck past the latency percentile: hedge
                    target = next_target()
                    if target is None:
                        continue
                    hedges += 1
                    self._count("router.hedges")
                    fire(target)
                    continue
                break
            pending -= 1
            status = resp.get("status") if resp is not None else None
            if resp is not None \
                    and status not in _FAILOVER_STATUSES:
                # a terminal admission verdict from the shard
                # (rejected / deadline_exceeded) is not a shard
                # failure, nor a routing success for latency stats
                if status in (STATUS_OK, STATUS_DEGRADED):
                    shard.note_success(elapsed)
                hedge = "none" if not hedges else \
                    "lost" if shard is primary else "won"
                self._count("router.completed", status=str(status),
                            hedge=hedge)
                resp["route"] = {
                    "shard": shard.name, "attempts": launched,
                    "failovers": failovers, "hedged": hedges > 0,
                }
                return resp
            # failure: connection loss (resp None) or busy/error
            if resp is None:
                self._note_shard_failure(shard)
            elif resp.get("status") == "busy" \
                    and (resp.get("error") or {}).get("reason") \
                    == "draining":
                with shard.lock:
                    shard.draining = True
            last_failure = resp
            target = next_target()
            if target is not None:
                failovers += 1
                self._count("router.failovers")
                fire(target)

        self._count("router.exhausted")
        if last_failure is not None:
            last_failure.setdefault("route", {
                "shard": None, "attempts": launched,
                "failovers": failovers, "hedged": hedges > 0})
            return last_failure
        return error_response(
            raw.get("id"), raw.get("op") or "(unknown)",
            f"request failed on all {launched} shard(s) tried",
            detail={"attempts": launched, "failovers": failovers})

    def _attempt(self, shard: ShardState, raw: dict,
                 results: queue.Queue, arrival: float | None = None,
                 deadline_ms: float | None = None,
                 window: float | None = None) -> bool:
        """One shard attempt on a pooled connection; always reports
        back to the queue.

        Deadline propagation happens here, at actual dispatch time:
        the budget forwarded to the shard is the original
        ``deadline_ms`` minus everything the request has already spent
        inside the router (queueing for a failover slot, waiting out a
        hedge timer).  A budget that ran out before the wire send is
        answered ``deadline_exceeded`` without touching the shard.

        With ``window``, a reply that has not arrived within it is
        left in flight: a ``route-*`` thread reads it on the same
        connection (no resend) and reports it, and this returns False.
        Otherwise the attempt is reported before this returns True."""
        t0 = time.monotonic()
        fwd = raw
        if deadline_ms is not None and arrival is not None:
            remaining = deadline_ms - (t0 - arrival) * 1e3
            if remaining <= 0:
                results.put((shard, deadline_response(
                    raw.get("id"), raw.get("op") or "(unknown)",
                    message="deadline budget exhausted inside the "
                            "router before dispatch",
                    reason="expired_in_router"), 0.0))
                return True
            fwd = dict(raw)
            fwd["deadline_ms"] = remaining
        client = self._pool.take(shard.spec.socket, self.shard_timeout, 1)
        try:
            resp = client.request(fwd, window=window)
        except ReplyPending:
            threading.Thread(
                target=self._finish,
                args=(shard, client, fwd, results, t0), daemon=True,
                name=f"route-{shard.name}").start()
            return False
        except (OSError, ConnectionError, ProtocolError):
            client.close()
            resp = None
        else:
            self._pool.give(client)
        results.put((shard, resp, time.monotonic() - t0))
        return True

    def _finish(self, shard: ShardState, client: ServiceClient, fwd: dict,
                results: queue.Queue, t0: float) -> None:
        """Read the reply of an attempt that outlived its window,
        within what is left of the shard timeout."""
        left = max(self.shard_timeout - (time.monotonic() - t0), 1e-3)
        try:
            resp = client.resume(fwd, timeout=left)
        except (OSError, ConnectionError, ProtocolError):
            client.close()
            resp = None
        else:
            self._pool.give(client)
        results.put((shard, resp, time.monotonic() - t0))

    # -- stats --------------------------------------------------------------

    def _read(self, counts: tuple) -> dict[str, int]:
        out: dict[str, int] = {}
        for key, name, match in counts:
            out[key] = out.get(key, 0) + self.metrics.total(name, **match)
        return out

    def queue_stats(self) -> dict:
        """The router has no queue of its own: its ``queue_depth`` and
        ``oldest_age_s`` describe the dispatches waiting on shards
        right now."""
        now = time.monotonic()
        with self._lock:
            arrivals = list(self._active.values())
        return {"queue_depth": len(arrivals),
                "oldest_age_s": round(now - min(arrivals), 3)
                if arrivals else None}

    def stats(self) -> dict:
        out = {
            "router": self._read(_ROUTER_COUNTS),
            "shards": {s.name: s.snapshot() for s in self.shards},
        }
        if self.cluster.cache_socket:
            try:
                resp = single_request(
                    self.cluster.cache_socket, {"op": "stats"},
                    timeout=2.0, reconnects=0)
                if resp.get("status") == "ok":
                    out["cache"] = resp.get("stats")
            except (OSError, ConnectionError, ProtocolError):
                out["cache"] = None   # cache service unreachable
        return out


@dataclass
class RouterPeer:
    """A sibling router in an HA pair/group, as one router sees it.

    Peers start presumed healthy: a standby must *observe* the active
    failing (``fail_threshold`` consecutive probe misses) before it
    promotes itself, so a slow-starting active is not usurped."""

    socket: str
    rank: int
    healthy: bool = True
    consecutive_failures: int = 0


class RouterServer(LineServer):
    """The farm's socket front door: same wire protocol, N shards.

    **High availability**: give each router in a group the full
    ordered socket list and its own ``rank``; every router probes its
    peers, and a router is *active* exactly when no healthy peer has a
    lower rank.  The lowest rank is therefore the active by default
    and the rest are warm standbys (their shard health loops run the
    whole time).  There is no consensus — shard state is soft, and a
    standby's own health loop keeps its view current — so a takeover
    is just: notice the active stopped answering pings and flip
    ``active``.  Standbys still *serve* requests sent to them (compile
    ops are idempotent and clients prefer endpoints in list order), so
    the ``active`` flag is observability and takeover accounting, not
    a request gate — which is what makes a SIGKILLed active cost
    clients at most one reconnect."""

    WORK_OPS = COMPILE_OPS

    def __init__(self, socket_path: str, router: Router, *,
                 peers: list[RouterPeer] | None = None, rank: int = 0,
                 peer_probe_interval: float = 0.25,
                 peer_fail_threshold: int = 3,
                 peer_timeout: float = 1.0, **wire):
        super().__init__(socket_path, metrics=router.metrics, **wire)
        self.router = router
        self.rank = rank
        self.peers = list(peers or [])
        self.peer_probe_interval = peer_probe_interval
        self.peer_fail_threshold = peer_fail_threshold
        self.peer_timeout = peer_timeout
        self.takeovers = 0
        self._active = not any(p.rank < rank for p in self.peers)
        self._peer_stop = threading.Event()
        self._peer_thread: threading.Thread | None = None

    @property
    def active(self) -> bool:
        return self._active

    def _startup(self) -> None:
        self.router.start_health_loop()
        if self.peers:
            self._peer_stop.clear()
            self._peer_thread = threading.Thread(
                target=self._peer_loop, daemon=True,
                name="router-peers")
            self._peer_thread.start()

    def _teardown(self) -> None:
        self._peer_stop.set()
        self.router.stop_health_loop()
        self.router.close()

    # -- HA: peer probing and active selection ------------------------------

    def _peer_loop(self) -> None:
        while not self._peer_stop.wait(
                timeout=self.peer_probe_interval):
            self._probe_peers_once()

    def _probe_peers_once(self) -> None:
        for peer in self.peers:
            if ping(peer.socket, self.peer_timeout) is not None:
                peer.consecutive_failures = 0
                peer.healthy = True
            else:
                peer.consecutive_failures += 1
                if peer.consecutive_failures \
                        >= self.peer_fail_threshold:
                    peer.healthy = False
        self._update_active()

    def _update_active(self) -> None:
        active = not any(p.healthy and p.rank < self.rank
                         for p in self.peers)
        if active and not self._active:
            self.takeovers += 1       # we are now the preferred router
        self._active = active

    def parse_work(self, raw: dict) -> tuple[dict, CompileRequest]:
        # the daemon's own validator: a malformed request is refused
        # here once, not failed over to every shard; the shards get
        # the request as the client sent it
        return raw, parse_compile(raw)

    def serve(self, work: tuple[dict, CompileRequest]) -> dict:
        raw, req = work
        return self.router.dispatch(raw, req.deadline_ms)

    def trace(self, req_id, trace_id: str | None) -> dict:
        """A trace lives on whichever shard served the request; ask
        them all and return the first hit."""
        for shard in self.router.shards:
            try:
                resp = single_request(
                    shard.spec.socket,
                    {"op": "trace", "id": req_id, "trace_id": trace_id},
                    timeout=PROBE_TIMEOUT, reconnects=0)
            except (OSError, ConnectionError, ProtocolError):
                continue
            if resp.get("status") == "ok":
                resp["route"] = {"shard": shard.name}
                return resp
        return error_response(req_id, "trace",
                              "no shard holds the requested trace")

    def ping_fields(self) -> dict:
        return {"role": "router", "rank": self.rank,
                "active": self._active,
                "shards": sum(1 for s in self.router.shards
                              if s.available())}

    def own_stats(self) -> dict:
        out = self.router.stats()
        out["server"] = {"role": "router", **self.router.queue_stats()}
        out["ha"] = {
            "rank": self.rank,
            "active": self._active,
            "takeovers": self.takeovers,
            "peers": [{"socket": p.socket, "rank": p.rank,
                       "healthy": p.healthy,
                       "consecutive_failures":
                           p.consecutive_failures}
                      for p in self.peers],
        }
        return out


# ---------------------------------------------------------------------------
# Farm manager: spawn, drain-restart, and kill real daemon processes
# ---------------------------------------------------------------------------

#: seconds a managed process gets to exit after a ``drain`` ...
FARM_DRAIN_GRACE = 5.0
#: ... and then after SIGTERM, before SIGKILL
FARM_TERM_GRACE = 2.0


class FarmProc:
    """One managed subprocess (shard daemon, cache service, or
    router)."""

    def __init__(self, name: str, socket_path: str, argv: list[str],
                 kind: str = "shard"):
        self.name = name
        self.socket = socket_path
        self.argv = argv
        self.kind = kind
        self.proc: subprocess.Popen | None = None
        self.restarts = 0

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class Farm:
    """Spawns and supervises the farm's processes for ``repro farm``,
    the chaos harness, and the tests.

    The stop path is the graceful ladder the issue demands: ``drain``
    over the wire (stop accepting, finish the queue, exit on its own),
    then SIGTERM (the daemon's handler also drains), then SIGKILL —
    each rung only if the previous one didn't end the process in
    time (:data:`FARM_DRAIN_GRACE`, then :data:`FARM_TERM_GRACE`).
    Every shard has weight 1, and each one enforces the
    ``tenant_rate``/``tenant_burst`` quota itself (``repro serve
    --tenant-rate``), so the quota is per shard, not farm-wide."""

    def __init__(self, run_dir: str | Path, *, daemons: int = 3,
                 pool_size: int = 1, cache_budget: str | None = None,
                 tenant_rate: float = 0.0, tenant_burst: float = 8.0,
                 routers: int = 1):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.pool_size = pool_size
        self.cache_budget = cache_budget
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.cache_dir = self.run_dir / "cache"
        self.cache_socket = str(self.run_dir / "cache.sock")
        #: ``routers == 1``: one in-process RouterServer (the classic
        #: layout every existing test and drill assumes).
        #: ``routers >= 2``: an HA group of *subprocess* routers —
        #: ``r0`` (active) .. ``rN`` (warm standbys), supervised and
        #: respawned like any other daemon.
        self.routers = max(1, int(routers))
        if self.routers == 1:
            self.router_sockets = [str(self.run_dir / "router.sock")]
        else:
            self.router_sockets = [str(self.run_dir / f"r{i}.sock")
                                   for i in range(self.routers)]
        self.router_socket = self.router_sockets[0]
        self.cluster = ClusterConfig(
            shards=[ShardSpec(name=f"s{i}",
                              socket=str(self.run_dir / f"s{i}.sock"))
                    for i in range(daemons)],
            cache_socket=self.cache_socket)
        self.procs: dict[str, FarmProc] = {}
        self.router_server: RouterServer | None = None
        self._supervise_stop: threading.Event | None = None
        self._supervise_thread: threading.Thread | None = None

    @property
    def router_endpoints(self) -> str:
        """The multi-endpoint spec clients should use —
        ``unix:A,unix:B`` across the HA group (preference order:
        active first), or the single router socket."""
        if self.routers == 1:
            return f"unix:{self.router_socket}"
        return ",".join(f"unix:{s}" for s in self.router_sockets)

    # -- process plumbing ---------------------------------------------------

    def _spawn(self, fp: FarmProc) -> None:
        log = open(self.run_dir / f"{fp.name}.log", "ab")
        fp.proc = subprocess.Popen(
            fp.argv, stdout=log, stderr=subprocess.STDOUT,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     p for p in [str(Path(__file__).resolve()
                                     .parents[2]),
                                 os.environ.get("PYTHONPATH", "")]
                     if p)})
        log.close()                   # the child holds its own copy

    def _cache_argv(self) -> list[str]:
        argv = [sys.executable, "-m", "repro", "cache", "serve",
                "--socket", self.cache_socket,
                "--dir", str(self.cache_dir)]
        if self.cache_budget:
            argv += ["--cache-budget", str(self.cache_budget)]
        return argv

    def _shard_argv(self, spec: ShardSpec) -> list[str]:
        return [sys.executable, "-m", "repro", "serve",
                "--socket", spec.socket,
                "--cache-dir", f"unix:{self.cache_socket}",
                "--crash-dir", str(self.run_dir / "crashes"),
                "--pool-size", str(self.pool_size),
                "--tenant-rate", str(self.tenant_rate),
                "--tenant-burst", str(self.tenant_burst)]

    def _router_argv(self, i: int) -> list[str]:
        """A standalone router process: ``repro farm --config`` plus
        its HA identity (rank + the full ordered socket list).  The
        identity lives in the argv, so a plain respawn restores it."""
        return [sys.executable, "-m", "repro", "farm",
                "--config", str(self.run_dir / "cluster.json"),
                "--socket", self.router_sockets[i],
                "--ha-rank", str(i),
                "--ha-peers", ",".join(self.router_sockets)]

    # -- lifecycle ----------------------------------------------------------

    def start(self, ready_timeout: float = 60.0) -> None:
        cache = FarmProc("cache", self.cache_socket,
                         self._cache_argv(), kind="cache")
        self.procs["cache"] = cache
        self._spawn(cache)
        shard_procs = []
        for spec in self.cluster.shards:
            fp = FarmProc(spec.name, spec.socket,
                          self._shard_argv(spec))
            self.procs[spec.name] = fp
            self._spawn(fp)
            shard_procs.append(fp)
        for fp in [cache, *shard_procs]:
            if not wait_ready(fp.socket, timeout=ready_timeout):
                raise RuntimeError(
                    f"farm process {fp.name!r} never became ready "
                    f"(see {self.run_dir / (fp.name + '.log')})")
        self.cluster.write(self.run_dir / "cluster.json")
        if self.routers == 1:
            self.router_server = RouterServer(self.router_socket,
                                              Router(self.cluster))
            self.router_server.start()
            return
        router_procs = []
        for i in range(self.routers):
            fp = FarmProc(f"r{i}", self.router_sockets[i],
                          self._router_argv(i), kind="router")
            self.procs[fp.name] = fp
            self._spawn(fp)
            router_procs.append(fp)
        for fp in router_procs:
            if not wait_ready(fp.socket, timeout=ready_timeout):
                raise RuntimeError(
                    f"farm process {fp.name!r} never became ready "
                    f"(see {self.run_dir / (fp.name + '.log')})")

    def stop(self) -> None:
        self.stop_supervision()
        if self.router_server is not None:
            self.router_server.shutdown()
            self.router_server = None
        # front tier first (no new work flows in), then shards (they
        # may still talk to the cache), cache last
        by_kind = {"router": [], "shard": [], "cache": []}
        for name, fp in self.procs.items():
            by_kind.setdefault(fp.kind, []).append(name)
        for name in (by_kind["router"] + by_kind["shard"]
                     + by_kind["cache"]):
            self.stop_proc(name)

    # -- supervision --------------------------------------------------------

    def start_supervision(self, interval: float = 0.5,
                          ready_timeout: float = 60.0) -> None:
        """Respawn dead router processes automatically, the way an
        init system would.  Routers only: shards and the cache already
        have drill/restart story of their own, and the chaos harness
        needs *them* to stay dead when it kills them."""
        if self._supervise_thread is not None:
            return
        stop = threading.Event()
        self._supervise_stop = stop

        def loop() -> None:
            while not stop.wait(timeout=interval):
                for fp in list(self.procs.values()):
                    if fp.kind != "router" or fp.proc is None \
                            or fp.alive():
                        continue
                    fp.restarts += 1
                    self._spawn(fp)
                    wait_ready(fp.socket, timeout=ready_timeout)

        self._supervise_thread = threading.Thread(
            target=loop, daemon=True, name="farm-supervise")
        self._supervise_thread.start()

    def stop_supervision(self) -> None:
        if self._supervise_stop is not None:
            self._supervise_stop.set()
            self._supervise_stop = None
        if self._supervise_thread is not None:
            self._supervise_thread.join(timeout=2.0)
            self._supervise_thread = None

    def stop_proc(self, name: str) -> None:
        """drain -> SIGTERM -> SIGKILL, first rung that works wins."""
        fp = self.procs.get(name)
        if fp is None or fp.proc is None:
            return
        if fp.alive():
            try:
                single_request(fp.socket, {"op": "drain"},
                               timeout=2.0, reconnects=0)
            except (OSError, ConnectionError, ProtocolError):
                pass
            if not self._wait_exit(fp, FARM_DRAIN_GRACE):
                fp.proc.terminate()
                if not self._wait_exit(fp, FARM_TERM_GRACE):
                    fp.proc.kill()
                    self._wait_exit(fp, 5.0)
        try:
            fp.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            pass

    @staticmethod
    def _wait_exit(fp: FarmProc, grace: float) -> bool:
        try:
            fp.proc.wait(timeout=grace)
            return True
        except subprocess.TimeoutExpired:
            return False

    # -- chaos / rolling-restart hooks --------------------------------------

    def kill_proc(self, name: str,
                  sig: int = signal.SIGKILL) -> None:
        """Ungraceful kill, for chaos drills."""
        fp = self.procs[name]
        if fp.alive():
            fp.proc.send_signal(sig)
            self._wait_exit(fp, 10.0)

    def restart_proc(self, name: str,
                     ready_timeout: float = 60.0) -> None:
        """Respawn a (possibly dead) process on its original socket."""
        fp = self.procs[name]
        if fp.alive():
            self.stop_proc(name)
        fp.restarts += 1
        self._spawn(fp)
        if not wait_ready(fp.socket, timeout=ready_timeout):
            raise RuntimeError(
                f"farm process {name!r} did not come back")

    def rolling_restart(self, ready_timeout: float = 60.0) -> None:
        """Hot-restart every shard, one at a time: drain it (the
        router suspends it), wait for the old process to exit, spawn
        the replacement, and only move on once it serves pings again.
        With >=2 shards the farm never has zero capacity."""
        for spec in self.cluster.shards:
            self.stop_proc(spec.name)
            self.restart_proc(spec.name,
                              ready_timeout=ready_timeout)


__all__ = [
    "ClusterConfig", "Farm", "FarmProc", "Router", "RouterPeer",
    "RouterServer", "ShardSpec", "ShardState",
]
