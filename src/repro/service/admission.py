"""Overload control: quotas, fair queueing, and honest admission.

The farm's overload story before this module was *shed-after-accept*:
a fixed ``pool_size + queue_max`` semaphore with no notion of who a
request belongs to.  One greedy client could occupy every slot, a
hopeless request (whose deadline could never cover even the median
service time) still burned a worker end to end, and the only hint a
shed caller got was a constant ``retry_after``.

This module is the *reject-on-arrival* replacement, three layers deep:

- :class:`TokenBucket` — per-tenant rate quotas (and, at the router,
  per-tenant **retry budgets**: failover and hedging draw from one
  bucket so a retry storm cannot amplify an overload).
- :class:`FairQueue` — a bounded **weighted deficit-round-robin**
  queue.  Service rotates across tenants in proportion to their
  weights, so a flooding tenant queues behind itself, not in front of
  everyone else.  Within a tenant, three **priority lanes** (high /
  normal / low) are served strictly in order.  When the queue is full,
  arrivals from a tenant still under its fair share **displace** the
  newest, lowest-priority item of the most over-share tenant — the
  flooder's excess is shed, never the victim's traffic.
- :class:`AdmissionController` — the decision point.  Every arrival is
  either *admitted* (enqueued), *rejected* with an honest
  ``retry_after`` (quota exhausted, or the queue is full — the hint is
  derived from the measured drain rate, not a constant), or refused as
  *hopeless* (its remaining deadline budget cannot cover the observed
  p50 service time for its operation, so dispatching it would only burn
  a worker).  Expired-in-queue items are evicted at dequeue time with a
  structured ``deadline_exceeded`` verdict instead of being dispatched.

Every verdict is counted once, as an ``admission.*`` series labelled
by tenant in the server's :class:`~repro.obs.MetricsRegistry`; the
``fairness`` stats block is read out of those series.  Everything
takes an injected ``clock`` so tests can script time.
The in-process path (the local CLI commands /
:class:`repro.api.Session`) never touches this module; admission is a
service-layer concern.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..api import PRIORITY_NAMES
from ..obs import MetricsRegistry

#: priority lanes within a tenant, served strictly in this order; the
#: lane numbers are the wire priorities :func:`repro.api.coerce_priority`
#: accepts
PRIORITY_HIGH = PRIORITY_NAMES["high"]
PRIORITY_NORMAL = PRIORITY_NAMES["normal"]
PRIORITY_LOW = PRIORITY_NAMES["low"]
PRIORITY_LANES = len(PRIORITY_NAMES)

#: the tenant a request without a ``tenant`` field is accounted to
ANON_TENANT = "anon"

#: admission verdicts
ADMIT = "admit"
REJECT_QUOTA = "quota"            # tenant token bucket empty
REJECT_QUEUE_FULL = "queue_full"  # bounded queue full, no displacement
REJECT_HOPELESS = "hopeless"      # budget < observed p50 service time
EVICT_EXPIRED = "expired"         # deadline passed while queued

__all__ = [
    "ADMIT", "ANON_TENANT", "AdmissionController", "Decision",
    "EVICT_EXPIRED", "FairQueue", "PRIORITY_HIGH", "PRIORITY_LANES",
    "PRIORITY_LOW", "PRIORITY_NORMAL", "QueueItem",
    "REJECT_HOPELESS", "REJECT_QUEUE_FULL", "REJECT_QUOTA",
    "ServiceTimeTracker", "TokenBucket",
]

#: DRR credit a tenant of weight 1 gains per turn
DRR_QUANTUM = 1.0

#: recent service times kept per op for the p50 estimate
SERVICE_TIME_WINDOW = 128

#: half-life of the drain-rate EWMA, seconds
DRAIN_HALFLIFE = 10.0

#: bounds on every ``retry_after`` hint, seconds
RETRY_AFTER_MIN = 0.1
RETRY_AFTER_MAX = 30.0

#: the per-tenant counts of the ``fairness`` block, each read from the
#: ``admission.*`` series (and label filter) that counts it
_TENANT_COUNTS = (
    ("admitted", "admission.admitted", {}),
    ("completed", "admission.completed", {}),
    ("shed", "admission.shed", {}),                 # queue full + displaced
    ("rejected", "admission.rejected", {"reason": "quota"}),
    ("hopeless", "admission.rejected", {"reason": "hopeless"}),
    ("deadline_evicted", "admission.deadline_evicted", {}),
)


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/second, ``burst`` cap.

    ``rate <= 0`` disables the bucket (every take succeeds) — the
    default posture, so single-user deployments pay nothing."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, n: float = 1.0) -> bool:
        if self.rate <= 0:
            return True
        with self._lock:
            self._refill_locked()
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def retry_after(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available — the honest
        hint to send with a quota rejection."""
        if self.rate <= 0:
            return 0.0
        with self._lock:
            self._refill_locked()
            deficit = n - self._tokens
        return max(0.0, deficit / self.rate)

    def tokens(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


@dataclass
class QueueItem:
    """One queued compile request (payload is opaque to the queue)."""

    tenant: str
    priority: int = PRIORITY_NORMAL
    op: str = ""
    enqueued_at: float = 0.0
    #: monotonic moment the request's deadline budget runs out
    expires_at: float | None = None
    payload: Any = None

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


class _TenantLanes:
    """Per-tenant queue state: one deque per priority lane + deficit."""

    __slots__ = ("lanes", "deficit", "weight")

    def __init__(self, weight: float):
        self.lanes = [deque() for _ in range(PRIORITY_LANES)]
        self.deficit = 0.0
        self.weight = weight

    @property
    def pending(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    def pop(self) -> QueueItem:
        for lane in self.lanes:
            if lane:
                return lane.popleft()
        raise IndexError("pop from empty tenant queue")

    def displace(self) -> QueueItem:
        """Remove and return the newest, lowest-priority item."""
        for lane in reversed(self.lanes):
            if lane:
                return lane.pop()
        raise IndexError("displace from empty tenant queue")


class FairQueue:
    """Bounded deficit-round-robin queue across tenants.

    ``put`` admits, rejects, or *displaces*: when the queue is full but
    the arriving tenant holds less than its fair share
    (``capacity / active tenants``), the newest lowest-priority item of
    the most over-share tenant is pushed out to make room.  The caller
    answers the displaced request with a shed response, so the contract
    "every request gets exactly one structured reply" survives
    displacement.

    ``get`` serves one item per call, rotating tenants by classic DRR:
    each tenant's turn adds ``DRR_QUANTUM * weight`` to its deficit and a
    dequeue costs 1, so long-term throughput is proportional to weight
    and a tenant with a thousand queued requests cannot starve one with
    two.  Within a tenant, lanes are strict priority."""

    def __init__(self, capacity: int, *,
                 weights: dict[str, float] | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.capacity = max(int(capacity), 0)
        self.weights = dict(weights or {})
        self._clock = clock
        self._cv = threading.Condition()
        self._tenants: dict[str, _TenantLanes] = {}
        self._ring: list[str] = []       # tenants with pending items
        self._cursor = 0
        self._depth = 0

    # -- internals (call with the condition held) ---------------------------

    def _lanes(self, tenant: str) -> _TenantLanes:
        tl = self._tenants.get(tenant)
        if tl is None:
            tl = self._tenants[tenant] = _TenantLanes(
                self.weights.get(tenant, 1.0))
        return tl

    def _retire_locked(self, tenant: str) -> None:
        """Drop an empty tenant from the rotation; reset its deficit."""
        tl = self._tenants.get(tenant)
        if tl is not None and tl.pending == 0:
            tl.deficit = 0.0
            try:
                idx = self._ring.index(tenant)
            except ValueError:
                return
            self._ring.pop(idx)
            if idx < self._cursor:
                self._cursor -= 1
            if self._ring:
                self._cursor %= len(self._ring)
            else:
                self._cursor = 0

    # -- producer side ------------------------------------------------------

    def put(self, item: QueueItem, extra_occupancy: int = 0
            ) -> tuple[bool, QueueItem | None]:
        """Try to enqueue; returns ``(admitted, displaced)``.

        ``extra_occupancy`` counts slots held outside the queue proper
        (requests currently being dispatched), so the bound covers the
        whole pool + queue, matching the old semaphore semantics.

        ``(False, None)``  — queue full and the arriving tenant already
        holds its fair share: the *arrival* is shed.
        ``(True, victim)`` — the arrival was admitted by pushing out
        ``victim`` (the flooder's newest low-priority item); the caller
        must answer ``victim`` with a shed response."""
        with self._cv:
            displaced = None
            if self._depth + extra_occupancy >= self.capacity:
                displaced = self._displace_for_locked(item.tenant)
                if displaced is None:
                    return False, None
            tl = self._lanes(item.tenant)
            tl.lanes[item.priority].append(item)
            self._depth += 1
            if item.tenant not in self._ring:
                self._ring.append(item.tenant)
            self._cv.notify()
            return True, displaced

    def _displace_for_locked(self, tenant: str) -> QueueItem | None:
        """Push-out: evict from the most over-share tenant so a tenant
        under its fair share is never locked out by a flooder."""
        if self.capacity <= 0:
            return None
        active = {t for t in self._ring if self._tenants[t].pending}
        active.add(tenant)
        fair = self.capacity / max(1, len(active))
        held = self._tenants.get(tenant)
        if held is not None and held.pending >= fair:
            return None               # the arrival itself is over-share
        flooder = max(
            (t for t in active if t != tenant
             and self._tenants.get(t) is not None
             and self._tenants[t].pending > fair),
            key=lambda t: self._tenants[t].pending, default=None)
        if flooder is None:
            return None
        victim = self._tenants[flooder].displace()
        self._depth -= 1
        self._retire_locked(flooder)
        return victim

    # -- consumer side ------------------------------------------------------

    def get(self, timeout: float | None = None) -> QueueItem | None:
        """Dequeue one item by DRR rotation, or ``None`` on timeout."""
        deadline = None if timeout is None \
            else self._clock() + timeout
        with self._cv:
            while self._depth == 0:
                remaining = None if deadline is None \
                    else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return None
                self._cv.wait(timeout=remaining)
            while True:
                tenant = self._ring[self._cursor % len(self._ring)]
                tl = self._tenants[tenant]
                if tl.pending == 0:       # defensive; retired on empty
                    self._retire_locked(tenant)
                    continue
                if tl.deficit >= 1.0:
                    tl.deficit -= 1.0
                    item = tl.pop()
                    self._depth -= 1
                    self._retire_locked(tenant)
                    return item
                tl.deficit += DRR_QUANTUM * max(tl.weight, 1e-9)
                self._cursor = (self._cursor + 1) % len(self._ring)

    def drain(self) -> list[QueueItem]:
        """Empty the queue (shutdown path); returns what was pending."""
        with self._cv:
            items = []
            for tl in self._tenants.values():
                for lane in tl.lanes:
                    items.extend(lane)
                    lane.clear()
                tl.deficit = 0.0
            self._ring.clear()
            self._cursor = 0
            self._depth = 0
            return items

    # -- introspection ------------------------------------------------------

    def depth(self) -> int:
        with self._cv:
            return self._depth

    def oldest_age_s(self) -> float | None:
        """Age of the oldest queued item, for the ``stats`` op."""
        now = self._clock()
        with self._cv:
            oldest = None
            for tl in self._tenants.values():
                for lane in tl.lanes:
                    for item in lane:
                        if oldest is None \
                                or item.enqueued_at < oldest:
                            oldest = item.enqueued_at
        return None if oldest is None else max(0.0, now - oldest)

    def tenant_depths(self) -> dict[str, int]:
        with self._cv:
            return {t: tl.pending for t, tl in self._tenants.items()
                    if tl.pending}


class ServiceTimeTracker:
    """Recent service times per operation; p50 feeds cost-aware
    admission ("can this request's remaining budget cover the median
    service time at all?")."""

    def __init__(self, min_samples: int = 5):
        self.min_samples = min_samples
        self._lock = threading.Lock()
        self._samples: dict[str, deque] = {}

    def observe(self, op: str, seconds: float) -> None:
        with self._lock:
            dq = self._samples.get(op)
            if dq is None:
                dq = self._samples[op] = deque(
                    maxlen=SERVICE_TIME_WINDOW)
            dq.append(seconds)

    def p50(self, op: str) -> float | None:
        """Median recent service time, or ``None`` below the sample
        floor (no honest estimate -> no hopeless rejections)."""
        with self._lock:
            dq = self._samples.get(op)
            if dq is None or len(dq) < self.min_samples:
                return None
            ordered = sorted(dq)
        return ordered[len(ordered) // 2]

    def snapshot(self) -> dict:
        with self._lock:
            return {op: round(sorted(dq)[len(dq) // 2], 4)
                    for op, dq in self._samples.items()
                    if len(dq) >= self.min_samples}


@dataclass
class Decision:
    """One admission verdict."""

    verdict: str                       # ADMIT or a REJECT_* constant
    retry_after: float | None = None
    displaced: QueueItem | None = None
    detail: str = ""

    @property
    def admitted(self) -> bool:
        return self.verdict == ADMIT


class AdmissionController:
    """Quota -> cost-aware check -> bounded fair queue, with honest
    ``retry_after`` hints and per-tenant accounting.

    One controller fronts one server's dispatcher pool and counts into
    that server's registry (``metrics``; a private one by default).
    The ``tenant_rate``/``tenant_burst`` quota is off by default
    (``rate <= 0``); the fair queue is always on."""

    def __init__(self, capacity: int, *, tenant_rate: float = 0.0,
                 tenant_burst: float = 8.0,
                 weights: dict[str, float] | None = None,
                 metrics: MetricsRegistry | None = None,
                 clock: Callable[[], float] = time.monotonic):
        self.queue = FairQueue(capacity, weights=weights, clock=clock)
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.service_times = ServiceTimeTracker()
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        #: completions/second, EWMA with ``DRAIN_HALFLIFE`` seconds
        self._drain_rate = 0.0
        self._drain_stamp = clock()
        self._drain_alpha = 0.6931471805599453 / DRAIN_HALFLIFE

    # -- per-tenant state ---------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.tenant_rate, self.tenant_burst,
                    clock=self._clock)
            return bucket

    def _count(self, name: str, tenant: str, **labels: str) -> None:
        self.metrics.counter(name, tenant=tenant, **labels).inc()

    # -- the decision -------------------------------------------------------

    def offer(self, item: QueueItem,
              budget_s: float | None = None,
              extra_occupancy: int = 0) -> Decision:
        """Admit, reject, or displace-and-admit one arrival.

        ``budget_s`` is the request's remaining deadline budget; when
        it cannot cover the observed p50 service time for ``item.op``
        the request is refused on arrival (*hopeless*) instead of
        burning a queue slot and a worker.  ``extra_occupancy`` is
        forwarded to :meth:`FairQueue.put` (in-dispatch slots)."""
        if self.tenant_rate > 0 \
                and not self._bucket(item.tenant).try_take():
            self._count("admission.rejected", item.tenant,
                        reason="quota")
            return Decision(
                REJECT_QUOTA,
                retry_after=self._clamp(
                    self._bucket(item.tenant).retry_after()),
                detail=f"tenant {item.tenant!r} over its "
                       f"{self.tenant_rate:g}/s quota")
        if budget_s is not None:
            p50 = self.service_times.p50(item.op)
            if budget_s <= 0 or (p50 is not None and budget_s < p50):
                self._count("admission.rejected", item.tenant,
                            reason="hopeless")
                return Decision(
                    REJECT_HOPELESS,
                    detail=f"remaining budget {max(budget_s, 0.0):.3f}s "
                           f"cannot cover the observed p50 service "
                           f"time ({p50 if p50 is not None else 0:.3f}s"
                           f" for {item.op!r})")
        admitted, displaced = self.queue.put(
            item, extra_occupancy=extra_occupancy)
        if not admitted:
            self._count("admission.shed", item.tenant,
                        reason="queue_full")
            return Decision(REJECT_QUEUE_FULL,
                            retry_after=self.queue_retry_after(),
                            detail="bounded fair queue full")
        self._count("admission.admitted", item.tenant)
        if displaced is not None:
            self._count("admission.shed", displaced.tenant,
                        reason="displaced")
        return Decision(ADMIT, displaced=displaced)

    def take(self, timeout: float | None = None) -> QueueItem | None:
        """Dequeue the next item for dispatch (DRR order)."""
        return self.queue.get(timeout=timeout)

    def evict_expired(self, item: QueueItem) -> None:
        """Account one expired-in-queue eviction (caller answers it)."""
        self._count("admission.deadline_evicted", item.tenant)

    def note_completed(self, item: QueueItem,
                       service_s: float | None = None) -> None:
        """Feed the drain-rate EWMA (and the p50 tracker) after a
        dispatched request finishes."""
        self._count("admission.completed", item.tenant)
        now = self._clock()
        with self._lock:
            dt = max(now - self._drain_stamp, 1e-9)
            inst = 1.0 / dt
            blend = min(1.0, self._drain_alpha * dt)
            self._drain_rate += blend * (inst - self._drain_rate)
            self._drain_stamp = now
        if service_s is not None and item.op:
            self.service_times.observe(item.op, service_s)

    # -- honest hints -------------------------------------------------------

    @staticmethod
    def _clamp(hint: float) -> float:
        return min(RETRY_AFTER_MAX, max(RETRY_AFTER_MIN, hint))

    def drain_rate(self) -> float:
        """Completions per second (EWMA), decayed while idle."""
        now = self._clock()
        with self._lock:
            idle = now - self._drain_stamp
            rate = self._drain_rate
        if idle > 1.0:                # decay toward 0 while idle
            rate = rate / (1.0 + self._drain_alpha * idle)
        return rate

    def queue_retry_after(self) -> float:
        """When the queue is full: the time the backlog needs to drain
        at the measured rate — the honest alternative to a constant."""
        rate = self.drain_rate()
        depth = self.queue.depth()
        if rate <= 1e-9:
            return RETRY_AFTER_MAX if depth else RETRY_AFTER_MIN
        return self._clamp(depth / rate)

    # -- stats --------------------------------------------------------------

    def fairness(self) -> dict:
        """The ``fairness`` stats block: live queue state plus every
        tenant's verdict counts, read from the ``admission.*`` series."""
        depths = self.queue.tenant_depths()
        counts = {key: self.metrics.split(name, "tenant", **match)
                  for key, name, match in _TENANT_COUNTS}
        tenants = {
            t: {**{key: c.get(t, 0) for key, c in counts.items()},
                "queued": depths.get(t, 0)}
            for t in sorted(set(depths).union(*counts.values()))}
        oldest = self.queue.oldest_age_s()
        return {
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            "oldest_age_s": None if oldest is None
            else round(oldest, 3),
            "drain_rate_per_s": round(self.drain_rate(), 3),
            "tenant_rate": self.tenant_rate,
            "tenant_burst": self.tenant_burst,
            "service_time_p50_s": self.service_times.snapshot(),
            "tenants": tenants,
        }
