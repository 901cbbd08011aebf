"""Overload-control tests: token buckets, the fair queue (round-robin
rotation, priority lanes, push-out displacement), the admission
controller's verdicts and honest retry_after hints, end-to-end
deadline propagation through a live daemon, and the client side of
server-provided backoff hints."""

from __future__ import annotations

import os
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import ApiError, CompileRequest, coerce_priority
from repro.service import (
    CompileServer, ServiceClient, Supervisor, SupervisorConfig,
    single_request, wait_ready,
)
from repro.service.admission import (
    ADMIT, ANON_TENANT, AdmissionController, EVICT_EXPIRED, FairQueue,
    PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, QueueItem,
    REJECT_HOPELESS, REJECT_QUEUE_FULL, REJECT_QUOTA,
    ServiceTimeTracker, TokenBucket,
)

SRC = "int main() { return 0; }\n"


class Clock:
    """Scripted monotonic clock for deterministic time tests."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def item(tenant: str, priority: int = PRIORITY_NORMAL, op: str = "analyze",
         tag: str = "", **kw) -> QueueItem:
    return QueueItem(tenant=tenant, priority=priority, op=op,
                     payload=tag or tenant, **kw)


# ---------------------------------------------------------------------------
# coerce_priority: the api's one parser of wire priorities
# ---------------------------------------------------------------------------

class TestCoercePriority:
    def test_names_and_ints(self):
        assert coerce_priority("high") == PRIORITY_HIGH
        assert coerce_priority("NORMAL") == PRIORITY_NORMAL
        assert coerce_priority("low") == PRIORITY_LOW
        assert coerce_priority(0) == 0
        assert coerce_priority(2) == 2

    def test_rejects_garbage(self):
        for bad in ("urgent", 3, -1, True, 1.5, None):
            with pytest.raises(ValueError):
                coerce_priority(bad)


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_disabled_bucket_always_admits(self):
        clk = Clock()
        b = TokenBucket(0.0, 8.0, clock=clk)
        for _ in range(1000):
            assert b.try_take()
        assert b.retry_after() == 0.0

    def test_burst_then_refill(self):
        clk = Clock()
        b = TokenBucket(2.0, 4.0, clock=clk)     # 2/s, burst 4
        assert all(b.try_take() for _ in range(4))
        assert not b.try_take()
        # the hint is the honest time to one token: 0.5s at 2/s
        assert b.retry_after() == pytest.approx(0.5)
        clk.advance(0.5)
        assert b.try_take()
        assert not b.try_take()
        clk.advance(10.0)                        # refills cap at burst
        assert all(b.try_take() for _ in range(4))
        assert not b.try_take()


# ---------------------------------------------------------------------------
# FairQueue
# ---------------------------------------------------------------------------

class TestFairQueue:
    def test_fifo_within_one_tenant(self):
        q = FairQueue(8, clock=Clock())
        for i in range(4):
            admitted, _ = q.put(item("a", tag=f"a{i}"))
            assert admitted
        got = [q.get(timeout=0).payload for _ in range(4)]
        assert got == ["a0", "a1", "a2", "a3"]
        assert q.get(timeout=0) is None

    def test_priority_lanes_strict_within_tenant(self):
        q = FairQueue(8, clock=Clock())
        q.put(item("a", PRIORITY_LOW, tag="low"))
        q.put(item("a", PRIORITY_NORMAL, tag="norm"))
        q.put(item("a", PRIORITY_HIGH, tag="high"))
        got = [q.get(timeout=0).payload for _ in range(3)]
        assert got == ["high", "norm", "low"]

    def test_drr_interleaves_tenants(self):
        """A tenant with 6 queued items cannot starve one with 2:
        tenants dequeue round-robin."""
        q = FairQueue(16, clock=Clock())
        for i in range(6):
            q.put(item("flood", tag=f"f{i}"))
        for i in range(2):
            q.put(item("nice", tag=f"n{i}"))
        order = [q.get(timeout=0).payload for _ in range(8)]
        # both of nice's items are served within the first four turns
        assert set(order[:4]) >= {"n0", "n1"}

    def test_capacity_bound_and_extra_occupancy(self):
        q = FairQueue(3, clock=Clock())
        assert q.put(item("a"))[0]
        # two slots are held by in-dispatch requests: queue is full
        admitted, displaced = q.put(item("a"), extra_occupancy=2)
        assert not admitted and displaced is None

    def test_displacement_sheds_the_flooder_not_the_victim(self):
        q = FairQueue(4, clock=Clock())
        for i in range(4):
            assert q.put(item("flood", tag=f"f{i}"))[0]
        # fair share is 4/2 = 2; "nice" holds 0 < 2, flood holds 4 > 2
        admitted, victim = q.put(item("nice", PRIORITY_HIGH, tag="n0"))
        assert admitted
        assert victim is not None and victim.tenant == "flood"
        assert victim.payload == "f3"      # newest lowest-priority item
        assert q.depth() == 4

    def test_over_share_arrival_is_shed_not_displacing(self):
        q = FairQueue(4, clock=Clock())
        for i in range(2):
            q.put(item("a", tag=f"a{i}"))
        for i in range(2):
            q.put(item("b", tag=f"b{i}"))
        # both tenants sit exactly at fair share (2): no displacement
        admitted, victim = q.put(item("a", tag="a2"))
        assert not admitted and victim is None

    def test_displacement_prefers_low_priority_victim(self):
        q = FairQueue(4, clock=Clock())
        q.put(item("flood", PRIORITY_HIGH, tag="fh0"))
        q.put(item("flood", PRIORITY_HIGH, tag="fh1"))
        q.put(item("flood", PRIORITY_LOW, tag="fl0"))
        q.put(item("flood", PRIORITY_LOW, tag="fl1"))
        _, victim = q.put(item("nice", tag="n0"))
        assert victim is not None and victim.payload == "fl1"

    def test_drain_returns_everything_pending(self):
        q = FairQueue(8, clock=Clock())
        for t in ("a", "b", "a"):
            q.put(item(t))
        drained = q.drain()
        assert len(drained) == 3
        assert q.depth() == 0
        assert q.get(timeout=0) is None

    def test_oldest_age_tracks_enqueue_time(self):
        clk = Clock()
        q = FairQueue(8, clock=clk)
        assert q.oldest_age_s() is None
        q.put(item("a", enqueued_at=clk()))
        clk.advance(2.5)
        q.put(item("b", enqueued_at=clk()))
        assert q.oldest_age_s() == pytest.approx(2.5)

    def test_get_blocks_until_put(self):
        q = FairQueue(8)
        out = []

        def consumer():
            out.append(q.get(timeout=5.0))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.05)
        q.put(item("a", tag="woken"))
        t.join(timeout=5.0)
        assert out and out[0].payload == "woken"


# ---------------------------------------------------------------------------
# ServiceTimeTracker
# ---------------------------------------------------------------------------

class TestServiceTimeTracker:
    def test_p50_needs_sample_floor(self):
        st = ServiceTimeTracker(min_samples=5)
        for _ in range(4):
            st.observe("analyze", 0.1)
        assert st.p50("analyze") is None           # no honest estimate
        st.observe("analyze", 0.1)
        assert st.p50("analyze") == pytest.approx(0.1)

    def test_p50_is_the_median(self):
        st = ServiceTimeTracker(min_samples=5)
        for s in (0.1, 0.2, 0.3, 0.4, 10.0):
            st.observe("advise", s)
        assert st.p50("advise") == pytest.approx(0.3)
        assert "advise" in st.snapshot()


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------

class TestAdmissionController:
    def test_quota_rejection_with_honest_hint(self):
        clk = Clock()
        ac = AdmissionController(8, tenant_rate=1.0, tenant_burst=2.0,
                                 clock=clk)
        assert ac.offer(item("a")).admitted
        assert ac.offer(item("a")).admitted
        d = ac.offer(item("a"))
        assert d.verdict == REJECT_QUOTA
        assert d.retry_after == pytest.approx(1.0)  # 1 token at 1/s
        # another tenant is unaffected
        assert ac.offer(item("b")).admitted

    def test_hopeless_rejection_uses_observed_p50(self):
        clk = Clock()
        ac = AdmissionController(8, clock=clk)
        # below the sample floor nothing is hopeless
        assert ac.offer(item("a"), budget_s=0.001).admitted
        for _ in range(5):
            ac.note_completed(item("a"), service_s=0.5)
            clk.advance(0.1)
        d = ac.offer(item("a"), budget_s=0.2)      # 0.2 < p50 0.5
        assert d.verdict == REJECT_HOPELESS
        assert ac.offer(item("a"), budget_s=2.0).admitted
        # no budget at all is always hopeless
        assert ac.offer(item("a"), budget_s=0.0).verdict \
            == REJECT_HOPELESS

    def test_queue_full_hint_tracks_drain_rate(self):
        clk = Clock()
        ac = AdmissionController(4, clock=clk)
        for _ in range(4):
            assert ac.offer(item("a")).admitted
        # drain two at ~2/s so the EWMA has a real rate
        for _ in range(8):
            taken = ac.take(timeout=0)
            clk.advance(0.5)
            ac.note_completed(taken, service_s=0.4)
            ac.offer(item("a"))
        d = ac.offer(item("a"))
        assert d.verdict == REJECT_QUEUE_FULL
        # 4 queued at ~2/s -> ~2s, clamped to [0.1, 30]
        assert 0.1 <= d.retry_after <= 30.0
        assert d.retry_after == pytest.approx(
            ac.queue.depth() / ac.drain_rate(), rel=0.5)

    def test_fairness_block_shape(self):
        clk = Clock()
        ac = AdmissionController(8, tenant_rate=100.0, clock=clk)
        ac.offer(item("a"))
        taken = ac.take(timeout=0)
        clk.advance(0.05)
        ac.note_completed(taken, service_s=0.05)
        ac.offer(item("b"))
        expired = item("c")
        ac.evict_expired(expired)
        fb = ac.fairness()
        assert fb["queue_depth"] == 1
        assert fb["queue_capacity"] == 8
        assert fb["oldest_age_s"] is not None
        assert fb["tenants"]["a"]["completed"] == 1
        assert fb["tenants"]["b"]["queued"] == 1
        assert fb["tenants"]["c"]["deadline_evicted"] == 1

    def test_displacement_counts_against_the_flooder(self):
        ac = AdmissionController(2, clock=Clock())
        ac.offer(item("flood"))
        ac.offer(item("flood"))
        d = ac.offer(item("nice"))
        assert d.admitted and d.displaced is not None
        fb = ac.fairness()
        assert fb["tenants"]["flood"]["shed"] == 1
        assert fb["tenants"]["nice"]["admitted"] == 1


# ---------------------------------------------------------------------------
# Wire-level: CompileRequest carries tenant / priority / deadline_ms
# ---------------------------------------------------------------------------

class TestWireFields:
    def test_roundtrip(self):
        req = CompileRequest(op="analyze", sources=[("a.c", SRC)],
                             tenant="acme", priority=PRIORITY_HIGH,
                             deadline_ms=750.0)
        wire = req.to_wire()
        assert wire["tenant"] == "acme"
        assert wire["priority"] == PRIORITY_HIGH
        assert wire["deadline_ms"] == 750.0
        back = CompileRequest.from_dict(wire)
        assert (back.tenant, back.priority, back.deadline_ms) \
            == ("acme", PRIORITY_HIGH, 750.0)

    def test_defaults_stay_off_the_wire(self):
        wire = CompileRequest(op="analyze",
                              sources=[("a.c", SRC)]).to_wire()
        assert "tenant" not in wire
        assert "priority" not in wire
        assert "deadline_ms" not in wire

    def test_validation(self):
        with pytest.raises(ApiError):
            CompileRequest.from_dict(
                {"op": "analyze", "sources": [["a.c", SRC]],
                 "deadline_ms": -5})
        with pytest.raises(ApiError):
            CompileRequest.from_dict(
                {"op": "analyze", "sources": [["a.c", SRC]],
                 "priority": "urgent"})
        with pytest.raises(ApiError):
            CompileRequest.from_dict(
                {"op": "analyze", "sources": [["a.c", SRC]],
                 "tenant": ""})


# ---------------------------------------------------------------------------
# Live daemon integration
# ---------------------------------------------------------------------------

@contextmanager
def service(queue_max: int = 8, tenant_rate: float = 0.0,
            tenant_burst: float = 8.0, **cfg_kw):
    tmp = tempfile.mkdtemp(prefix="repro-adm-")
    cfg_kw.setdefault("pool_size", 1)
    cfg_kw.setdefault("deadline", 60.0)
    cfg_kw.setdefault("cache_dir", os.path.join(tmp, "cache"))
    supervisor = Supervisor(SupervisorConfig(**cfg_kw))
    sock = os.path.join(tmp, "repro.sock")
    server = CompileServer(sock, supervisor, queue_max=queue_max,
                           tenant_rate=tenant_rate,
                           tenant_burst=tenant_burst)
    server.start()
    assert wait_ready(sock, timeout=30), "daemon failed to become ready"
    try:
        yield sock, server, supervisor
    finally:
        server.shutdown()


def wire(op: str = "analyze", **extra) -> dict:
    return {"id": 1, "op": op, "sources": [["a.c", SRC]], **extra}


class TestServerAdmission:
    def test_quota_rejected_status(self):
        with service(tenant_rate=0.001, tenant_burst=1.0) as (sock, _, _):
            ok = single_request(sock, wire(tenant="greedy"))
            assert ok["status"] in ("ok", "degraded")
            rej = single_request(sock, wire(tenant="greedy"))
            assert rej["status"] == "rejected"
            assert rej["error"]["reason"] == "quota"
            assert rej["retry_after"] > 0
            # a different tenant still gets service
            other = single_request(sock, wire(tenant="patient"))
            assert other["status"] in ("ok", "degraded")

    def test_short_budget_is_deadline_exceeded(self):
        """A 50ms budget is under the supervisor's deadline margin:
        the request must come back deadline_exceeded, never burn a
        worker, and never be failed over as an error."""
        with service() as (sock, _, _):
            resp = single_request(sock, wire(deadline_ms=50.0))
            assert resp["status"] == "deadline_exceeded"
            assert resp["error"]["reason"] in (
                "budget_exhausted", "expired_in_queue", "hopeless")

    def test_generous_budget_is_served(self):
        with service() as (sock, _, _):
            resp = single_request(
                sock, wire(tenant="acme", priority="high",
                           deadline_ms=60_000.0))
            assert resp["status"] in ("ok", "degraded")

    def test_stats_has_fairness_and_queue_depth(self):
        with service() as (sock, _, _):
            single_request(sock, wire(tenant="acme"))
            stats = single_request(sock, {"op": "stats"})["stats"]
            srv = stats["server"]
            assert srv["queue_depth"] == 0
            assert "oldest_age_s" in srv
            assert "deadline_refused" in srv
            fb = stats["fairness"]
            assert fb["queue_depth"] == 0
            assert fb["tenants"]["acme"]["completed"] >= 1

    def test_bad_priority_is_a_protocol_error(self):
        with service() as (sock, _, _):
            resp = single_request(sock, wire(priority="urgent"))
            assert resp["status"] == "error"


class TestClientRetryHints:
    def test_backoff_consumes_server_hint_once(self):
        c = ServiceClient("/nonexistent", jitter_seed=7,
                          retry_after_cap=2.0)
        c._retry_hint = 0.25
        assert c._backoff(0) == 0.25
        # consumed: next backoff falls back to the jittered default
        assert c._backoff(0) <= c.backoff_base
        c._retry_hint = 99.0                     # capped
        assert c._backoff(0) == 2.0

    def test_retry_busy_resends_after_rejected(self):
        """With retry_busy set, a quota rejection is retried after the
        server's hint and eventually succeeds."""
        with service(tenant_rate=2.0, tenant_burst=1.0) as (sock, _, _):
            with ServiceClient(sock, timeout=60.0, retry_busy=3,
                               retry_after_cap=2.0) as c:
                first = c.request(wire(tenant="t"))
                assert first["status"] in ("ok", "degraded")
                second = c.request(wire(tenant="t"))
                # burst of 1 at 2/s: the immediate follow-up is
                # rejected, the hint (~0.5s) is slept, the resend lands
                assert second["status"] in ("ok", "degraded")

    def test_without_retry_busy_rejection_is_returned(self):
        with service(tenant_rate=0.001, tenant_burst=1.0) as (sock, _, _):
            with ServiceClient(sock, timeout=60.0) as c:
                assert c.request(wire(tenant="t"))["status"] \
                    in ("ok", "degraded")
                assert c.request(wire(tenant="t"))["status"] \
                    == "rejected"
