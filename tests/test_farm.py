"""The resilient compile farm: router, cache service, drain, chaos.

Contracts under test:

- **Sharding** is weighted rendezvous hashing on the workload
  fingerprint: deterministic, weight-proportional, and minimally
  disruptive (removing a shard only moves that shard's keys).
- **Failover**: connection loss, shed (busy) responses, and
  status-error responses all send the request to the next-ranked
  shard; the response says so in its ``route`` block.  A shard's
  admission verdict (``rejected``, ``deadline_exceeded``) is final,
  and a budget spent inside the router is never forwarded.
- **Hedging**: a request stuck past the latency percentile gets a
  duplicate on the next shard and the first answer wins.
- **Health**: consecutive failures eject a shard; a recovered shard
  is readmitted by the probe loop; a draining shard is suspended
  without being treated as dead.
- **Drain**: a draining daemon refuses new work (busy + reason
  "draining"), finishes in-flight requests, then exits on its own.
- **Cache service**: content-addressed get/put over the wire, LRU
  eviction under a byte budget, corruption quarantined server-side
  and surfaced as a miss, and an unreachable service degrading to
  misses — never exceptions.
- **Connection reuse**: router → shard and worker → cache-service
  connections are pooled per process, a reply inside the hedge window
  is read on the router's connection thread, and a warm hit through
  the farm opens no connection and starts no thread.
"""

import os
import pickle
import random
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.api import CompileRequest, Session
from repro.cli import main
from repro.core import inject_cache_fault
from repro.core.summarycache import SummaryCache, open_cache
from repro.service import (
    COMPILE_OPS, CacheServer, CacheStore, ClusterConfig, CompileServer,
    Farm, LineServer, ProtocolError, RemoteCache, Router, RouterPeer,
    RouterServer, ServiceClient, ShardSpec, Supervisor,
    SupervisorConfig, busy_response, deadline_response, error_response,
    parse_budget, parse_compile, rejected_response, response,
    single_request, wait_ready,
)

# AF_UNIX socket paths are limited to ~107 bytes; pytest tmp_path can
# blow that, so sockets live under a short /tmp dir
def _tmpdir():
    return tempfile.mkdtemp(prefix="repro-farm-", dir="/tmp")


class FakeShard(LineServer):
    """A scriptable stand-in for a compile daemon."""

    WORK_OPS = COMPILE_OPS

    def __init__(self, socket_path, name, behavior="ok", delay=0.0):
        super().__init__(socket_path)
        self.name = name
        #: ok | busy | error | rejected | deadline_exceeded
        self.behavior = behavior
        self.delay = delay
        self.received = 0             # work requests, whatever answer
        self.served = 0

    def handle_request(self, raw):
        req_id, op = raw.get("id"), raw.get("op")
        if op == "ping":
            return {"id": req_id, "op": "ping", "status": "ok",
                    "pong": True, "draining": self.draining}
        if op == "drain":
            return {"id": req_id, "op": "drain", "status": "ok",
                    **self.begin_drain()}
        if op == "shutdown":
            return {"id": req_id, "op": "shutdown", "status": "ok"}
        self.received += 1
        if self.delay:
            time.sleep(self.delay)
        if self.behavior == "busy":
            return busy_response(req_id, op)
        if self.behavior == "error":
            return error_response(req_id, op, "scripted failure")
        if self.behavior == "rejected":
            return rejected_response(req_id, op, 1.0, reason="quota")
        if self.behavior == "deadline_exceeded":
            return deadline_response(req_id, op, reason="hopeless")
        self.served += 1
        return response(req_id, op, "ok", tier="full",
                        payload={"served_by": self.name})


REQ = {"op": "analyze", "id": 7,
       "sources": [["demo.c", "struct s { int a; };"]]}


def make_cluster(tmp, n=2, weights=None):
    weights = weights or [1.0] * n
    return ClusterConfig(shards=[
        ShardSpec(name=f"s{i}", socket=os.path.join(tmp, f"s{i}.sock"),
                  weight=weights[i]) for i in range(n)])


def start_shards(cluster, **kw):
    shards = []
    for spec in cluster.shards:
        shard = FakeShard(spec.socket, spec.name, **kw)
        shard.start()
        shards.append(shard)
    return shards


# ---------------------------------------------------------------------------
# cluster config
# ---------------------------------------------------------------------------

class TestClusterConfig:
    def test_round_trips_through_file(self, tmp_path):
        cfg = ClusterConfig(
            shards=[ShardSpec("a", "/tmp/a.sock", 2.0),
                    ShardSpec("b", "/tmp/b.sock")],
            cache_socket="/tmp/c.sock")
        path = tmp_path / "cluster.json"
        cfg.write(path)
        loaded = ClusterConfig.from_file(path)
        assert loaded.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("bad", [
        {},                                          # no shards
        {"shards": [{"name": "a"}]},                 # no socket
        {"shards": [{"name": "a", "socket": "x", "weight": 0}]},
        {"shards": [{"name": "a", "socket": "x"},
                    {"name": "a", "socket": "y"}]},  # dup names
        {"shards": [{"name": "a", "socket": "x",
                     "weight": float("nan")}]},
        {"shards": [{"name": "a", "socket": "x",
                     "weight": float("inf")}]},
        {"shards": [{"name": "a", "socket": "x", "weight": True}]},
    ])
    def test_rejects_bad_configs(self, bad):
        with pytest.raises(ValueError):
            ClusterConfig.from_dict(bad)

    def test_missing_file_is_a_value_error(self):
        with pytest.raises(ValueError, match="cannot read"):
            ClusterConfig.from_file("/nonexistent/cluster.json")


# ---------------------------------------------------------------------------
# rendezvous sharding
# ---------------------------------------------------------------------------

class TestSharding:
    def test_ranking_is_deterministic(self):
        router = Router(make_cluster(_tmpdir(), 3))
        fp = Router.workload_fingerprint(REQ)
        first = [s.name for s in router.rank(fp)]
        assert first == [s.name for s in router.rank(fp)]
        assert len(first) == 3

    def test_same_sources_same_shard_different_sources_spread(self):
        router = Router(make_cluster(_tmpdir(), 3))
        winners = set()
        for i in range(64):
            req = {"op": "analyze",
                   "sources": [[f"u{i}.c", f"struct s{i} {{int a;}};"]]}
            fp = Router.workload_fingerprint(req)
            winners.add(router.rank(fp)[0].name)
        assert winners == {"s0", "s1", "s2"}   # all shards attract work

    def test_removing_winner_only_moves_its_keys(self):
        """The rendezvous property: dropping shard X reassigns only
        workloads X was winning; everyone else's winner is stable."""
        tmp = _tmpdir()
        full = Router(make_cluster(tmp, 3))
        fps = [Router.workload_fingerprint(
            {"op": "analyze", "sources": [[f"u{i}.c", f"x{i}"]]})
            for i in range(50)]
        before = {fp: full.rank(fp)[0].name for fp in fps}
        # drop s1 by marking it unhealthy
        s1 = next(s for s in full.shards if s.name == "s1")
        s1.healthy = False
        after = {fp: full.rank(fp)[0].name for fp in fps}
        for fp in fps:
            if before[fp] != "s1":
                assert after[fp] == before[fp]
            else:
                assert after[fp] != "s1"

    def test_weights_bias_the_keyspace(self):
        router = Router(make_cluster(_tmpdir(), 2, weights=[1.0, 3.0]))
        wins = {"s0": 0, "s1": 0}
        for i in range(400):
            fp = Router.workload_fingerprint(
                {"op": "analyze", "sources": [[f"u{i}.c", f"b{i}"]]})
            wins[router.rank(fp)[0].name] += 1
        share = wins["s1"] / 400
        assert 0.6 < share < 0.9      # expect ~0.75 for weight 3:1


# ---------------------------------------------------------------------------
# dispatch: failover and hedging
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_routes_to_the_rendezvous_winner(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = start_shards(cluster)
        try:
            router = Router(cluster)
            resp = router.dispatch(dict(REQ))
            assert resp["status"] == "ok"
            fp = Router.workload_fingerprint(REQ)
            assert resp["route"]["shard"] == router.rank(fp)[0].name
            assert resp["route"]["failovers"] == 0
            assert resp["payload"]["served_by"] \
                == resp["route"]["shard"]
        finally:
            for s in shards:
                s.shutdown()

    def test_fails_over_when_the_winner_is_dead(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = start_shards(cluster)
        router = Router(cluster, fail_threshold=1)
        fp = Router.workload_fingerprint(REQ)
        winner = router.rank(fp)[0].name
        try:
            next(s for s in shards if s.name == winner).shutdown()
            resp = router.dispatch(dict(REQ))
            assert resp["status"] == "ok"
            assert resp["route"]["shard"] != winner
            assert resp["route"]["failovers"] == 1
            assert router.stats()["router"]["failovers"] == 1
            # the traffic failure also ejected the dead shard
            dead = next(s for s in router.shards
                        if s.name == winner)
            assert not dead.healthy
        finally:
            for s in shards:
                s.shutdown()

    @pytest.mark.parametrize("behavior", ["busy", "error"])
    def test_fails_over_on_shed_and_error_responses(self, behavior):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        router = Router(cluster)
        fp = Router.workload_fingerprint(REQ)
        winner = router.rank(fp)[0].name
        shards = []
        for spec in cluster.shards:
            shard = FakeShard(
                spec.socket, spec.name,
                behavior=behavior if spec.name == winner else "ok")
            shard.start()
            shards.append(shard)
        try:
            resp = router.dispatch(dict(REQ))
            assert resp["status"] == "ok"
            assert resp["route"]["shard"] != winner
            assert resp["route"]["failovers"] == 1
        finally:
            for s in shards:
                s.shutdown()

    @pytest.mark.parametrize("behavior", ["rejected",
                                          "deadline_exceeded"])
    def test_admission_verdicts_are_final(self, behavior):
        """A shard's ``rejected`` or ``deadline_exceeded`` answer is
        its admission verdict, not a shard failure: one attempt, no
        failover, and no other shard serves the request."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        router = Router(cluster)
        fp = Router.workload_fingerprint(REQ)
        winner = router.rank(fp)[0].name
        shards = []
        for spec in cluster.shards:
            shard = FakeShard(
                spec.socket, spec.name,
                behavior=behavior if spec.name == winner else "ok")
            shard.start()
            shards.append(shard)
        try:
            resp = router.dispatch(dict(REQ))
            assert resp["status"] == behavior
            assert resp["route"] == {"shard": winner, "attempts": 1,
                                     "failovers": 0, "hedged": False}
            assert sum(s.served for s in shards) == 0
        finally:
            for s in shards:
                s.shutdown()

    def test_budget_spent_in_the_router_is_not_forwarded(self):
        """The budget is deducted at every (re)dispatch: a failover
        whose budget ran out while the first shard held the request is
        answered ``deadline_exceeded`` by the router, and the next
        shard is never sent it (a daemon would refuse a non-positive
        ``deadline_ms`` as ``error``, and that would fail over)."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        router = Router(cluster)
        fp = Router.workload_fingerprint(REQ)
        winner = router.rank(fp)[0].name
        shards = {spec.name: FakeShard(
            spec.socket, spec.name,
            behavior="busy" if spec.name == winner else "ok",
            delay=0.5 if spec.name == winner else 0.0)
            for spec in cluster.shards}
        for shard in shards.values():
            shard.start()
        try:
            resp = router.dispatch(dict(REQ), deadline_ms=200.0)
            assert resp["status"] == "deadline_exceeded"
            assert resp["error"]["reason"] == "expired_in_router"
            assert resp["route"]["failovers"] == 1
            assert shards[winner].received == 1
            assert all(s.received == 0 for name, s in shards.items()
                       if name != winner)
        finally:
            for s in shards.values():
                s.shutdown()

    def test_every_shard_ejected_still_reaches_a_live_one(self):
        """A stale ejection beats refusing the request: with every
        shard ejected, the router still tries them in rank order."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = start_shards(cluster)
        router = Router(cluster)
        for state in router.shards:
            state.healthy = False
            state.ejected_until = time.monotonic() + 60.0
        try:
            resp = router.dispatch(dict(REQ))
            assert resp["status"] == "ok"
            assert resp["route"]["failovers"] == 0
        finally:
            for s in shards:
                s.shutdown()

    def test_hedge_reaches_a_shard_readmitted_mid_request(self):
        """The router re-ranks at each hedge decision: a shard that
        was ejected when the request arrived, and readmitted while the
        request waited on a slow primary, takes the hedge."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        router = Router(cluster, hedge_floor=0.2, shard_timeout=30.0)
        slow, spare = router.rank(Router.workload_fingerprint(REQ))
        shards = []
        for spec in cluster.shards:
            shard = FakeShard(spec.socket, spec.name,
                              delay=1.5 if spec.name == slow.name
                              else 0.0)
            shard.start()
            shards.append(shard)
        spare.healthy = False
        spare.ejected_until = time.monotonic() + 60.0
        readmit = threading.Timer(0.1, spare.readmit)
        try:
            readmit.start()
            t0 = time.monotonic()
            resp = router.dispatch(dict(REQ))
            elapsed = time.monotonic() - t0
            assert resp["status"] == "ok"
            assert resp["route"]["shard"] == spare.name
            assert resp["route"]["hedged"] is True
            assert elapsed < 1.0      # did not wait out the primary
        finally:
            readmit.cancel()
            for s in shards:
                s.shutdown()

    def test_hedges_past_the_latency_floor_and_fast_shard_wins(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        router = Router(cluster, hedge_floor=0.15, shard_timeout=30.0)
        fp = Router.workload_fingerprint(REQ)
        winner = router.rank(fp)[0].name
        shards = []
        for spec in cluster.shards:
            shard = FakeShard(
                spec.socket, spec.name,
                delay=2.5 if spec.name == winner else 0.0)
            shard.start()
            shards.append(shard)
        try:
            t0 = time.monotonic()
            resp = router.dispatch(dict(REQ))
            elapsed = time.monotonic() - t0
            assert resp["status"] == "ok"
            assert resp["route"]["hedged"] is True
            assert resp["route"]["shard"] != winner
            assert elapsed < 2.0      # did not wait out the slow shard
            counters = router.stats()["router"]
            assert counters["hedges"] == 1
            assert counters["hedge_wins"] == 1
        finally:
            for s in shards:
                s.shutdown()

    def test_all_shards_down_is_a_structured_error(self):
        router = Router(make_cluster(_tmpdir(), 2), fail_threshold=1)
        resp = router.dispatch(dict(REQ))
        assert resp["status"] == "error"
        assert resp["id"] == REQ["id"]
        assert "error" in resp

    def test_draining_shard_is_suspended_not_failed(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = start_shards(cluster)
        router = Router(cluster)
        fp = Router.workload_fingerprint(REQ)
        winner = router.rank(fp)[0].name
        try:
            # mark the winner draining without letting it exit (a real
            # drain with zero in-flight work shuts down immediately)
            next(s for s in shards
                 if s.name == winner)._draining.set()
            # probe sees draining: suspended, zero failures counted
            state = next(s for s in router.shards
                         if s.name == winner)
            router.probe(state)
            assert state.draining
            assert state.consecutive_failures == 0
            resp = router.dispatch(dict(REQ))
            assert resp["status"] == "ok"
            assert resp["route"]["shard"] != winner
            # routed past, never tried: tried, the draining shard
            # answers busy and the request reaches the other shard
            # only on a failover
            assert resp["route"]["attempts"] == 1
            assert resp["route"]["failovers"] == 0
        finally:
            for s in shards:
                s.shutdown()


# ---------------------------------------------------------------------------
# health: ejection and readmission
# ---------------------------------------------------------------------------

class TestHealth:
    def test_consecutive_failures_eject_then_readmit(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 1)
        router = Router(cluster, fail_threshold=3)
        state = router.shards[0]
        for _ in range(3):
            state.ejected_until = 0.0     # probe immediately
            router.probe(state)
        assert not state.healthy
        assert state.ejections == 1
        assert router.stats()["router"]["ejections"] == 1
        # the shard comes back; the next due probe readmits it
        shard = FakeShard(cluster.shards[0].socket, "s0")
        shard.start()
        try:
            state.ejected_until = 0.0
            assert router.probe(state)
            assert state.healthy
            assert router.stats()["router"]["readmissions"] == 1
        finally:
            shard.shutdown()

    def test_ejected_shard_not_probed_before_backoff(self):
        router = Router(make_cluster(_tmpdir(), 1), fail_threshold=1)
        state = router.shards[0]
        router.probe(state)
        assert not state.healthy
        assert state.ejected_until > time.monotonic()
        failures = state.failed
        assert router.probe(state) is False
        assert state.failed == failures   # skipped, not re-failed


# ---------------------------------------------------------------------------
# RouterServer: the farm's front door
# ---------------------------------------------------------------------------

class TestRouterServer:
    def test_serves_compiles_stats_and_ping(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = start_shards(cluster)
        server = RouterServer(os.path.join(tmp, "router.sock"),
                              Router(cluster))
        server.start()
        try:
            resp = single_request(server.socket_path, dict(REQ))
            assert resp["status"] == "ok"
            assert resp["route"]["shard"] in ("s0", "s1")
            ping = single_request(server.socket_path, {"op": "ping"})
            assert ping["role"] == "router"
            assert ping["shards"] == 2
            stats = single_request(server.socket_path,
                                   {"op": "stats"})["stats"]
            assert stats["router"]["requests"] == 1
            assert set(stats["shards"]) == {"s0", "s1"}
            assert stats["server"]["role"] == "router"
        finally:
            server.shutdown()
            for s in shards:
                s.shutdown()

    def test_drain_refuses_new_work_then_exits(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 1)
        shards = start_shards(cluster, delay=0.5)
        server = RouterServer(os.path.join(tmp, "router.sock"),
                              Router(cluster))
        server.start()
        try:
            results = {}

            def slow_request():
                results["resp"] = single_request(
                    server.socket_path, dict(REQ), timeout=30)

            t = threading.Thread(target=slow_request)
            t.start()
            time.sleep(0.15)          # in flight now
            drain = single_request(server.socket_path, {"op": "drain"})
            assert drain["draining"] is True
            assert drain["in_flight"] == 1
            # new work on the draining server is shed with a reason
            shed = single_request(server.socket_path, dict(REQ))
            assert shed["status"] == "busy"
            assert shed["error"]["reason"] == "draining"
            # the in-flight request still completes
            t.join(timeout=10)
            assert results["resp"]["status"] == "ok"
            # and the server exits once drained
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    single_request(server.socket_path, {"op": "ping"},
                                   timeout=0.5, reconnects=0)
                    time.sleep(0.05)
                except (OSError, ConnectionError):
                    break
            else:
                pytest.fail("drained router never exited")
        finally:
            server.shutdown()
            for s in shards:
                s.shutdown()

    @pytest.mark.parametrize("bad", [
        {**REQ, "bogus": 1},
        {**REQ, "sources": []},
        {**REQ, "options": {"cycle_limit": 0}},
    ], ids=["unknown-field", "no-sources", "zero-cycle-limit"])
    def test_malformed_request_is_refused_not_failed_over(self, bad):
        """A client's mistake is answered at the front door with the
        daemon's own refusal: no shard sees it, and it causes no
        failover."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        # shards that refuse every request, as a daemon refuses these
        shards = start_shards(cluster, behavior="error")
        server = RouterServer(os.path.join(tmp, "router.sock"),
                              Router(cluster))
        server.start()
        try:
            with pytest.raises(ProtocolError) as refusal:
                parse_compile(bad)
            resp = single_request(server.socket_path, bad)
            assert resp["status"] == "error"
            assert resp["error"] == {"message": str(refusal.value),
                                     **refusal.value.detail}
            assert "route" not in resp
            counts = server.router.stats()["router"]
            assert counts["failovers"] == 0
            assert counts["exhausted"] == 0
            assert all(s.dispatched == 0 for s in server.router.shards)
        finally:
            server.shutdown()
            for s in shards:
                s.shutdown()


    def test_router_routes_on_the_validated_budget(self):
        """The router routes on the request its front door validated:
        an integer budget reaches the shard as a float less the
        router's own time, and a budget the daemon's schema refuses
        (the string "500") is refused at the router too, naming the
        field, and never reaches a shard."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 1)
        received = []

        class RecordingShard(FakeShard):
            def handle_request(self, raw):
                if raw.get("op") in COMPILE_OPS:
                    received.append(raw)
                return super().handle_request(raw)

        shard = RecordingShard(cluster.shards[0].socket, "s0")
        shard.start()
        server = RouterServer(os.path.join(tmp, "router.sock"),
                              Router(cluster))
        server.start()
        try:
            resp = single_request(server.socket_path,
                                  {**REQ, "deadline_ms": "500"})
            assert resp["status"] == "error"
            assert resp["error"]["where"] == "deadline_ms"
            assert not received
            resp = single_request(server.socket_path,
                                  {**REQ, "deadline_ms": 500})
            assert resp["status"] == "ok"
            budget = received[0]["deadline_ms"]
            assert isinstance(budget, float)
            assert 0 < budget < 500
        finally:
            server.shutdown()
            shard.shutdown()


class TestDrainWait:
    def test_waits_for_the_listener_not_for_a_pong(self, capsys):
        """``repro drain --wait`` reports the daemon gone only once
        nothing listens on its socket: a server too loaded to answer a
        ping within a second is still finishing its in-flight work."""
        sock = os.path.join(_tmpdir(), "slow.sock")

        class SlowPingShard(FakeShard):
            def handle_request(self, raw):
                if raw.get("op") == "ping":
                    time.sleep(1.5)
                return super().handle_request(raw)

        shard = SlowPingShard(sock, "s0", delay=2.0)
        shard.start()
        try:
            work = threading.Thread(target=single_request,
                                    args=(sock, dict(REQ)),
                                    kwargs={"timeout": 30})
            work.start()
            deadline = time.monotonic() + 5
            while shard.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert main(["drain", "--socket", sock, "--wait", "20"]) == 0
            assert shard.served == 1      # finished before the exit
            assert "daemon exited" in capsys.readouterr().err
            work.join(timeout=10)
        finally:
            shard.shutdown()


# ---------------------------------------------------------------------------
# client reconnect
# ---------------------------------------------------------------------------

class TestClientReconnect:
    def test_idempotent_request_survives_a_server_restart(self):
        tmp = _tmpdir()
        sock = os.path.join(tmp, "s.sock")
        shard = FakeShard(sock, "a")
        shard.start()
        client = ServiceClient(sock, timeout=5.0, reconnects=3,
                               jitter_seed=7)
        try:
            assert client.request({"op": "ping"})["pong"]
            # restart the daemon under the connected client
            shard.shutdown()
            shard = FakeShard(sock, "a2")
            shard.start()
            resp = client.request(dict(REQ))
            assert resp["status"] == "ok"      # reconnected + resent
        finally:
            client.close()
            shard.shutdown()

    def test_non_idempotent_ops_fail_fast(self):
        # a server that hangs up without answering: every attempt is a
        # connection, so the connection count is the resend count
        tmp = _tmpdir()
        sock_path = os.path.join(tmp, "s.sock")
        srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        srv.bind(sock_path)
        srv.listen(4)
        hangups = []

        def slam():
            while True:
                try:
                    conn, _ = srv.accept()
                except OSError:
                    return
                hangups.append(1)
                conn.close()

        threading.Thread(target=slam, daemon=True).start()
        client = ServiceClient(sock_path, timeout=5.0, reconnects=3,
                               backoff_base=0.01)
        try:
            with pytest.raises((OSError, ConnectionError)):
                client.request({"op": "shutdown"})
            assert len(hangups) == 1   # shutdown is never resent
        finally:
            client.close()
            srv.close()

    def test_reconnect_gives_up_after_the_budget(self):
        client = ServiceClient("/tmp/repro-no-such.sock",
                               reconnects=2, backoff_base=0.01)
        t0 = time.monotonic()
        with pytest.raises((OSError, ConnectionError)):
            client.request({"op": "ping"})
        assert time.monotonic() - t0 < 2.0    # bounded, not forever

    def test_jitter_rng_is_made_on_the_first_backoff(self, monkeypatch):
        """A client that never backs off seeds no RNG (an unseeded one
        reads ``os.urandom``); a seed still fixes the jitter."""
        seeds = []
        real = random.Random

        def counting(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(random, "Random", counting)
        ServiceClient("/tmp/repro-no-such.sock")
        assert seeds == []
        a, b = (ServiceClient("/tmp/repro-no-such.sock", jitter_seed=7)
                for _ in range(2))
        assert [a._backoff(i) for i in range(4)] \
            == [b._backoff(i) for i in range(4)]
        assert seeds == [7, 7]


# ---------------------------------------------------------------------------
# connection reuse: pooled shard connections and the inline primary
# ---------------------------------------------------------------------------

def _wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _route_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.startswith("route-") and t.is_alive()]


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started in this process from now on."""
    names: list[str] = []
    real = threading.Thread.start

    def start(self):
        names.append(self.name)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


@pytest.fixture
def backoffs(monkeypatch):
    """Every reconnect backoff a ServiceClient sleeps from now on."""
    slept: list[float] = []
    real = ServiceClient._backoff

    def backoff(self, attempt):
        slept.append(real(self, attempt))
        return slept[-1]

    monkeypatch.setattr(ServiceClient, "_backoff", backoff)
    return slept


class TestConnectionReuse:
    def test_dispatches_reuse_one_connection_per_shard(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = start_shards(cluster)
        router = Router(cluster)
        try:
            for i in range(6):
                resp = router.dispatch({**REQ, "id": i})
                assert resp["status"] == "ok"
            winner = next(s for s in shards
                          if s.name == resp["route"]["shard"])
            assert winner.served == 6
            assert winner.connection_stats()["accepted"] == 1
        finally:
            router.close()
            for s in shards:
                s.shutdown()

    def test_answer_inside_the_hedge_window_starts_no_thread(
            self, thread_starts):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = start_shards(cluster)
        router = Router(cluster)
        try:
            router.dispatch(dict(REQ))     # opens the pooled connection
            thread_starts.clear()
            accepted = sum(s.connection_stats()["accepted"]
                           for s in shards)
            for i in range(4):
                resp = router.dispatch({**REQ, "id": i})
                assert resp["route"] == {
                    "shard": resp["route"]["shard"], "attempts": 1,
                    "failovers": 0, "hedged": False}
            assert thread_starts == []
            assert sum(s.connection_stats()["accepted"]
                       for s in shards) == accepted
        finally:
            router.close()
            for s in shards:
                s.shutdown()

    def test_restarted_shard_is_reached_again_at_once(self, backoffs):
        """A pooled connection to a shard that restarted on the same
        socket fails before its reply's first byte: the router
        connects afresh and resends at once, so the request stays on
        its shard, in one attempt, with no backoff sleep."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        shards = {s.name: s for s in start_shards(cluster)}
        router = Router(cluster)
        try:
            first = router.dispatch(dict(REQ))
            name = first["route"]["shard"]
            shards[name].shutdown()
            shards[name] = FakeShard(shards[name].socket_path, name)
            shards[name].start()
            resp = router.dispatch(dict(REQ))
            assert resp["status"] == "ok"
            assert resp["route"] == {"shard": name, "attempts": 1,
                                     "failovers": 0, "hedged": False}
            assert backoffs == []
            assert router.stats()["router"]["failovers"] == 0
        finally:
            router.close()
            for s in shards.values():
                s.shutdown()

    def test_slow_primary_reply_is_read_without_a_resend(self):
        """Past the hedge window a thread takes over the primary's
        in-flight read: the slow shard gets the request once, and its
        connection goes back to the pool when the reply lands."""
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 2)
        router = Router(cluster, hedge_floor=0.15, shard_timeout=30.0)
        slow_name = router.rank(Router.workload_fingerprint(REQ))[0].name
        shards = {spec.name: FakeShard(
            spec.socket, spec.name,
            delay=0.6 if spec.name == slow_name else 0.0)
            for spec in cluster.shards}
        for shard in shards.values():
            shard.start()
        slow = shards[slow_name]
        try:
            resp = router.dispatch(dict(REQ))
            assert resp["route"]["hedged"] is True
            assert resp["route"]["shard"] != slow_name
            assert _wait_for(lambda: not _route_threads())
            assert (slow.received, slow.served) == (1, 1)
            slow.delay = 0.0
            again = router.dispatch(dict(REQ))
            assert again["route"]["shard"] == slow_name
            assert slow.connection_stats()["accepted"] == 1
        finally:
            router.close()
            for s in shards.values():
                s.shutdown()

    def test_router_teardown_closes_its_pooled_connections(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, 1)
        shards = start_shards(cluster)
        front = RouterServer(os.path.join(tmp, "r.sock"), Router(cluster))
        front.start()
        try:
            resp = single_request(front.socket_path, dict(REQ),
                                  timeout=30)
            assert resp["status"] == "ok"
            assert shards[0].connection_stats()["open"] >= 1
            front.shutdown()
            assert _wait_for(
                lambda: shards[0].connection_stats()["open"] == 0)
        finally:
            front.shutdown()
            for s in shards:
                s.shutdown()


class TestFarmRequestPath:
    def test_hit_opens_no_connection_and_starts_no_thread(
            self, monkeypatch, thread_starts):
        """After warm-up, a reply-memo hit through router -> shard ->
        worker -> cache service rides connections and threads that
        already exist: no server in the farm accepts a connection and
        this process (router, shard daemon, cache service) starts no
        thread.  The worker is a forked process; its pooled
        cache-service connection shows in the cache service's
        ``accepted`` count."""
        # the probe loop pings on fresh connections of its own
        monkeypatch.setattr(Router, "start_health_loop",
                            lambda self: None)
        tmp = _tmpdir()
        cache = CacheServer(os.path.join(tmp, "c.sock"),
                            CacheStore(os.path.join(tmp, "cache")))
        cache.start()
        shard = CompileServer(
            os.path.join(tmp, "s0.sock"), Supervisor(SupervisorConfig(
                pool_size=1, cache_dir=f"unix:{cache.socket_path}")))
        shard.start()
        front = RouterServer(os.path.join(tmp, "r.sock"), Router(
            ClusterConfig(shards=[ShardSpec("s0", shard.socket_path)],
                          cache_socket=cache.socket_path)))
        front.start()
        servers = (front, shard, cache)
        client = ServiceClient(front.socket_path, timeout=120,
                               reconnects=0)
        try:
            for _ in range(2):            # cold compile, first hit
                assert client.request(dict(REQ))["status"] == "ok"
            accepted = [s.connection_stats()["accepted"]
                        for s in servers]
            thread_starts.clear()
            for i in range(3):
                resp = client.request({**REQ, "id": i})
                assert resp["status"] == "ok"
                assert resp["diagnostics"][0]["message"] \
                    == "reply restored from summary cache"
            assert thread_starts == []
            assert [s.connection_stats()["accepted"]
                    for s in servers] == accepted == [1, 1, 1]
        finally:
            client.close()
            for server in servers:
                server.shutdown()


# ---------------------------------------------------------------------------
# cache service
# ---------------------------------------------------------------------------

@pytest.fixture
def cache_service():
    tmp = _tmpdir()
    store = CacheStore(os.path.join(tmp, "cache"))
    server = CacheServer(os.path.join(tmp, "c.sock"), store)
    server.start()
    yield server, store
    server.shutdown()


class TestCacheService:
    def test_remote_get_put_round_trip(self, cache_service):
        server, store = cache_service
        rc = RemoteCache(server.socket_path)
        key = SummaryCache.key_for("summary", "unit-a")
        assert rc.load("summary", key) is None
        assert rc.store("summary", key, {"x": 1})
        assert rc.load("summary", key) == {"x": 1}
        assert rc.hits == 1 and rc.misses == 1
        stats = store.stats()
        assert stats["hits"] == 1 and stats["puts"] == 1
        rc.close()

    def test_two_clients_share_one_store(self, cache_service):
        server, _ = cache_service
        a = RemoteCache(server.socket_path)
        b = RemoteCache(server.socket_path)
        key = SummaryCache.key_for("parse", "shared")
        a.store("parse", key, {"warm": True})
        assert b.load("parse", key) == {"warm": True}
        a.close()
        b.close()

    def test_lru_eviction_under_budget(self):
        tmp = _tmpdir()
        store = CacheStore(os.path.join(tmp, "cache"),
                           budget_bytes=parse_budget("4K"))
        server = CacheServer(os.path.join(tmp, "c.sock"), store)
        server.start()
        try:
            rc = RemoteCache(server.socket_path)
            keys = [SummaryCache.key_for("parse", f"u{i}")
                    for i in range(30)]
            for i, key in enumerate(keys):
                assert rc.store("parse", key, {"i": i, "pad": "x" * 200})
            stats = store.stats()
            assert stats["evictions"] > 0
            assert stats["bytes"] <= 4000
            # newest entries survive, oldest were evicted
            assert rc.load("parse", keys[-1]) is not None
            assert rc.load("parse", keys[0]) is None
            rc.close()
        finally:
            server.shutdown()

    def test_gets_refresh_recency(self):
        tmp = _tmpdir()
        store = CacheStore(os.path.join(tmp, "cache"), budget_bytes=3000)
        server = CacheServer(os.path.join(tmp, "c.sock"), store)
        server.start()
        try:
            rc = RemoteCache(server.socket_path)
            hot = SummaryCache.key_for("parse", "hot")
            rc.store("parse", hot, {"hot": True, "pad": "x" * 100})
            for i in range(20):
                rc.store("parse", SummaryCache.key_for("parse", f"u{i}"),
                         {"i": i, "pad": "x" * 100})
                rc.load("parse", hot)     # keep the hot key recent
            assert store.stats()["evictions"] > 0
            assert rc.load("parse", hot) is not None
            rc.close()
        finally:
            server.shutdown()

    def test_corruption_is_quarantined_and_served_as_miss(
            self, cache_service):
        server, store = cache_service
        rc = RemoteCache(server.socket_path)
        key = SummaryCache.key_for("summary", "doomed")
        rc.store("summary", key, {"ok": True})
        path = store.cache._path("summary", key)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3] + b"\x00\x00\x00")   # flip payload
        assert rc.load("summary", key) is None
        assert [e for e in rc.events if e.kind == "corrupt"]
        assert store.stats()["corrupt"] == 1
        assert not path.exists()      # quarantined server-side
        quarantine = store.cache.root / "quarantine"
        assert list(quarantine.glob("*.pkl"))
        rc.close()

    def test_unreachable_service_degrades_to_misses(self):
        rc = RemoteCache("/tmp/repro-no-cache.sock", timeout=0.5,
                         reconnects=0)
        key = SummaryCache.key_for("summary", "x")
        assert rc.load("summary", key) is None
        assert rc.store("summary", key, {"x": 1}) is False
        kinds = {e.kind for e in rc.events}
        assert kinds == {"io-error"}
        rc.close()

    def test_enospc_fault_contains_remote_stores(self, cache_service):
        server, _ = cache_service
        rc = RemoteCache(server.socket_path)
        key = SummaryCache.key_for("summary", "full-disk")
        with inject_cache_fault("enospc", op="store"):
            assert rc.store("summary", key, {"x": 1}) is False
        assert [e for e in rc.events if e.kind == "io-error"]
        assert rc.store("summary", key, {"x": 1})   # disarmed: fine
        rc.close()

    @pytest.mark.parametrize("req", [
        {"op": "cache.get", "category": "../evil", "key": "a" * 8},
        {"op": "cache.get", "category": "parse", "key": "../../etc"},
        {"op": "cache.get", "category": "quarantine", "key": "a" * 8},
        {"op": "cache.put", "category": "parse", "key": "k" * 8,
         "blob": "!!not-base64!!"},
        {"op": "cache.nope"},
    ])
    def test_bad_requests_get_structured_errors(self, cache_service,
                                                req):
        server, _ = cache_service
        resp = single_request(server.socket_path, req)
        assert resp["status"] == "error"

    def test_stats_op_reports_budget_and_counters(self, cache_service):
        server, _ = cache_service
        stats = single_request(server.socket_path,
                               {"op": "stats"})["stats"]
        assert stats["server"]["role"] == "cache"
        assert "hits" in stats["cache"]
        assert "budget_bytes" in stats["cache"]

    def test_index_rebuilds_from_disk_on_restart(self):
        tmp = _tmpdir()
        root = os.path.join(tmp, "cache")
        store = CacheStore(root)
        key = SummaryCache.key_for("parse", "persisted")
        store.put("parse", key, pickle.dumps({"persisted": True}))
        reopened = CacheStore(root)
        assert reopened.stats()["entries"] == 1
        assert reopened.stats()["bytes"] > 0


class TestRemoteCacheConnections:
    def test_handles_share_one_pooled_connection(self, cache_service):
        """Every handle a process opens rides one pooled connection; a
        forked child opens its own instead of writing on the one it
        inherited."""
        server, _ = cache_service
        spec = f"unix:{server.socket_path}"
        key = SummaryCache.key_for("summary", "pooled")
        for _ in range(5):
            handle = open_cache(spec)
            assert handle.load("summary", key) is None
            handle.close()
        assert server.connection_stats()["accepted"] == 1
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                handle = open_cache(spec)
                handle.load("summary", key)
                code = 0 if [e.kind for e in handle.events] == ["miss"] \
                    else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert server.connection_stats()["accepted"] == 2
        handle = open_cache(spec)
        assert handle.load("summary", key) is None
        assert [e.kind for e in handle.events] == ["miss"]
        assert server.connection_stats()["accepted"] == 2

    def test_restarted_service_is_reached_again_at_once(self, backoffs):
        tmp = _tmpdir()
        root = os.path.join(tmp, "cache")
        path = os.path.join(tmp, "c.sock")
        server = CacheServer(path, CacheStore(root))
        server.start()
        key = SummaryCache.key_for("summary", "restart")
        try:
            assert RemoteCache(path).store("summary", key, {"x": 1})
            server.shutdown()
            server = CacheServer(path, CacheStore(root))
            server.start()
            handle = RemoteCache(path)
            assert handle.load("summary", key) == {"x": 1}
            assert backoffs == []
            assert server.connection_stats()["accepted"] == 1
        finally:
            server.shutdown()

    def test_unreachable_service_is_tried_once_per_request(
            self, monkeypatch):
        """A compile against a cache service that is not there spends
        one round of connects, on its first cache op; every later op
        is an ``io-error`` miss at once, and the payload is the
        uncached one."""
        sources = [("a.c", "struct pt { long x; long y; long z; };\n"
                           "struct pt g[64];\n"
                           "int main() { long s = 0; int i;\n"
                           "  for (i = 0; i < 64; i++) s = s + g[i].x;\n"
                           "  printf(\"%ld\\n\", s); return 0; }\n"),
                   ("b.c", "struct pt;\nint helper() { return 1; }\n")]
        req = CompileRequest(op="advise", sources=sources)
        plain = Session().execute(req)
        connects: list[str] = []
        real = ServiceClient.connect

        def connect(self, *args, **kwargs):
            connects.append(self.socket_path)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ServiceClient, "connect", connect)
        missing = os.path.join(_tmpdir(), "gone.sock")
        cached = Session(cache_dir=f"unix:{missing}").execute(req)
        assert 1 <= len(connects) <= RemoteCache(missing).reconnects + 1
        strip = lambda p: {k: v for k, v in p.items() if k != "timings"}
        assert strip(cached.payload) == strip(plain.payload)


class TestParseBudget:
    @pytest.mark.parametrize("spec,expected", [
        (None, None), (0, None), ("0", None), (65536, 65536),
        ("65536", 65536), ("512K", 512_000), ("64M", 64_000_000),
        ("2G", 2_000_000_000), ("1.5M", 1_500_000),
    ])
    def test_accepts(self, spec, expected):
        assert parse_budget(spec) == expected

    @pytest.mark.parametrize("bad", ["lots", "64Q", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_budget(bad)


# ---------------------------------------------------------------------------
# crash-report rotation
# ---------------------------------------------------------------------------

class TestCrashRotation:
    def test_reports_capped_oldest_first_with_counter(self, tmp_path):
        sup = Supervisor(SupervisorConfig(
            crash_dir=str(tmp_path / "crashes"), crash_max=5))
        for i in range(12):
            sup._crash_report(
                op="analyze", tier="full", request_id=i, attempt=1,
                units=["u.c"], last_stage="apply", reason="crash",
                detail=f"synthetic {i}", exitcode=-9)
        reports = sorted((tmp_path / "crashes").glob("crash-*.json"))
        assert len(reports) == 5
        # the survivors are the newest five (seq 0008..0012)
        assert all(int(p.stem.rsplit("-", 1)[1]) >= 8 for p in reports)
        assert sup.metrics.total("service.crash_reports_dropped") == 7
        assert sup.stats()["supervisor"]["crash_reports_dropped"] == 7

    def test_unbounded_when_cap_disabled(self, tmp_path):
        sup = Supervisor(SupervisorConfig(
            crash_dir=str(tmp_path / "crashes"), crash_max=0))
        for i in range(8):
            sup._crash_report(
                op="analyze", tier="full", request_id=i, attempt=1,
                units=[], last_stage="apply", reason="crash",
                detail="", exitcode=None)
        assert len(list((tmp_path / "crashes").glob("*.json"))) == 8
        assert sup.stats()["supervisor"]["crash_reports_dropped"] == 0

    def test_remote_cache_spec_does_not_nest_crash_dir(self):
        sup = Supervisor(SupervisorConfig(
            cache_dir="unix:/tmp/cache.sock"))
        assert not str(sup.config.crash_dir).startswith("unix:")
        assert os.path.isdir(sup.config.crash_dir)


# ---------------------------------------------------------------------------
# orphan reaping: workers must not outlive a SIGKILLed daemon
# ---------------------------------------------------------------------------

def _children_of(pid):
    """Live (non-zombie) direct children of *pid*, via /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may contain spaces — split after the closing paren
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="needs /proc to observe the process tree")
class TestWorkerOrphanReaping:
    def test_workers_of_sigkilled_daemon_exit_on_their_own(self):
        # Forked workers inherit the supervisor's pipe ends, so a
        # SIGKILLed daemon never delivers EOF on the job pipe; the
        # parent-liveness watchdog is what reaps them.  This is the
        # chaos drill's kill step: without the watchdog every -9
        # leaks one orphan per pool worker.
        tmp = _tmpdir()
        sock = os.path.join(tmp, "d.sock")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--pool-size", "2",
             "--crash-dir", os.path.join(tmp, "crashes")],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            assert wait_ready(sock, timeout=60), "daemon not ready"
            workers = _children_of(proc.pid)
            assert len(workers) >= 2, "expected a spawned worker pool"
        finally:
            proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in workers):
                break
            time.sleep(0.1)
        leaked = [pid for pid in workers if _alive(pid)]
        for pid in leaked:              # clean up before failing
            os.kill(pid, 9)
        assert not leaked, f"workers outlived SIGKILLed daemon: {leaked}"


# ---------------------------------------------------------------------------
# rolling restart with a non-empty queue (real subprocess daemons)
# ---------------------------------------------------------------------------

class TestRollingRestartUnderLoad:
    def test_rolling_restart_zero_failed_with_queued_requests(self):
        """`Farm.rolling_restart()` while more requests are in flight
        than the farm has workers — so shard queues are non-empty when
        each drain lands.  Contract: every request is answered, none
        fail; draining shards fail over instead of erroring."""
        tmp = _tmpdir()
        farm = Farm(tmp, daemons=2, pool_size=1)
        farm.start(ready_timeout=120)
        try:
            n = 8
            reqs = [{"id": i, "op": "analyze",
                     "sources": [[f"w{i}.c",
                                  "struct s%d { long a; long b; "
                                  "int c; };\nstruct s%d *v;\n"
                                  "int main() { return %d; }\n"
                                  % (i, i, i)]],
                     "options": {"cache": False}}
                    for i in range(n)]
            responses: dict = {}
            dropped: dict = {}

            def one(req):
                try:
                    responses[req["id"]] = single_request(
                        farm.router_socket, req, timeout=240)
                except Exception as exc:    # noqa: BLE001
                    dropped[req["id"]] = repr(exc)

            threads = [threading.Thread(target=one, args=(r,))
                       for r in reqs]
            for t in threads:
                t.start()
            time.sleep(0.3)                 # batch in flight / queued
            farm.rolling_restart(ready_timeout=120)
            for t in threads:
                t.join(timeout=240)
            assert not dropped, dropped
            assert len(responses) == n
            bad = {i: r["status"] for i, r in responses.items()
                   if r["status"] not in ("ok", "degraded")}
            assert not bad, bad
            restarts = {s: farm.procs[s].restarts
                        for s in ("s0", "s1")}
            assert all(r >= 1 for r in restarts.values()), restarts
        finally:
            farm.stop()


# ---------------------------------------------------------------------------
# tenant quotas: the shards admit, the router routes
# ---------------------------------------------------------------------------

class TestFarmQuota:
    def test_spawned_shards_enforce_the_quota(self):
        """`Farm(tenant_rate=, tenant_burst=)` hands the quota to every
        shard it spawns; the router keeps none.  Each shard answers an
        over-quota tenant ``rejected`` itself, and the router returns
        that verdict with a ``route`` block naming the shard and no
        failover."""
        tmp = _tmpdir()
        farm = Farm(tmp, daemons=2, pool_size=1, tenant_rate=0.01,
                    tenant_burst=1.0)
        farm.start(ready_timeout=120)
        try:
            router = farm.router_server.router
            reqs = [{"op": "analyze", "tenant": "t1",
                     "sources": [[f"q{i}.c", "struct q%d { long a; };\n"
                                  "int main() { return 0; }\n" % i]],
                     "options": {"cache": False}} for i in range(64)]
            for spec in farm.cluster.shards:
                fairness = single_request(spec.socket, {"op": "stats"},
                                          timeout=30)["stats"]["fairness"]
                assert fairness["tenant_rate"] == 0.01
                assert fairness["tenant_burst"] == 1.0
                # a workload this shard wins: its first request spends
                # the shard's one token, so the second is over quota
                req = next(r for r in reqs if router.rank(
                    Router.workload_fingerprint(r))[0].name == spec.name)
                first = single_request(farm.router_socket,
                                       {**req, "id": 1}, timeout=120)
                assert first["status"] == "ok"
                assert first["route"]["shard"] == spec.name
                second = single_request(farm.router_socket,
                                        {**req, "id": 2}, timeout=120)
                assert second["status"] == "rejected"
                assert second["error"]["reason"] == "quota"
                assert second["route"] == {
                    "shard": spec.name, "attempts": 1, "failovers": 0,
                    "hedged": False}
        finally:
            farm.stop()


# ---------------------------------------------------------------------------
# router high availability: active/standby pair, takeover, supervision
# ---------------------------------------------------------------------------

def _ha_pair(tmp, cluster, **kw):
    """An in-process active/standby router pair over `cluster`."""
    kw.setdefault("peer_probe_interval", 0.1)
    kw.setdefault("peer_fail_threshold", 2)
    kw.setdefault("peer_timeout", 0.5)
    r0_sock = os.path.join(tmp, "r0.sock")
    r1_sock = os.path.join(tmp, "r1.sock")
    r0 = RouterServer(r0_sock, Router(cluster), rank=0,
                      peers=[RouterPeer(socket=r1_sock, rank=1)], **kw)
    r1 = RouterServer(r1_sock, Router(cluster), rank=1,
                      peers=[RouterPeer(socket=r0_sock, rank=0)], **kw)
    r0.start()
    r1.start()
    assert wait_ready(r0_sock) and wait_ready(r1_sock)
    return r0, r1, r0_sock, r1_sock


class TestRouterHA:
    def test_lowest_rank_is_active_and_both_serve(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, n=1)
        shards = start_shards(cluster)
        r0, r1, r0_sock, r1_sock = _ha_pair(tmp, cluster)
        try:
            assert single_request(r0_sock, {"op": "ping"})["active"] \
                is True
            assert single_request(r1_sock, {"op": "ping"})["active"] \
                is False
            # standby routers still route — the active flag is
            # preference, not a gate (requests are idempotent)
            for sock in (r0_sock, r1_sock):
                resp = single_request(sock, REQ)
                assert resp["status"] == "ok"
                assert resp["route"]["shard"] == "s0"
        finally:
            r0.shutdown()
            r1.shutdown()
            for s in shards:
                s.shutdown()

    def test_standby_takes_over_within_two_seconds(self):
        tmp = _tmpdir()
        cluster = make_cluster(tmp, n=1)
        shards = start_shards(cluster)
        r0, r1, r0_sock, r1_sock = _ha_pair(tmp, cluster)
        try:
            client = ServiceClient(f"unix:{r0_sock},unix:{r1_sock}",
                                   timeout=30.0)
            assert client.request(REQ)["status"] == "ok"
            assert client.endpoint == r0_sock
            died = time.monotonic()
            r0.shutdown()
            # the same client object keeps working: one reconnect
            # lands on the standby
            resp = client.request(REQ)
            assert resp["status"] == "ok"
            assert client.endpoint == r1_sock
            # the standby notices and promotes itself inside the gate
            while time.monotonic() - died < 2.0:
                if single_request(r1_sock, {"op": "ping"})["active"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("standby never became active within 2 s")
            assert r1.takeovers == 1
            ha = r1.stats()["ha"]
            assert ha["active"] is True and ha["takeovers"] == 1
            client.close()
        finally:
            r1.shutdown()
            for s in shards:
                s.shutdown()

    def test_farm_spawns_supervises_and_respawns_router_pair(self):
        """Real-subprocess HA: `Farm(routers=2)` runs an active +
        standby router pair, a SIGKILLed active costs the client one
        retry, and supervision respawns the corpse like a daemon."""
        tmp = _tmpdir()
        farm = Farm(tmp, daemons=1, pool_size=1, routers=2)
        farm.start(ready_timeout=120)
        try:
            assert farm.router_endpoints \
                == f"unix:{tmp}/r0.sock,unix:{tmp}/r1.sock"
            assert single_request(
                farm.router_sockets[0], {"op": "ping"})["active"]
            client = ServiceClient(farm.router_endpoints,
                                   timeout=120.0)
            req = {"id": 1, "op": "analyze",
                   "sources": [["w.c", "struct s { long a; int b; };"
                                "\nint main() { return 0; }\n"]],
                   "options": {"cache": False}}
            assert client.request(req)["status"] == "ok"
            farm.start_supervision(interval=0.2, ready_timeout=120)
            farm.kill_proc("r0")
            # the surviving standby answers the very next request
            resp = client.request({**req, "id": 2})
            assert resp["status"] == "ok"
            # ...and the supervisor brings r0 back on its socket
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if farm.procs["r0"].restarts >= 1 \
                        and farm.procs["r0"].alive() \
                        and wait_ready(farm.router_sockets[0],
                                       timeout=1.0):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("supervision never respawned r0")
            client.close()
        finally:
            farm.stop()
