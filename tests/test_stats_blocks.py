"""The ``stats`` blocks of the compile daemon, the farm router and the
cache service: their exact key sets, and integer counts read from each
server's one metrics registry.

``perfbench/wl_serve.py``, ``benchmarks/farm_chaos.py`` and
``benchmarks/service_smoke.py`` read these keys with ``.get(..., 0)``,
so a lost key would read as a silent zero; this test makes it loud.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.service import (
    CacheServer, CacheStore, ClusterConfig, CompileServer, Router,
    RouterServer, ShardSpec, Supervisor, SupervisorConfig,
    single_request, wait_ready,
)

SRC = "struct p { long a; long b; };\nint main() { return 0; }\n"

SERVER_KEYS = {
    "served", "shed", "deadline_refused", "queue_max", "queue_depth",
    "oldest_age_s", "in_flight", "dispatching", "draining", "uptime_s",
    "socket", "effective_cores",
}
CONNECTION_KEYS = {
    "accepted", "evicted_idle", "refused", "oversized", "bad_version",
    "open", "max_connections", "max_request_bytes", "idle_timeout_s",
}
CONNECTION_COUNTS = ("accepted", "evicted_idle", "refused", "oversized",
                     "bad_version")
SUPERVISOR_COUNTS = (
    "requests", "served_ok", "served_degraded", "errors", "busy",
    "attempts", "respawns", "crashes", "deadline_kills", "hang_kills",
    "breaker_skips", "crash_reports_dropped", "deadline_exceeded",
)
SUPERVISOR_KEYS = set(SUPERVISOR_COUNTS) | {
    "pool_size", "idle_workers", "spawns", "crash_dir"}
DAEMON_FAIRNESS_KEYS = {
    "queue_depth", "queue_capacity", "oldest_age_s", "drain_rate_per_s",
    "tenant_rate", "tenant_burst", "service_time_p50_s", "tenants",
}
DAEMON_TENANT_COUNTS = ("admitted", "completed", "shed", "rejected",
                        "hopeless", "deadline_evicted", "queued")
ROUTER_COUNTS = (
    "requests", "completed", "failovers", "hedges", "hedge_wins",
    "no_healthy_shard", "exhausted", "ejections", "readmissions",
    "deadline_refused",
)
ROUTER_SERVER_KEYS = {"role", "in_flight", "queue_depth",
                      "oldest_age_s", "draining", "uptime_s", "socket"}
CACHE_SERVER_KEYS = {"role", "in_flight", "draining", "uptime_s",
                     "socket"}
CACHE_KEYS = {"root", "entries", "bytes", "budget_bytes", "hits",
              "misses", "puts", "evictions", "corrupt"}
CACHE_COUNTS = ("hits", "misses", "puts", "evictions", "corrupt")


def _counts(block: dict, keys) -> dict:
    for key in keys:
        assert type(block[key]) is int, (key, block[key])
    return {key: block[key] for key in keys}


@pytest.fixture(scope="module")
def farm():
    """Cache service, one compile daemon on it, and a router in front,
    all in this process; one analyze went through the router."""
    tmp = tempfile.mkdtemp(prefix="repro-stats-")
    cache_sock = os.path.join(tmp, "c.sock")
    cache = CacheServer(cache_sock, CacheStore(os.path.join(tmp, "cache")))
    cache.start()
    shard_sock = os.path.join(tmp, "s0.sock")
    daemon = CompileServer(shard_sock, Supervisor(SupervisorConfig(
        pool_size=1, cache_dir=f"unix:{cache_sock}",
        crash_dir=os.path.join(tmp, "crashes"))))
    daemon.start()
    cluster = ClusterConfig(shards=[ShardSpec("s0", shard_sock)],
                            cache_socket=cache_sock)
    router = RouterServer(os.path.join(tmp, "r.sock"), Router(cluster))
    router.start()
    try:
        assert wait_ready(shard_sock, timeout=30)
        resp = single_request(router.socket_path, {
            "op": "analyze", "tenant": "t1",
            "sources": [["p.c", SRC]]}, timeout=120)
        assert resp["status"] == "ok"
        yield {
            "router": single_request(router.socket_path,
                                     {"op": "stats"})["stats"],
            "daemon": single_request(shard_sock,
                                     {"op": "stats"})["stats"],
            "cache": single_request(cache_sock,
                                    {"op": "stats"})["stats"],
        }
    finally:
        router.shutdown()
        daemon.shutdown()
        cache.shutdown()


def test_daemon_blocks(farm):
    stats = farm["daemon"]
    assert set(stats) == {"server", "connections", "fairness",
                          "supervisor", "breaker", "metrics", "traces"}
    assert set(stats["server"]) == SERVER_KEYS
    assert _counts(stats["server"], ("served", "shed",
                                     "deadline_refused")) == \
        {"served": 1, "shed": 0, "deadline_refused": 0}
    assert set(stats["connections"]) == CONNECTION_KEYS
    _counts(stats["connections"], CONNECTION_COUNTS)
    assert set(stats["supervisor"]) == SUPERVISOR_KEYS
    sup = _counts(stats["supervisor"], SUPERVISOR_COUNTS)
    assert sup == {**{k: 0 for k in SUPERVISOR_COUNTS},
                   "requests": 1, "served_ok": 1, "attempts": 1}
    assert set(stats["fairness"]) == DAEMON_FAIRNESS_KEYS
    assert _counts(stats["fairness"]["tenants"]["t1"],
                   DAEMON_TENANT_COUNTS) == \
        {**{k: 0 for k in DAEMON_TENANT_COUNTS},
         "admitted": 1, "completed": 1}


def test_router_blocks(farm):
    stats = farm["router"]
    assert set(stats) == {"router", "shards", "metrics",
                          "cache", "server", "connections", "ha"}
    assert set(stats["router"]) == set(ROUTER_COUNTS)
    assert _counts(stats["router"], ROUTER_COUNTS) == \
        {**{k: 0 for k in ROUTER_COUNTS}, "requests": 1,
         "completed": 1}
    assert set(stats["server"]) == ROUTER_SERVER_KEYS
    assert set(stats["connections"]) == CONNECTION_KEYS
    # the router relays the cache service's own stats block
    assert set(stats["cache"]["cache"]) == CACHE_KEYS


def test_cache_service_blocks(farm):
    stats = farm["cache"]
    assert set(stats) == {"server", "connections", "cache", "metrics"}
    assert set(stats["server"]) == CACHE_SERVER_KEYS
    assert set(stats["connections"]) == CONNECTION_KEYS
    assert set(stats["cache"]) == CACHE_KEYS
    counts = _counts(stats["cache"], CACHE_COUNTS)
    # a cold analyze: every lookup missed and every artifact was put
    assert counts["hits"] == 0 and counts["corrupt"] == 0
    assert counts["misses"] >= 1 and counts["puts"] >= 1
    assert stats["connections"]["accepted"] >= 1
