#!/usr/bin/env python
"""Chaos drill for the resilient compile farm.

Starts a real farm — N ``repro serve`` daemon subprocesses behind a
router, all sharing one cache service — then attacks it mid-batch and
asserts the farm contract: **zero failed requests**.

Drills, in order:

1. **Kill failover**: SIGKILL the shard that is serving a workload
   while a batch of that workload is in flight.  Every request must
   still come back ``ok`` (the router fails the in-flight attempts
   over to the surviving shards) and the router must report at least
   one failover.
2. **Gray failure**: SIGSTOP a serving shard so it accepts
   connections but never answers.  The router's hedge must race a
   duplicate on another shard and win without waiting out the full
   shard timeout.
3. **Hot restart**: drain-restart every shard, one at a time, while a
   mixed batch runs.  Draining daemons refuse new work with
   ``reason: "draining"`` busy responses, which the router treats as
   failover — not failure — so the rolling restart completes with
   zero failed requests.
4. **Cache corruption**: flip bytes in every on-disk cache entry, then
   re-run a warm workload.  The cache service must quarantine the
   corrupt entries and serve misses; the compile recomputes and still
   ends ``ok``.
5. **Overload** (``--only overload``): one tenant floods the farm far
   past its queue capacity while a second, polite tenant submits a
   small batch at high priority with an end-to-end ``deadline_ms``,
   plus a few requests whose budget is hopeless by construction.
   The scenario runs :data:`OVERLOAD_ROUNDS` times on one farm.
   Gates: every request gets exactly one structured reply; every
   polite request is served within its deadline; zero
   ``ok``/``degraded`` replies land past their propagated deadline
   (hopeless budgets come back ``deadline_exceeded``, never served
   late); and, over the rounds' pooled latencies, the polite
   tenant's p95 does not exceed the flood's.
6. **Router down** (``--only router-down``): the farm runs an HA
   router pair (``--routers 2``); the *active* router is SIGKILLed
   while a staggered batch flows through a multi-endpoint client.
   Gates: zero failed requests (a dead active costs at most one
   client retry), and the warm standby — whose own health loop has
   kept its shard view current — promotes itself in under 2 seconds.

``--only`` runs a comma-separated subset of drills (``kill``,
``gray``, ``restart``, ``cache``, ``overload``, ``router-down``); the
default is the four classic drills.  Every step runs under its own
wall-clock budget so a wedged farm fails the job quickly.  Exit
status: 0 on success, 1 on any violation.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.service import Farm, single_request, wait_ready  # noqa: E402

SOURCE_TMPL = """
struct rec { long key; long val; long rare; double dead; };
struct rec *tab;
int main() {
    int i; long s = %(salt)d;
    tab = (struct rec*) malloc(200 * sizeof(struct rec));
    for (i = 0; i < 200; i++) { tab[i].key = i; tab[i].val = %(salt)d;
        tab[i].rare = -i; tab[i].dead = 0.5; }
    for (i = 0; i < 200; i++) s += tab[i].key + tab[i].val;
    printf("s=%%ld\\n", s);
    return 0;
}
"""


def workload(salt: int) -> list:
    return [[f"w{salt}.c", SOURCE_TMPL % {"salt": salt}]]


class StepTimer:
    """Per-step wall-clock guard: exceeding it fails the drill."""

    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit_s = limit_s
        self.t0 = time.monotonic()

    def check(self) -> None:
        elapsed = time.monotonic() - self.t0
        if elapsed > self.limit_s:
            raise TimeoutError(
                f"step {self.name!r} exceeded its {self.limit_s:.0f}s "
                f"budget ({elapsed:.1f}s elapsed)")

    def done(self) -> None:
        self.check()
        print(f"  step {self.name!r}: "
              f"{time.monotonic() - self.t0:.1f}s", flush=True)


def fire_batch(router_sock: str, requests: list[dict],
               timeout: float) -> tuple[dict, dict]:
    """Fire requests concurrently; (responses, dropped) by request id."""
    responses: dict = {}
    dropped: dict = {}

    def one(req: dict) -> None:
        try:
            responses[req["id"]] = single_request(
                router_sock, req, timeout=timeout)
        except Exception as exc:
            dropped[req["id"]] = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=one, args=(r,))
               for r in requests]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    return responses, dropped


def gate_batch(name: str, responses: dict, dropped: dict,
               expected: int) -> bool:
    """The farm contract: every request answered, every answer ok."""
    ok = True
    for req_id, msg in sorted(dropped.items()):
        ok = False
        print(f"FAIL [{name}]: request {req_id} dropped: {msg}",
              file=sys.stderr)
    if len(responses) + len(dropped) != expected:
        ok = False
        print(f"FAIL [{name}]: "
              f"{expected - len(responses) - len(dropped)} request(s) "
              f"never completed", file=sys.stderr)
    failed = {i: r.get("status") for i, r in sorted(responses.items())
              if r.get("status") != "ok"}
    for req_id, status in failed.items():
        ok = False
        print(f"FAIL [{name}]: request {req_id} ended "
              f"status={status!r}: "
              f"{responses[req_id].get('error')}", file=sys.stderr)
    routes = [r.get("route", {}) for r in responses.values()]
    shards = sorted({r.get("shard") for r in routes if r.get("shard")})
    print(f"  [{name}] {len(responses)}/{expected} ok, "
          f"served by {shards}, "
          f"failovers={sum(r.get('failovers', 0) for r in routes)}, "
          f"hedged={sum(1 for r in routes if r.get('hedged'))}",
          flush=True)
    return ok


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(
        q / 100.0 * (len(ordered) - 1)))))
    return ordered[idx]


#: overload scenarios per drill: one flood lasts a fraction of a
#: second, so the fairness gate compares p95s pooled over several
OVERLOAD_ROUNDS = 3


def run_overload_drill(farm, router: str, args) -> bool:
    """Drill 5: a flooding tenant vs a polite one with deadlines,
    :data:`OVERLOAD_ROUNDS` times.  Gates 1-3 hold in every round;
    gate 4 compares the p95s of the rounds' pooled latencies."""
    ok = True
    nice_latencies: list = []
    flood_latencies: list = []
    for k in range(OVERLOAD_ROUNDS):
        round_ok, nice, flood = run_overload_round(router, args, k)
        ok &= round_ok
        nice_latencies += nice
        flood_latencies += flood

    # gate 4: fairness — the polite tenant's p95 beats the flood's
    # (the flood queues behind itself, nice interleaves round-robin)
    if nice_latencies and len(flood_latencies) >= args.requests:
        nice_p95 = percentile(nice_latencies, 95)
        flood_p95 = percentile(flood_latencies, 95)
        print(f"  [overload] pooled over {OVERLOAD_ROUNDS} rounds: "
              f"polite p95 {nice_p95:.0f}ms, flood p95 "
              f"{flood_p95:.0f}ms", flush=True)
        if nice_p95 > flood_p95:
            ok = False
            print(f"FAIL [overload]: polite tenant p95 "
                  f"{nice_p95:.0f}ms exceeds flooding tenant p95 "
                  f"{flood_p95:.0f}ms — fair queueing is not "
                  f"protecting the polite tenant", file=sys.stderr)
    # a printout, not a gate: tenancy lives in the shards, and their
    # shed count shows whether the flood overloaded them at all
    flood_shed = 0
    for spec in farm.cluster.shards:
        try:
            tenants = single_request(spec.socket, {"op": "stats"},
                                     timeout=30)["stats"]["fairness"][
                                         "tenants"]
        except Exception as exc:
            print(f"  [overload] shard {spec.name} stats unavailable: "
                  f"{type(exc).__name__}: {exc}", flush=True)
            continue
        flood_shed += tenants.get("floody", {}).get("shed", 0)
        print(f"  [overload] shard {spec.name} fairness: {tenants}",
              flush=True)
    print(f"  [overload] flood requests shed or displaced by the "
          f"shards: {flood_shed}", flush=True)
    return ok


def run_overload_round(router: str, args, k: int
                       ) -> tuple[bool, list, list]:
    """One overload scenario: ``floody`` fires 5x the farm's batch
    size with no deadline; ``nice`` concurrently sends a small
    high-priority batch with a real ``deadline_ms`` plus a few
    requests whose 1 ms budget is hopeless by construction.  Returns
    whether gates 1-3 held, and the served polite and flood
    latencies in ms."""
    ok = True
    step = StepTimer(f"overload[{k}]", args.step_timeout * 2)
    nice_deadline_ms = min(30_000.0, args.step_timeout * 1000.0)
    flood = [{"id": f"r{k}f{i}", "op": "analyze",
              "sources": [[f"flood{i}.c",
                           SOURCE_TMPL % {"salt": 1000 + i}]],
              "options": {"cache": False}, "tenant": "floody"}
             for i in range(args.requests * 5)]
    nice = [{"id": f"r{k}n{i}", "op": "analyze",
             "sources": [[f"nice{i}.c",
                          SOURCE_TMPL % {"salt": 2000 + i}]],
             "options": {"cache": False}, "tenant": "nice",
             "priority": "high", "deadline_ms": nice_deadline_ms}
            for i in range(args.requests)]
    hopeless = [{"id": f"r{k}h{i}", "op": "analyze",
                 "sources": [[f"hope{i}.c",
                              SOURCE_TMPL % {"salt": 3000 + i}]],
                 "options": {"cache": False}, "tenant": "nice",
                 "deadline_ms": 1.0}
                for i in range(4)]
    reqs = flood + nice + hopeless
    responses: dict = {}
    elapsed_ms: dict = {}
    dropped: dict = {}

    def one(req: dict) -> None:
        t0 = time.monotonic()
        try:
            responses[req["id"]] = single_request(
                router, req, timeout=args.step_timeout * 2)
            elapsed_ms[req["id"]] = \
                (time.monotonic() - t0) * 1000.0
        except Exception as exc:
            dropped[req["id"]] = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=one, args=(r,))
               for r in reqs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=args.step_timeout * 2)

    # gate 1: every request got exactly one structured reply
    for req_id, msg in sorted(dropped.items()):
        ok = False
        print(f"FAIL [overload]: request {req_id} dropped: {msg}",
              file=sys.stderr)
    if len(responses) + len(dropped) != len(reqs):
        ok = False
        print(f"FAIL [overload]: "
              f"{len(reqs) - len(responses) - len(dropped)} "
              f"request(s) never completed", file=sys.stderr)
    for req_id, resp in sorted(responses.items()):
        if not isinstance(resp.get("status"), str):
            ok = False
            print(f"FAIL [overload]: request {req_id} reply has no "
                  f"status: {resp}", file=sys.stderr)

    # gate 2: the polite tenant's deadline batch is served in full,
    # inside its deadline
    nice_latencies = []
    for req in nice:
        resp = responses.get(req["id"])
        if resp is None:
            continue              # already failed gate 1
        if resp.get("status") not in ("ok", "degraded"):
            ok = False
            print(f"FAIL [overload]: nice request {req['id']} ended "
                  f"{resp.get('status')!r}: {resp.get('error')}",
                  file=sys.stderr)
            continue
        nice_latencies.append(elapsed_ms[req["id"]])

    # gate 3: zero served replies past their propagated deadline —
    # a reply that would land late must be deadline_exceeded instead
    for req in nice + hopeless:
        resp = responses.get(req["id"])
        if resp is None:
            continue
        late = elapsed_ms[req["id"]] > req["deadline_ms"]
        if resp.get("status") in ("ok", "degraded") and late:
            ok = False
            print(f"FAIL [overload]: request {req['id']} served "
                  f"{elapsed_ms[req['id']]:.0f}ms into a "
                  f"{req['deadline_ms']:.0f}ms deadline",
                  file=sys.stderr)
    hopeless_statuses = {r["id"]: responses.get(r["id"], {})
                         .get("status") for r in hopeless}
    if any(s in ("ok", "degraded")
           for s in hopeless_statuses.values()):
        ok = False
        print(f"FAIL [overload]: hopeless 1ms-budget requests were "
              f"served instead of refused: {hopeless_statuses}",
              file=sys.stderr)

    flood_latencies = [elapsed_ms[r["id"]] for r in flood
                       if responses.get(r["id"], {}).get("status")
                       in ("ok", "degraded")
                       and r["id"] in elapsed_ms]
    nice_p95 = percentile(nice_latencies, 95) if nice_latencies \
        else float("nan")
    flood_p95 = percentile(flood_latencies, 95) if flood_latencies \
        else float("nan")
    print(f"  [overload {k}] flood served {len(flood_latencies)}/"
          f"{len(flood)} (p95 {flood_p95:.0f}ms), "
          f"nice served {len(nice_latencies)}/{len(nice)} "
          f"(p95 {nice_p95:.0f}ms), hopeless "
          f"{sorted(hopeless_statuses.values())}", flush=True)
    step.done()
    return ok, nice_latencies, flood_latencies


TAKEOVER_GATE_S = 2.0


def run_router_down_drill(farm, args) -> bool:
    """Drill 6: SIGKILL the active router while a batch is in flight.

    Clients speak to the HA pair through a multi-endpoint spec
    (``unix:r0,unix:r1``), so a dead active costs at most one client
    retry.  The warm standby must notice the silence on its peer
    probes and promote itself within ``TAKEOVER_GATE_S`` seconds; its
    own health loop has been probing the shards all along."""
    ok = True
    step = StepTimer("router-down", args.step_timeout * 2)
    endpoints = farm.router_endpoints

    # learn which router is active and who stands by
    active_name = None
    standby_socks: list[str] = []
    for i, sock in enumerate(farm.router_sockets):
        try:
            ping = single_request(sock, {"op": "ping"},
                                  timeout=10, reconnects=0)
        except Exception:
            continue
        if ping.get("active") and active_name is None:
            active_name = f"r{i}"
        else:
            standby_socks.append(sock)
    if active_name is None or not standby_socks:
        print(f"FAIL [router-down]: need an active router and a "
              f"warm standby (active={active_name!r}, "
              f"standbys={len(standby_socks)})", file=sys.stderr)
        return False
    print(f"  [router-down] active router {active_name!r}, "
          f"{len(standby_socks)} standby(s), "
          f"client endpoints {endpoints}", flush=True)

    # staggered batch through the multi-endpoint client, so requests
    # are in flight before, during, and after the kill
    reqs = [{"id": f"rd{i}", "op": "analyze",
             "sources": [[f"rd{i}.c",
                          SOURCE_TMPL % {"salt": 4000 + i}]],
             "options": {"cache": False}}
            for i in range(args.requests)]
    responses: dict = {}
    dropped: dict = {}

    def one(req: dict, delay: float) -> None:
        time.sleep(delay)
        try:
            responses[req["id"]] = single_request(
                endpoints, req, timeout=args.step_timeout * 2)
        except Exception as exc:
            dropped[req["id"]] = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=one, args=(r, 0.08 * i))
               for i, r in enumerate(reqs)]
    for t in threads:
        t.start()
    time.sleep(0.2)
    t_kill = time.monotonic()
    farm.kill_proc(active_name, sig=signal.SIGKILL)

    # takeover gate: a standby must declare itself active in < 2s
    takeover_s = None
    while time.monotonic() - t_kill < args.step_timeout:
        for sock in standby_socks:
            try:
                p = single_request(sock, {"op": "ping"},
                                   timeout=5, reconnects=0)
            except Exception:
                continue
            if p.get("active"):
                takeover_s = time.monotonic() - t_kill
                break
        if takeover_s is not None:
            break
        time.sleep(0.02)
    if takeover_s is None:
        ok = False
        print("FAIL [router-down]: no standby ever took over",
              file=sys.stderr)
    elif takeover_s > TAKEOVER_GATE_S:
        ok = False
        print(f"FAIL [router-down]: takeover took {takeover_s:.2f}s "
              f"(gate {TAKEOVER_GATE_S:.0f}s)", file=sys.stderr)
    else:
        print(f"  [router-down] standby took over in "
              f"{takeover_s:.2f}s", flush=True)

    for t in threads:
        t.join(timeout=args.step_timeout * 2)
    ok &= gate_batch("router-down", responses, dropped, len(reqs))

    # the promoted standby's HA stats must record the takeover
    takeovers = 0
    for sock in standby_socks:
        try:
            stats = single_request(sock, {"op": "stats"},
                                   timeout=30, reconnects=0)["stats"]
        except Exception:
            continue
        takeovers += stats.get("ha", {}).get("takeovers", 0)
    if takeovers < 1:
        ok = False
        print("FAIL [router-down]: no standby counted a takeover",
              file=sys.stderr)

    # bring the dead router back (supervision stays off during the
    # measurement so a fast respawn cannot mask a slow takeover)
    farm.restart_proc(active_name, ready_timeout=args.step_timeout)
    step.done()
    return ok


DRILLS = ("kill", "gray", "restart", "cache", "overload",
          "router-down")
CLASSIC = ("kill", "gray", "restart", "cache")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--daemons", type=int, default=3)
    ap.add_argument("--requests", type=int, default=8,
                    help="concurrent requests per drill batch")
    ap.add_argument("--pool-size", type=int, default=1)
    ap.add_argument("--cache-budget", default="64M")
    ap.add_argument("--routers", type=int, default=1,
                    help="router processes (>=2 runs an HA pair; "
                         "forced to 2 when router-down is drilled)")
    ap.add_argument("--step-timeout", type=float, default=120.0,
                    help="wall-clock budget per drill step, seconds")
    ap.add_argument("--only", default=None, metavar="DRILLS",
                    help="comma-separated subset of drills to run: "
                         + ", ".join(DRILLS)
                         + " (default: the four classic drills)")
    args = ap.parse_args(argv)
    if args.only is None:
        drills = set(CLASSIC)
    else:
        drills = {d.strip() for d in args.only.split(",") if d.strip()}
        unknown = drills - set(DRILLS)
        if unknown:
            ap.error(f"unknown drill(s): {', '.join(sorted(unknown))}")
    routers = args.routers
    if "router-down" in drills and routers < 2:
        routers = 2

    run_dir = tempfile.mkdtemp(prefix="repro-chaos-", dir="/tmp")
    print(f"farm chaos: {args.daemons} daemons, {routers} router(s), "
          f"{args.requests} requests per batch, run dir {run_dir}",
          flush=True)
    farm = Farm(run_dir, daemons=args.daemons,
                pool_size=args.pool_size,
                cache_budget=args.cache_budget,
                routers=routers)
    router = farm.router_endpoints
    ok = True
    try:
        step = StepTimer("startup", args.step_timeout)
        farm.start(ready_timeout=args.step_timeout)
        step.done()

        # warm one workload and learn which shard serves it
        step = StepTimer("warmup", args.step_timeout)
        warm = single_request(router, {
            "id": "warm", "op": "analyze", "sources": workload(0)},
            timeout=args.step_timeout)
        if warm.get("status") != "ok":
            print(f"FAIL: warmup not ok: {warm.get('status')}",
                  file=sys.stderr)
            return 1
        victim = warm["route"]["shard"]
        print(f"  workload 0 is served by shard {victim!r}",
              flush=True)
        step.done()

        # -- drill 1: SIGKILL the serving shard mid-batch ----------------
        # The kill lands *between* two half-batches, not on a timer: a
        # warm cache can answer the whole batch before a timer fires,
        # and then no failover would be needed at all.  The second
        # half still rendezvous-routes to the dead shard, so every one
        # of those requests must fail over.
        if "kill" in drills:
            step = StepTimer("kill-failover", args.step_timeout)
            half = max(1, args.requests // 2)
            reqs = [{"id": i, "op": "analyze", "sources": workload(0)}
                    for i in range(args.requests)]
            responses, dropped = fire_batch(router, reqs[:half],
                                            args.step_timeout)
            ok &= gate_batch("kill-failover/before", responses,
                             dropped, half)
            farm.kill_proc(victim, sig=signal.SIGKILL)
            responses, dropped = fire_batch(router, reqs[half:],
                                            args.step_timeout)
            ok &= gate_batch("kill-failover", responses, dropped,
                             len(reqs) - half)
            stats = single_request(router, {"op": "stats"},
                                   timeout=30)["stats"]
            if stats["router"]["failovers"] < 1:
                ok = False
                print("FAIL [kill-failover]: router reports no "
                      "failovers after its serving shard was killed",
                      file=sys.stderr)
            farm.restart_proc(victim, ready_timeout=args.step_timeout)
            step.done()

        # -- drill 2: gray failure (stopped, not dead) -------------------
        if "gray" in drills:
            step = StepTimer("gray-failure", args.step_timeout)
            probe = single_request(router, {
                "id": "gray", "op": "analyze", "sources": workload(1)},
                timeout=args.step_timeout)
            gray = probe["route"]["shard"]
            pid = farm.procs[gray].proc.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                t0 = time.monotonic()
                resp = single_request(router, {
                    "id": "hedge", "op": "analyze",
                    "sources": workload(1)},
                    timeout=args.step_timeout)
                elapsed = time.monotonic() - t0
            finally:
                os.kill(pid, signal.SIGCONT)
            if resp.get("status") != "ok":
                ok = False
                print(f"FAIL [gray-failure]: request against a "
                      f"stopped shard ended {resp.get('status')!r}",
                      file=sys.stderr)
            if not resp.get("route", {}).get("hedged"):
                ok = False
                print("FAIL [gray-failure]: response was not hedged "
                      f"(route={resp.get('route')})", file=sys.stderr)
            print(f"  [gray-failure] hedged around stopped shard "
                  f"{gray!r} in {elapsed:.1f}s "
                  f"(winner {resp.get('route', {}).get('shard')!r})",
                  flush=True)
            step.done()

        # -- drill 3: rolling drain-restart under load -------------------
        if "restart" in drills:
            step = StepTimer("hot-restart", args.step_timeout * 2)
            reqs = [{"id": 100 + i, "op": "analyze",
                     "sources": workload(i % 4)}
                    for i in range(args.requests)]
            batch: dict = {}

            def run_batch() -> None:
                batch["result"] = fire_batch(router, reqs,
                                             args.step_timeout * 2)

            runner = threading.Thread(target=run_batch)
            runner.start()
            time.sleep(0.3)
            farm.rolling_restart(ready_timeout=args.step_timeout)
            runner.join(timeout=args.step_timeout * 2)
            responses, dropped = batch.get("result", ({}, {}))
            ok &= gate_batch("hot-restart", responses, dropped,
                             len(reqs))
            restarts = {n: p.restarts for n, p in farm.procs.items()
                        if p.kind == "shard"}
            if any(r < 1 for r in restarts.values()):
                ok = False
                print(f"FAIL [hot-restart]: not every shard was "
                      f"restarted: {restarts}", file=sys.stderr)
            step.done()

        # -- drill 4: corrupt the shared cache on disk -------------------
        if "cache" in drills:
            step = StepTimer("cache-corruption", args.step_timeout)
            entries = [p for p in Path(farm.cache_dir).rglob("*.pkl")
                       if "quarantine" not in p.parts]
            for p in entries:
                raw = bytearray(p.read_bytes())
                raw[-1] ^= 0xFF
                p.write_bytes(bytes(raw))
            print(f"  corrupted {len(entries)} cache entr(ies) on "
                  f"disk", flush=True)
            resp = single_request(router, {
                "id": "post-corrupt", "op": "analyze",
                "sources": workload(0)}, timeout=args.step_timeout)
            if resp.get("status") != "ok":
                ok = False
                print(f"FAIL [cache-corruption]: compile against a "
                      f"corrupt cache ended {resp.get('status')!r}",
                      file=sys.stderr)
            stats = single_request(router, {"op": "stats"},
                                   timeout=30)["stats"]
            cache_stats = (stats.get("cache") or {}).get("cache", {})
            if entries and not cache_stats.get("corrupt"):
                ok = False
                print(f"FAIL [cache-corruption]: cache service "
                      f"counted no corruption: {cache_stats}",
                      file=sys.stderr)
            print(f"  [cache-corruption] service stats: "
                  f"hits={cache_stats.get('hits')} "
                  f"misses={cache_stats.get('misses')} "
                  f"corrupt={cache_stats.get('corrupt')} "
                  f"evictions={cache_stats.get('evictions')}",
                  flush=True)
            step.done()

        # -- drill 5: overload with a flooding tenant --------------------
        if "overload" in drills:
            ok &= run_overload_drill(farm, router, args)

        # -- drill 6: kill the active router under load ------------------
        if "router-down" in drills:
            ok &= run_router_down_drill(farm, args)

        # -- post-chaos health -------------------------------------------
        # Recovery is eventual, not instant: a shard ejected during
        # the drills is readmitted by the probe loop on its backoff
        # schedule, so poll until the farm is back to full strength
        # (or the step budget says it never got there).
        step = StepTimer("post-health", args.step_timeout)
        deadline = time.monotonic() + args.step_timeout
        while True:
            ping = single_request(router, {"op": "ping"}, timeout=30)
            if ping.get("pong") and ping.get("shards") == args.daemons:
                break
            if time.monotonic() >= deadline:
                ok = False
                print(f"FAIL: farm unhealthy after chaos: {ping}",
                      file=sys.stderr)
                break
            time.sleep(0.2)
        stats = single_request(router, {"op": "stats"},
                               timeout=30)["stats"]
        print(f"  router counters: {stats['router']}", flush=True)
        step.done()

        print("farm chaos: " + ("OK" if ok else "FAILED"), flush=True)
        return 0 if ok else 1
    finally:
        farm.stop()


if __name__ == "__main__":
    raise SystemExit(main())
