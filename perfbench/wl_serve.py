"""The ``serve`` workload: a closed loop into a compile farm.

``python -m repro farm`` runs as a subprocess: one router, two shard
daemons with one worker each, and the shared cache service.  This
process is the only client: two connections (one per core), each
sending its next request when its reply lands.  About 75% of requests
``analyze`` one of a few small hot programs (cache hits after first
touch); the rest ``advise`` a freshly generated program (a miss that
then writes to the cache).  Wire, router, admission, supervisor,
worker and cache service dominate; the compile share is small.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time

from repro.api import CompileRequest, Session
from repro.service import ServiceClient, single_request, wait_ready

from common import OUT, Checks, Outcome, dump_spans, geomean, median, \
    overhead_pct, peak_rss_mb, quantile, self_times, src_env, \
    strip_timings
from programs import serve_fresh_program, serve_hot_set

DAEMONS = 2
CONNECTIONS = 2
HIT_SHARE = 0.75
#: every Nth reply per connection is re-executed in process and
#: compared with what the farm served
SAMPLE_EVERY = 50
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: in the traced run, tracing toggles on and off in windows this long
TRACE_WINDOW_S = 1.0
#: end-to-end metrics are medians over windows this long, which damps
#: a passing slowdown of the shared host
METRIC_WINDOW_S = 2.0


class Farm:
    """One ``repro farm`` subprocess and its run directory."""

    def __init__(self, k: int):
        self.run_dir = OUT / f"farm-{k}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.router = str(self.run_dir / "router.sock")
        self.proc: subprocess.Popen | None = None

    def start(self) -> bool:
        """Spawn the farm; True once the router answers."""
        with open(self.run_dir / "farm.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "farm",
                 "--dir", str(self.run_dir), "--daemons", str(DAEMONS),
                 "--pool-size", "1"],
                stdout=log, stderr=subprocess.STDOUT, env=src_env())
        return wait_ready(self.router, timeout=READY_TIMEOUT_S,
                          interval=0.02)

    def stats(self) -> dict:
        """Router stats plus each shard daemon's own stats."""
        out = {"router": single_request(self.router, {"op": "stats"},
                                        timeout=30)["stats"]}
        for i in range(DAEMONS):
            sock = str(self.run_dir / f"s{i}.sock")
            out[f"s{i}"] = single_request(sock, {"op": "stats"},
                                          timeout=30)["stats"]
        return out

    def stop(self) -> int:
        """SIGTERM the farm (it drains and reaps its daemons), wait,
        and return how many of its processes outlived that."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        strays = _kill_strays(str(self.run_dir))
        shutil.rmtree(self.run_dir, ignore_errors=True)
        return strays


def _kill_strays(marker: str) -> int:
    """SIGKILL (and count) any process whose command line names
    ``marker`` — a farm process its parent failed to reap."""
    strays = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdline = f.read().decode(errors="replace")
        except OSError:
            continue
        if marker in cmdline and int(pid) != os.getpid():
            strays += 1
            try:
                os.kill(int(pid), signal.SIGKILL)
            except OSError:
                pass
    return strays


class _Loop:
    """The closed loop's shared results."""

    def __init__(self, trace: bool, outcome: Outcome):
        self.trace = trace
        self.t_start = time.perf_counter()
        self.lock = threading.Lock()
        self.outcome = outcome
        #: (seconds since start at reply, traced, rtt, reply elapsed_s)
        self.samples: list[tuple[float, bool, float, float]] = []
        self.spans: list[list[dict]] = []
        self.checked: list[tuple[dict, dict]] = []

    def traced_now(self) -> bool:
        window = int((time.perf_counter() - self.t_start) / TRACE_WINDOW_S)
        return self.trace and window % 2 == 1


def _connection(farm: Farm, loop: _Loop, seed: int, conn: int,
                hot: list, deadline: float) -> None:
    rng = random.Random(f"serve:{seed}:{conn}")
    client = ServiceClient(farm.router, timeout=REQUEST_TIMEOUT_S,
                           reconnects=0)
    n = 0
    try:
        while time.perf_counter() < deadline:
            if rng.random() < HIT_SHARE:
                req = {"op": "analyze", "sources": hot[rng.randrange(
                    len(hot))]}
            else:
                req = {"op": "advise", "sources": serve_fresh_program(
                    rng, conn * 1_000_000 + n)}
            traced = loop.traced_now()
            if traced:
                req["trace"] = True
            n += 1
            t0 = time.perf_counter()
            try:
                resp = client.request(req)
            except Exception as exc:            # counted, never fatal
                client.close()
                with loop.lock:
                    loop.outcome.record(False, f"{req['op']}: {exc!r}")
                continue
            t_done = time.perf_counter()
            rtt = t_done - t0
            ok = resp.get("status") == "ok"
            with loop.lock:
                if not loop.outcome.record(
                        ok, f"{req['op']}: {resp.get('status')} "
                            f"{resp.get('error')}"):
                    continue
                loop.samples.append((t_done - loop.t_start, traced, rtt,
                                     float(resp.get("elapsed_s") or 0.0)))
                if traced:
                    loop.spans.append(resp.get("spans") or [])
                if n % SAMPLE_EVERY == 0:
                    loop.checked.append((req, resp.get("payload") or {}))
    finally:
        client.close()


def _check_samples(loop: _Loop, checks: Checks) -> None:
    """Each sampled reply must equal the same request run in process."""
    for req, payload in loop.checked:
        wire = {k: v for k, v in req.items() if k != "trace"}
        local = Session().execute(CompileRequest.from_dict(wire))
        checks.require(strip_timings(local.payload)
                       == strip_timings(payload),
                       f"served {req['op']} payload differs from "
                       f"Session.execute")


def run(seed: int, seconds: float, trace: bool) -> dict:
    outcome, checks = Outcome(), Checks()
    hot = serve_hot_set(seed)
    setups: list[float] = []
    farm = None
    for k in range(3):
        if farm is not None:
            checks.require(farm.stop() == 0,
                           "farm teardown left processes behind")
        farm = Farm(k)
        t0 = time.perf_counter()
        ready = farm.start()
        setups.append(time.perf_counter() - t0)
        if not ready:
            break
    try:
        if not ready:
            # a farm that never became ready fails every op it owed
            for _ in range(len(hot) + 1):
                outcome.record(False, "farm never became ready")
            return {"outcome": outcome, "checks": checks,
                    "metrics": {}}
        # first touch: the hot set lands in the cache before timing
        for sources in hot:
            try:
                status = single_request(
                    farm.router, {"op": "analyze", "sources": sources},
                    timeout=REQUEST_TIMEOUT_S).get("status")
            except (OSError, ValueError) as exc:
                status = repr(exc)
            outcome.record(status == "ok", f"warm-up: {status}")

        loop = _Loop(trace, outcome)
        deadline = loop.t_start + seconds
        threads = [threading.Thread(target=_connection,
                                    args=(farm, loop, seed, c, hot,
                                          deadline))
                   for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - loop.t_start
        try:
            stats = farm.stats()
        except (OSError, ValueError) as exc:
            checks.require(False, f"stats op failed: {exc!r}")
            stats = {}
    finally:
        checks.require(farm.stop() == 0,
                       "farm teardown left processes behind")
    _check_samples(loop, checks)

    if not trace:
        windows = _windows(loop.samples, wall)
        rtts = [[rtt for _, rtt in w] for w in windows]
        metrics = {
            "setup_s": median(setups),
            "op_geomean_ms": 1e3 * median([geomean(w) for w in rtts]),
            "op_p90_ms": 1e3 * median([quantile(w, 0.9) for w in rtts]),
            # replies per second between a window's first and last reply
            "ops_per_s": median([(len(w) - 1) / (w[-1][0] - w[0][0])
                                 for w in windows if len(w) > 1]),
            # the largest farm process (all reaped by now)
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
    else:
        metrics = _layer_metrics(loop, stats)
        dump_spans("serve", seed, loop.spans)
    return {"outcome": outcome, "checks": checks, "metrics": metrics}


def _windows(samples, wall: float) -> list[list[tuple[float, float]]]:
    """``(reply time, rtt)`` pairs, in reply order, grouped into the
    run's full metric windows (one window when the run is shorter)."""
    full = max(int(wall // METRIC_WINDOW_S), 1)
    windows: list[list[tuple[float, float]]] = [[] for _ in range(full)]
    for t, _, rtt, _ in sorted(samples):
        windows[min(int(t // METRIC_WINDOW_S), full - 1)].append((t, rtt))
    return windows


def _layer_metrics(loop: _Loop, stats: dict) -> dict:
    traced = [(rtt, el) for _, tr, rtt, el in loop.samples if tr]
    untraced = [rtt for _, tr, rtt, _ in loop.samples if not tr]
    per_req = [self_times(spans) for spans in loop.spans]
    compile_ms = [1e3 * (s["end"] - s["start"]) for spans in loop.spans
                  for s in spans if s["name"] == "compile"]
    router = stats.get("router", {})
    cache = router.get("cache", {}).get("cache", {})
    looks = cache.get("hits", 0) + cache.get("misses", 0)
    retries = rejected = 0
    for i in range(DAEMONS):
        daemon = stats.get(f"s{i}", {})
        sup = daemon.get("supervisor", {})
        retries += max(sup.get("attempts", 0) - sup.get("requests", 0), 0)
        for tenant in daemon.get("fairness", {}).get("tenants",
                                                     {}).values():
            rejected += (tenant.get("shed", 0) + tenant.get("rejected", 0)
                         + tenant.get("hopeless", 0))
    counters = router.get("router", {})
    return {
        "service.daemon_ms": 1e3 * median([el for _, el in traced]),
        "service.router_ms": 1e3 * median([rtt - el for rtt, el in traced]),
        "service.queue_wait_ms": 1e3 * median(
            [t.get("queue", 0.0) for t in per_req]),
        "service.worker_ms": 1e3 * median(
            [t.get("job", 0.0) for t in per_req]),
        "service.compile_ms": median(compile_ms),
        "service.cache.hit_ratio": cache.get("hits", 0) / looks
        if looks else 0.0,
        "service.router.failovers": counters.get("failovers", 0),
        "service.router.hedged": counters.get("hedges", 0),
        "service.supervisor.retries": retries,
        "service.admission.rejected": rejected
        + counters.get("rejected", 0),
        "obs.tracing_overhead_pct": overhead_pct(
            [rtt for rtt, _ in traced], untraced),
    }
