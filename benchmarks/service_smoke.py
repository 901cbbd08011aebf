#!/usr/bin/env python
"""CI smoke drill for the supervised compile service.

Starts a real ``repro serve`` daemon subprocess, then fires concurrent
client requests at it — a fraction of them carrying injected
worker-kill faults (SIGKILL mid-``apply``) — and asserts the service
contract:

1. **No request is dropped**: every request receives exactly one
   structured response (``ok`` / ``degraded`` / ``busy`` / ``error``).
2. Requests poisoned with a one-shot kill still end ``ok`` — the
   supervisor retried them on a fresh, cache-warm worker.
3. The daemon survives the whole drill (it still answers ``ping`` and
   ``stats`` afterwards) and its crash directory holds a report for
   every kill.
4. The supervisor's ``stats`` count exactly one crash and one respawn
   per served kill.

Every phase runs under its own wall-clock timeout so a wedged daemon
fails the job quickly instead of hitting the CI job timeout.

Exit status: 0 on success, 1 on any contract violation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.service import single_request, wait_ready  # noqa: E402

SOURCE = """
struct item { long key; long val; long rare1; long rare2; double dead; };
struct item *tab;
int main() {
    int i; int it; long s = 0;
    tab = (struct item*) malloc(300 * sizeof(struct item));
    for (i = 0; i < 300; i++) { tab[i].key = i; tab[i].val = 2 * i;
        tab[i].rare1 = i; tab[i].rare2 = -i; tab[i].dead = 0.1; }
    for (it = 0; it < 10; it++)
        for (i = 0; i < 300; i++) s += tab[i].key + tab[i].val;
    for (i = 0; i < 300; i++) s += tab[i].rare1 - tab[i].rare2;
    printf("s=%ld\\n", s);
    return 0;
}
"""


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=12,
                    help="total concurrent requests")
    ap.add_argument("--kills", type=int, default=4,
                    help="requests carrying a one-shot worker kill")
    ap.add_argument("--pool-size", type=int, default=2)
    ap.add_argument("--step-timeout", type=float, default=120.0,
                    help="wall-clock budget per drill step, seconds")
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="repro-smoke-")
    sock = os.path.join(tmp, "repro.sock")
    cache_dir = os.path.join(tmp, "cache")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")

    print(f"service smoke: {args.requests} concurrent requests, "
          f"{args.kills} with injected worker kills", flush=True)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--pool-size", str(args.pool_size),
         "--deadline", "90", "--max-retries", "2",
         "--queue-max", str(args.requests),   # drill sheds nothing
         "--cache-dir", cache_dir],
        env=env)
    try:
        step = StepTimer("startup", args.step_timeout)
        if not wait_ready(sock, timeout=args.step_timeout):
            print("FAIL: daemon never became ready", file=sys.stderr)
            return 1
        step.done()

        # warm the summary cache once so the drill measures recovery,
        # not twelve identical cold parses racing each other
        step = StepTimer("warmup", args.step_timeout)
        warm = single_request(sock, {
            "id": "warm", "op": "analyze",
            "sources": [["demo.c", SOURCE]]}, timeout=args.step_timeout)
        if warm.get("status") != "ok":
            print(f"FAIL: warmup request not ok: {warm.get('status')}",
                  file=sys.stderr)
            return 1
        step.done()

        step = StepTimer("concurrent-drill", args.step_timeout)
        responses: dict[int, dict] = {}
        errors: dict[int, str] = {}

        def fire(i: int) -> None:
            req = {"id": i, "op": "transform",
                   "sources": [["demo.c", SOURCE]]}
            if i < args.kills:
                req["faults"] = [{"stage": "apply", "mode": "kill",
                                  "times": 1}]
            try:
                responses[i] = single_request(
                    sock, req, timeout=args.step_timeout)
            except Exception as exc:           # a DROPPED request
                errors[i] = f"{type(exc).__name__}: {exc}"

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(args.requests)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=args.step_timeout)
            step.check()
        step.done()

        ok = True
        # 1. no request dropped: one structured response each
        if errors:
            ok = False
            for i, msg in sorted(errors.items()):
                print(f"FAIL: request {i} dropped: {msg}",
                      file=sys.stderr)
        if len(responses) + len(errors) != args.requests:
            ok = False
            print(f"FAIL: {args.requests - len(responses) - len(errors)}"
                  f" request(s) never completed", file=sys.stderr)
        statuses = {}
        for i, resp in sorted(responses.items()):
            status = resp.get("status")
            statuses[status] = statuses.get(status, 0) + 1
            if status not in ("ok", "degraded", "busy", "error"):
                ok = False
                print(f"FAIL: request {i} got unstructured response: "
                      f"{resp}", file=sys.stderr)
        print(f"  statuses: {statuses}", flush=True)

        # 2. killed requests recovered to a full result
        for i in range(min(args.kills, args.requests)):
            resp = responses.get(i)
            if resp is None:
                continue                       # already reported
            if resp.get("status") != "ok" or resp.get("tier") != "full":
                ok = False
                print(f"FAIL: killed request {i} not recovered: "
                      f"status={resp.get('status')} "
                      f"tier={resp.get('tier')}", file=sys.stderr)
            elif resp.get("respawns", 0) < 1 and \
                    resp.get("attempts", 0) < 2:
                ok = False
                print(f"FAIL: killed request {i} shows no retry "
                      f"({resp.get('attempts')} attempts)",
                      file=sys.stderr)

        # 3. the daemon survived and reports the carnage
        step = StepTimer("post-drill-health", args.step_timeout)
        ping = single_request(sock, {"op": "ping"}, timeout=30)
        if not ping.get("pong"):
            ok = False
            print("FAIL: daemon does not answer ping after the drill",
                  file=sys.stderr)
        stats = single_request(sock, {"op": "stats"},
                               timeout=30).get("stats", {})
        sup = stats.get("supervisor", {})
        print(f"  supervisor stats: requests={sup.get('requests')} "
              f"ok={sup.get('served_ok')} crashes={sup.get('crashes')} "
              f"respawns={sup.get('respawns')}", flush=True)
        crash_dir = sup.get("crash_dir", "")
        reports = list(Path(crash_dir).glob("crash-*.json")) \
            if crash_dir else []
        kills_served = sum(
            1 for i in range(args.kills) if i in responses)
        # 4. one crash and one respawn per served kill, no more
        for key in ("crashes", "respawns"):
            if sup.get(key) != kills_served:
                ok = False
                print(f"FAIL: {kills_served} kill(s) served but the "
                      f"supervisor counts {key}={sup.get(key)}",
                      file=sys.stderr)
        if len(reports) < kills_served:
            ok = False
            print(f"FAIL: {kills_served} kills but only "
                  f"{len(reports)} crash reports", file=sys.stderr)
        elif reports:
            sample = json.loads(reports[0].read_text())
            print(f"  crash report sample: reason={sample['reason']} "
                  f"last_pass={sample['last_pass']}", flush=True)
        step.done()

        print("service smoke: " + ("OK" if ok else "FAILED"),
              flush=True)
        return 0 if ok else 1
    finally:
        daemon.terminate()
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()


if __name__ == "__main__":
    raise SystemExit(main())
