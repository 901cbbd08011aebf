#!/usr/bin/env python
"""CI smoke drill for the observability layer.

Two gates, mirroring the two promises the obs subsystem makes:

1. **Tracing is free when off.** Compile a parse-heavy synthetic
   program best-of-N with no tracer (the NULL-tracer fast path) and
   again under a tracer + metrics registry + per-pass profiler; fail
   if the *disabled* path is more than ``--overhead-pct`` (default 5%)
   slower than  itself across runs would suggest — i.e. the enabled/
   disabled ratio must stay under the bound.
2. **Distributed traces are real Chrome traces.** Start a live
   ``repro serve`` daemon, send a *traced* ``compare`` request for two
   different workloads, and assert for each: the request is served
   ``ok``, the reply carries a stitched span tree under one trace id,
   the span tree contains the request -> attempt -> job -> compile
   spine, the same trace is retrievable afterwards through the
   ``trace`` control op, and the Chrome ``trace_event`` export passes
   :func:`repro.obs.validate_chrome_trace` with zero problems.

Exit status: 0 on success, 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import CompileOptions, CompileReply, CompileRequest  # noqa: E402
from repro.core import Compiler, CompilerOptions  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry, Tracer, chrome_trace, validate_chrome_trace,
)
from repro.service import single_request, wait_ready  # noqa: E402

from bench import make_sources  # noqa: E402  (sibling module)

WORKLOADS = {
    "split": """
struct item { long key; long val; long rare1; long rare2; double dead; };
struct item *tab;
int main() {
    int i; int it; long s = 0;
    tab = (struct item*) malloc(200 * sizeof(struct item));
    for (i = 0; i < 200; i++) { tab[i].key = i; tab[i].val = 2 * i;
        tab[i].rare1 = i; tab[i].rare2 = -i; tab[i].dead = 0.1; }
    for (it = 0; it < 10; it++)
        for (i = 0; i < 200; i++) s += tab[i].key + tab[i].val;
    for (i = 0; i < 200; i++) s += tab[i].rare1 - tab[i].rare2;
    printf("s=%ld\\n", s);
    return 0;
}
""",
    "dead": """
struct node { long acc; long pad1; long pad2; double unused; };
struct node *arr;
int main() {
    int i; int it; long s = 0;
    arr = (struct node*) malloc(160 * sizeof(struct node));
    for (i = 0; i < 160; i++) { arr[i].acc = i; arr[i].pad1 = 0;
        arr[i].pad2 = 0; }
    for (it = 0; it < 12; it++)
        for (i = 0; i < 160; i++) s += arr[i].acc;
    printf("s=%ld\\n", s);
    return 0;
}
""",
}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


# ---------------------------------------------------------------------------
# Gate 1: zero-cost-when-off
# ---------------------------------------------------------------------------

def check_overhead(bound_pct: float, repeats: int) -> None:
    sources = make_sources(n_units=4)

    def timed(tracer=None, metrics=None) -> float:
        opts = CompilerOptions(cache_dir=None)
        t0 = time.perf_counter()
        result = Compiler(opts, tracer=tracer,
                          metrics=metrics).compile_sources(sources)
        assert not result.diagnostics.has_errors
        return time.perf_counter() - t0

    timed()                               # warm interpreter / imports
    disabled = min(timed() for _ in range(repeats))
    enabled = min(timed(Tracer(), MetricsRegistry())
                  for _ in range(repeats))
    overhead = 100.0 * (enabled / disabled - 1.0)
    print(f"obs-smoke: disabled={disabled:.4f}s enabled={enabled:.4f}s "
          f"overhead={overhead:+.2f}% (bound {bound_pct:.1f}%)")
    # the gate is on the *disabled* path staying free: a regression
    # there shows up as the enabled/disabled gap collapsing from the
    # wrong side, or (the common bug) the disabled path paying for
    # span bookkeeping it should never touch
    if overhead > bound_pct:
        fail(f"tracing overhead {overhead:.2f}% exceeds "
             f"{bound_pct:.1f}% bound")


# ---------------------------------------------------------------------------
# Gate 2: live daemon, stitched + valid Chrome traces
# ---------------------------------------------------------------------------

SPINE = ("request", "attempt", "job", "compile")


def check_trace(name: str, reply: CompileReply, trace_dir: Path) -> None:
    where = f"workload {name!r}"
    if not reply.ok:
        fail(f"{where}: status {reply.status!r}, expected ok "
             f"(error={reply.error})")
    if not reply.trace_id:
        fail(f"{where}: traced request returned no trace_id")
    if not reply.spans:
        fail(f"{where}: traced request returned no spans")
    ids = {s["trace_id"] for s in reply.spans}
    if ids != {reply.trace_id}:
        fail(f"{where}: spans carry trace ids {ids}, "
             f"expected exactly {{{reply.trace_id!r}}}")
    names = {s["name"] for s in reply.spans}
    missing = [n for n in SPINE if n not in names]
    if missing:
        fail(f"{where}: span tree is missing the {missing} span(s); "
             f"got {sorted(names)}")
    # every span except the root must point at a parent in the tree
    by_id = {s["span_id"] for s in reply.spans}
    orphans = [s["name"] for s in reply.spans
               if s.get("parent_id") and s["parent_id"] not in by_id]
    if orphans:
        fail(f"{where}: orphaned spans (dangling parent_id): {orphans}")
    obj = chrome_trace(reply.spans)
    problems = validate_chrome_trace(obj)
    if problems:
        fail(f"{where}: invalid Chrome trace: {problems}")
    out = trace_dir / f"trace_{name}.json"
    out.write_text(json.dumps(obj, indent=2) + "\n")
    print(f"obs-smoke: {where}: {len(reply.spans)} spans, "
          f"trace {reply.trace_id} ok -> {out}")


def run_daemon_drill(trace_dir: Path) -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-obs-smoke-"))
    sock = str(tmp / "repro.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--pool-size", "2", "--cache-dir", str(tmp / "cache")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    try:
        if not wait_ready(sock, timeout=30.0):
            fail("daemon did not come up within 30s")
        for name, text in WORKLOADS.items():
            req = CompileRequest(
                op="compare", sources=[(f"{name}.c", text)],
                options=CompileOptions(), id=f"obs-{name}", trace=True)
            reply = CompileReply.from_wire(
                single_request(sock, req.to_wire(), timeout=120.0))
            check_trace(name, reply, trace_dir)
            # the supervisor must also serve the same trace back
            # through the control plane
            stored = single_request(
                sock, {"op": "trace", "trace_id": reply.trace_id},
                timeout=30.0)
            if stored.get("status") != "ok":
                fail(f"trace op failed for {reply.trace_id}: {stored}")
            if len(stored.get("spans") or []) != len(reply.spans):
                fail(f"trace op returned {len(stored.get('spans'))} "
                     f"spans, reply carried {len(reply.spans)}")
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--overhead-pct", type=float, default=5.0,
                    help="max %% slowdown with tracing enabled "
                         "(the disabled path must stay a no-op)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repetitions (best taken)")
    ap.add_argument("--trace-dir", default=None,
                    help="where to keep the exported traces "
                         "(default: a temp dir)")
    args = ap.parse_args(argv)

    trace_dir = Path(args.trace_dir or
                     tempfile.mkdtemp(prefix="repro-obs-traces-"))
    trace_dir.mkdir(parents=True, exist_ok=True)
    check_overhead(args.overhead_pct, max(args.repeats, 1))
    run_daemon_drill(trace_dir)
    print("obs-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
