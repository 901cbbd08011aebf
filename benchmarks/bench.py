#!/usr/bin/env python
"""Pipeline performance benchmark: front end, summary cache, simulator.

Produces ``BENCH_pipeline.json`` at the repository root with these
measurements:

- ``warm_speedup``  — a cold versus a warm ``analyze`` of a
  parse-heavy multi-TU program through ``Session.execute`` on one
  summary cache.  The first request compiles and fills the cache; the
  best of ``--repeats`` exact repeats is warm, a reply-memo hit
  answered from one ``reply`` entry.  ``--check`` requires warm to
  beat cold.
- ``scheduler`` — the step log of a cold compile with no cache: step
  count, the sum of the steps (``critical_path_ms``) and the wall.
- ``phases`` — per-phase wall time (fe/ipa/be), the hottest guarded
  passes, and the observability cost: best-of-N compile time with
  tracing disabled versus enabled (the disabled path must stay a
  no-op; ``benchmarks/obs_smoke.py`` gates it at < 5%).
- ``memo_hit`` — a reply-memo hit: an exact repeat of an ``analyze``
  of a one-unit synthetic program through ``Session.execute``,
  answered from one ``reply`` cache entry.  It is the cheapest
  request a daemon's worker answers.
- ``overload`` / ``wire`` — the cost of admission control and of the
  hardened wire protocol on the uncontended path: per-request µs for
  one offer/take cycle, and for the bounded line reader plus
  protocol-version check versus a plain unbounded readline.  The
  ``--check`` gates hold each under 2% of the warm request of the
  synthetic program (``pipeline.warm_s``, a reply-memo hit); each
  block also reports its share of the one-unit memo hit
  (``memo_hit_overhead_pct``), which is not gated.
- ``simulator`` — cycles/second executing 181.mcf (train) on the
  simulated machine, plus the cycle count and an output/stats hash so
  any semantic drift in the simulator fast path is caught, not just
  slowdowns.  The committed baseline throughput was measured at the
  growth seed (commit dd3011c) on the same container class.
- ``search`` — the global layout search: greedy vs seeded-SA replay
  cycles per searched type on mcf/art/moldyn (one SA search per
  workload; its stats carry the greedy floor's score), each
  workload's trace length and its op count per searched type once
  ``precompile`` has folded the accesses that cannot miss, and the
  batched cost-oracle economics (ms per candidate, batched vs
  one-at-a-time).  The ``--check`` gates assert SA <= greedy
  everywhere and a >= 3x per-candidate advantage for batched trace
  replay.

Absolute times vary across machines; ``--check`` gates on orderings
and ratios (warm < cold, searched <= greedy, batched oracle >= 3x,
admission and wire overhead < 2%) and exactly on what the simulator
computes for mcf/train: the cycle count, the output/stats hash and
the folded op count of the ``node`` trace.  Run locally with no
arguments to regenerate the JSON, or ``--units N`` to scale the
synthetic program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import CompileRequest, Session  # noqa: E402
from repro.core import Compiler, CompilerOptions, effective_cores  # noqa: E402
from repro.obs import MetricsRegistry, Tracer  # noqa: E402
from repro.runtime import run_program  # noqa: E402
from repro.workloads import ALL_WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: simulator cycles/second at the growth seed (commit dd3011c),
#: measured on the reference container with the same mcf/train run
SEED_SIMULATOR_CYC_PER_SEC = 17.3e6

#: what the simulator computes on mcf/train, gated exactly: its
#: cycles, the hash of its exit code, stdout and cache stats, and the
#: ops of its ``node`` trace left after ``precompile`` folds the
#: accesses that cannot miss
MCF_CYCLES = 15_640_398
MCF_OUTPUT_STATS_HASH = "7eea731a44519fd7"
MCF_NODE_FOLDED_OPS = 365_793


def make_sources(n_units: int = 10, structs_per_unit: int = 140,
                 funcs_per_unit: int = 5) -> list[tuple[str, str]]:
    """A parse-heavy program: many struct definitions per TU, a few
    functions that allocate and touch them (so legality and deadfields
    have real work), one ``main`` in the first unit."""
    sources = []
    for u in range(n_units):
        lines = []
        for s in range(structs_per_unit):
            fields = "".join(
                f" int f{i}; long g{i}; char c{i};" for i in range(4))
            lines.append(f"struct t{u}_{s} {{{fields} "
                         f"struct t{u}_{s} *next; }};")
        for f in range(funcs_per_unit):
            s = f % structs_per_unit
            lines.append(f"""
int use{u}_{f}(int n) {{
  struct t{u}_{s} *p = (struct t{u}_{s}*)malloc(sizeof(struct t{u}_{s}));
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {{
    p->f0 = i; p->g1 = i + 1; acc = acc + p->f0;
  }}
  free(p);
  return acc;
}}""")
        if u == 0:
            lines.append('int main() { printf("%d\\n", use0_0(3)); '
                         'return 0; }')
        sources.append((f"u{u}.c", "\n".join(lines) + "\n"))
    return sources


def _compile_best(sources, repeats: int):
    """(best wall seconds, last CompilationResult) of an uncached
    compile with no transforms, the ``analyze`` tier's."""
    best = []
    result = None
    for _ in range(max(repeats, 1)):
        opts = CompilerOptions(cache_dir=None, transform=False)
        t0 = time.perf_counter()
        result = Compiler(opts).compile_sources(sources)
        best.append(time.perf_counter() - t0)
        assert not result.diagnostics.has_errors, \
            result.diagnostics.render()
    return min(best), result


def _execute_timed(session: Session, request: CompileRequest, *,
                   hit: bool) -> float:
    """Wall seconds of one ``session.execute(request)``, which must
    answer ``ok`` and be a reply-memo hit exactly when ``hit``."""
    t0 = time.perf_counter()
    reply = session.execute(request)
    wall = time.perf_counter() - t0
    assert reply.ok, reply.diagnostics
    assert any(d["phase"] == "reply" for d in reply.diagnostics) == hit
    return wall


def bench_pipeline(n_units: int, repeats: int) -> dict:
    """Cold and warm ``analyze`` of the synthetic program through
    ``Session.execute`` on one cache (the warm one a reply-memo hit),
    and the step log and wall of an uncached compile."""
    sources = make_sources(n_units=n_units)
    cache_root = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        session = Session(cache_dir=str(cache_root))
        request = CompileRequest(op="analyze", sources=sources)
        cold = _execute_timed(session, request, hit=False)
        warm = min(_execute_timed(session, request, hit=True)
                   for _ in range(max(repeats, 1)))
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    uncached, result = _compile_best(sources, repeats)
    pipeline = {
        "units": n_units,
        "cpu_count": os.cpu_count() or 1,
        "effective_cores": effective_cores(),
        "cold_s": round(cold, 5),
        "warm_s": round(warm, 5),
        "warm_speedup": round(cold / warm, 2),
    }
    scheduler = {
        "nodes": result.scheduler.get("nodes"),
        "critical_path_ms": result.scheduler.get("critical_path_ms"),
        "wall_s": round(uncached, 4),
    }
    return pipeline, scheduler


def bench_phases(n_units: int, repeats: int) -> dict:
    """Per-phase wall time from one traced compile of the synthetic
    program, plus the cost of observability itself: best-of-N wall
    time with tracing disabled (the NULL-tracer fast path) versus
    enabled (tracer + metrics + per-pass profiler)."""
    sources = make_sources(n_units=n_units)

    def timed(tracer=None, metrics=None):
        opts = CompilerOptions(cache_dir=None)
        t0 = time.perf_counter()
        result = Compiler(opts, tracer=tracer,
                          metrics=metrics).compile_sources(sources)
        assert not result.diagnostics.has_errors, \
            result.diagnostics.render()
        return time.perf_counter() - t0, result

    n = max(repeats, 1)
    untraced = min(timed()[0] for _ in range(n))
    traced_walls = []
    result = tracer = metrics = None
    for _ in range(n):
        tracer, metrics = Tracer(), MetricsRegistry()
        wall, result = timed(tracer, metrics)
        traced_walls.append(wall)
    traced = min(traced_walls)

    snap = metrics.snapshot()
    pass_hist = {k: v for k, v in snap.items()
                 if k.startswith("pass.wall_ms")}
    hottest = sorted(result.pass_timings.items(),
                     key=lambda kv: -kv[1])[:5]
    return {
        "units": n_units,
        "untraced_s": round(untraced, 4),
        "traced_s": round(traced, 4),
        "tracing_overhead_pct": round(
            100.0 * (traced / untraced - 1.0), 2),
        "phase_wall_ms": {
            p: round(result.timings[p] * 1e3, 3)
            for p in ("fe", "ipa", "be") if p in result.timings},
        "hottest_passes_ms": {
            name: round(t * 1e3, 3) for name, t in hottest},
        "pass_metric_samples": sum(
            v["count"] for v in pass_hist.values()),
        "span_count": len(tracer.finished()),
        "trace_id": tracer.trace_id,
    }


def bench_simulator(repeats: int) -> dict:
    wl = next(w for w in ALL_WORKLOADS if "mcf" in w.name)
    prog = wl.program("train")
    walls = []
    res = None
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        res = run_program(prog)
        walls.append(time.perf_counter() - t0)
    wall = statistics.median(walls)
    digest = hashlib.sha256(repr(
        (res.exit_code, res.stdout,
         sorted((k, str(v)) for k, v in res.cache_stats.items()))
    ).encode()).hexdigest()[:16]
    cyc_per_sec = res.cycles / wall
    return {
        "workload": wl.name,
        "cycles": res.cycles,
        "wall_s": round(wall, 4),
        "cyc_per_sec": round(cyc_per_sec),
        "output_stats_hash": digest,
        "seed_cyc_per_sec": SEED_SIMULATOR_CYC_PER_SEC,
        "speedup_vs_seed": round(cyc_per_sec /
                                 SEED_SIMULATOR_CYC_PER_SEC, 2),
    }


def bench_search(repeats: int) -> dict:
    """Global layout search: greedy vs SA replay cycles on the three
    focus workloads, plus the batched-oracle economics.  One seeded SA
    search per workload: its stats score the greedy floor too.

    The ``--check`` gates assert (a) seeded SA is never worse than the
    greedy floor on mcf/art/moldyn — structural, since greedy is in
    the evaluated set — and (b) batched trace replay costs >= 3x less
    per candidate than the one-at-a-time alternative (apply the
    transform, run the full simulator)."""
    from repro.api import SearchOptions
    from repro.runtime.replay import (
        capture_trace, plan_layout, precompile, replay_batch)
    from repro.transform import apply_decisions
    from repro.transform.search import Layout, search_layouts

    out: dict = {"workloads": {}}
    mcf_ctx = None
    for short in ("mcf", "art", "moldyn"):
        wl = next(w for w in ALL_WORKLOADS if short in w.name)
        res = Compiler(CompilerOptions(transform=False)) \
            .compile_sources(wl.sources("train"))
        trace = capture_trace(res.program)
        entry: dict = {"trace_ops": len(trace), "folded_ops": {},
                       "trace_cycles": trace.cycles, "types": {}}
        sopts = SearchOptions(engine="sa", budget_s=10.0, seed=7)
        _, stats = search_layouts(
            res.program, res.decisions, res.legality, res.profiles,
            sopts, trace)
        for tname in sorted(stats):
            if tname.startswith("_"):
                continue
            s = stats[tname]
            entry["folded_ops"][tname] = len(precompile(trace, tname).ops)
            entry["types"][tname] = {
                "greedy_cycles": s["greedy_cycles"],
                "sa_cycles": s["best_cycles"],
                "sa_evals": s["evals"],
                "sa_s": s["elapsed_s"],
            }
            if short == "mcf" and mcf_ctx is None:
                d = next(x for x in res.decisions
                         if x.type_name == tname)
                mcf_ctx = (res.program, trace, d)
        out["workloads"][wl.name] = entry

    # oracle economics, on mcf's searched type: batched replay cost
    # per candidate vs transforming + fully simulating one candidate
    if mcf_ctx is not None:
        program, trace, decision = mcf_ctx
        compiled = precompile(trace, decision.type_name)
        dead = tuple(decision.dead_fields)
        live = [f.name for f in compiled.fields
                if f.name not in set(dead)]
        # distinct single-group candidates: all rotations of the
        # declaration order (deterministic, no RNG in benchmarks)
        layouts = [Layout((tuple(live[i:] + live[:i]),), False, dead)
                   for i in range(min(len(live), 16))]
        plans = [plan_layout(compiled, l.groups, l.linked, l.dead)
                 for l in layouts]
        batched = None
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            replay_batch(compiled, plans)
            wall = time.perf_counter() - t0
            batched = wall if batched is None else min(batched, wall)
        per_candidate_s = batched / len(plans)

        one_shot = None
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            run_program(apply_decisions(program, [decision]))
            wall = time.perf_counter() - t0
            one_shot = wall if one_shot is None else min(one_shot, wall)
        out["oracle"] = {
            "type": decision.type_name,
            "candidates": len(plans),
            "batched_ms_per_candidate": round(per_candidate_s * 1e3,
                                              3),
            "one_at_a_time_ms": round(one_shot * 1e3, 3),
            "batched_speedup": round(one_shot / per_candidate_s, 2),
        }
    return out


def bench_memo_hit(repeats: int) -> dict:
    """Best wall time of a reply-memo hit: the repeat of an
    ``analyze`` of a one-unit synthetic program, answered from the
    ``reply`` entry its first run stored."""
    sources = make_sources(n_units=1)
    cache_root = Path(tempfile.mkdtemp(prefix="repro-bench-memo-"))
    try:
        session = Session(cache_dir=str(cache_root))
        request = CompileRequest(op="analyze", sources=sources)
        _execute_timed(session, request, hit=False)
        best = min(_execute_timed(session, request, hit=True)
                   for _ in range(10 * max(repeats, 1)))
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return {"units": 1, "best_ms": round(best * 1e3, 3)}


def bench_overload(repeats: int, baseline_request_s: float,
                   memo_hit_s: float) -> dict:
    """Admission-control overhead on the *uncontended* path: one
    tenant, an empty queue, no quotas — the full
    offer/take/note_completed cycle every daemon request now pays,
    measured per request.  The CI gate holds it under 2% of
    ``baseline_request_s``, the warm request of the synthetic program
    (a reply-memo hit); its share of ``memo_hit_s``, the one-unit
    memo hit, is reported."""
    from repro.service.admission import AdmissionController, QueueItem

    n = 5000
    best = None
    for _ in range(max(repeats, 1)):
        ac = AdmissionController(64)
        t0 = time.perf_counter()
        for _ in range(n):
            item = QueueItem(tenant="bench", op="analyze",
                             enqueued_at=time.monotonic())
            decision = ac.offer(item, budget_s=60.0)
            assert decision.admitted
            taken = ac.take(timeout=0)
            ac.note_completed(taken, service_s=0.001)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    per_request_s = best / n
    return {
        "iterations": n,
        "admission_us_per_request": round(per_request_s * 1e6, 2),
        "baseline_request_ms": round(baseline_request_s * 1e3, 3),
        "uncontended_overhead_pct": round(
            100.0 * per_request_s / baseline_request_s, 4),
        "memo_hit_overhead_pct": round(
            100.0 * per_request_s / memo_hit_s, 4),
    }


def bench_wire(repeats: int, baseline_request_s: float,
               memo_hit_s: float) -> dict:
    """Wire-hardening overhead on the *uncontended* path: every
    request line now flows through the bounded line reader and a
    protocol-version check instead of an unbounded ``makefile``
    readline.  Both paths read the same N framed requests off a
    socketpair fed by a writer thread.  The CI gate holds the
    difference, per request, under 2% of ``baseline_request_s``, the
    warm request of the synthetic program (a reply-memo hit); its
    share of ``memo_hit_s``, the one-unit memo hit, is reported."""
    from repro.service.wire import (  # noqa: E402
        DEFAULT_MAX_REQUEST_BYTES, PROTOCOL_VERSION,
        SUPPORTED_PROTOCOL_VERSIONS, BoundedLineReader)

    n = 2000
    line = json.dumps(
        {"id": 1, "op": "analyze", "v": PROTOCOL_VERSION,
         "sources": [["u.c", "int main() { return 0; }"]]}
    ).encode("utf-8") + b"\n"
    payload = line * n

    def feed(sock) -> None:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def run_once(read_all) -> float:
        a, b = socket.socketpair()
        try:
            writer = threading.Thread(target=feed, args=(a,),
                                      daemon=True)
            writer.start()
            t0 = time.perf_counter()
            read_all(b)
            wall = time.perf_counter() - t0
            writer.join()
        finally:
            a.close()
            b.close()
        return wall

    def bounded(sock) -> None:
        # the hardened server path: bounded framing, JSON decode,
        # version pop + membership check
        reader = BoundedLineReader(sock, DEFAULT_MAX_REQUEST_BYTES)
        count = 0
        while True:
            raw, oversized = reader.readline()
            if raw is None:
                break
            assert not oversized
            req = json.loads(raw.decode("utf-8"))
            v = req.pop("v", 1)
            assert not isinstance(v, bool) \
                and v in SUPPORTED_PROTOCOL_VERSIONS
            count += 1
        assert count == n

    def plain(sock) -> None:
        # the pre-hardening path: unbounded buffered readline + decode
        f = sock.makefile("rb")
        count = 0
        for raw in f:
            json.loads(raw.decode("utf-8"))
            count += 1
        f.close()
        assert count == n

    reps = max(repeats, 1)
    best_bounded = min(run_once(bounded) for _ in range(reps))
    best_plain = min(run_once(plain) for _ in range(reps))
    extra_s = max(0.0, (best_bounded - best_plain) / n)
    return {
        "iterations": n,
        "plain_us_per_request": round(best_plain / n * 1e6, 2),
        "bounded_us_per_request": round(best_bounded / n * 1e6, 2),
        "baseline_request_ms": round(baseline_request_s * 1e3, 3),
        "uncontended_overhead_pct": round(
            100.0 * extra_s / baseline_request_s, 4),
        "memo_hit_overhead_pct": round(100.0 * extra_s / memo_hit_s, 4),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--units", type=int, default=10,
                    help="translation units in the synthetic program")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repetitions (best/median taken)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"))
    ap.add_argument("--check", action="store_true",
                    help="fail on ordering regressions (CI gate)")
    args = ap.parse_args(argv)

    pipeline, scheduler = bench_pipeline(args.units, args.repeats)
    phases = bench_phases(args.units, args.repeats)
    simulator = bench_simulator(args.repeats)
    search = bench_search(args.repeats)
    memo_hit = bench_memo_hit(args.repeats)
    memo_hit_s = memo_hit["best_ms"] / 1e3
    overload = bench_overload(args.repeats, pipeline["warm_s"],
                              memo_hit_s)
    wire = bench_wire(args.repeats, pipeline["warm_s"], memo_hit_s)
    report = {
        "benchmark": "pipeline",
        "pipeline": pipeline,
        "scheduler": scheduler,
        "phases": phases,
        "simulator": simulator,
        "search": search,
        "memo_hit": memo_hit,
        "overload": overload,
        "wire": wire,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    if args.check:
        ok = True
        if pipeline["warm_s"] >= pipeline["cold_s"]:
            print("FAIL: warm request (a reply-memo hit) not faster "
                  "than cold", file=sys.stderr)
            ok = False
        if simulator["cycles"] != MCF_CYCLES:
            print(f"FAIL: mcf/train cycle count changed "
                  f"({simulator['cycles']:,} != {MCF_CYCLES:,}): the "
                  f"simulator fast path altered semantics",
                  file=sys.stderr)
            ok = False
        if simulator["output_stats_hash"] != MCF_OUTPUT_STATS_HASH:
            print(f"FAIL: mcf/train output/stats hash changed "
                  f"({simulator['output_stats_hash']} != "
                  f"{MCF_OUTPUT_STATS_HASH}): the simulator's output "
                  f"or cache stats altered", file=sys.stderr)
            ok = False
        folded = search["workloads"].get("181.mcf", {}) \
            .get("folded_ops", {}).get("node")
        if folded != MCF_NODE_FOLDED_OPS:
            print(f"FAIL: mcf/train node trace folds to {folded} ops "
                  f"(!= {MCF_NODE_FOLDED_OPS:,}): precompile's fold "
                  f"rule changed", file=sys.stderr)
            ok = False
        for wname, entry in search["workloads"].items():
            for tname, row in entry["types"].items():
                if row["sa_cycles"] > row["greedy_cycles"]:
                    print(f"FAIL: {wname}/{tname} sa search "
                          f"({row['sa_cycles']:,}) worse than greedy "
                          f"({row['greedy_cycles']:,})", file=sys.stderr)
                    ok = False
        oracle = search.get("oracle")
        if oracle is None:
            print("FAIL: no searchable type found on mcf",
                  file=sys.stderr)
            ok = False
        elif oracle["batched_speedup"] < 3.0:
            print(f"FAIL: batched oracle replay only "
                  f"{oracle['batched_speedup']}x faster per candidate "
                  f"than one-at-a-time simulation (< 3x)",
                  file=sys.stderr)
            ok = False
        if overload["uncontended_overhead_pct"] >= 2.0:
            print(f"FAIL: admission control costs "
                  f"{overload['uncontended_overhead_pct']}% of an "
                  f"uncontended request (>= 2%)", file=sys.stderr)
            ok = False
        if wire["uncontended_overhead_pct"] >= 2.0:
            print(f"FAIL: bounded reader + version check cost "
                  f"{wire['uncontended_overhead_pct']}% of an "
                  f"uncontended request (>= 2%)", file=sys.stderr)
            ok = False
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
