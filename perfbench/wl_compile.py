"""The ``compile`` workload: cold then warm advise over a program set.

Each round starts from an empty summary cache, advises every program
once (the cold pass: the cache's write path), then advises the same
programs again (the warm pass: its read path).  The front end, IR,
analyses, profitability, heuristics, advisor, pass DAG and summary
cache do the work; the simulator, replay oracle and service do none.
"""

from __future__ import annotations

import resource
import shutil
import time

import repro.advisor
from repro.api import CompileOptions, CompileRequest, Session
from repro.core.dag import shutdown_process_pool
from repro.core.pipeline import Compiler
from repro.frontend.program import Program
from repro.obs import MetricsRegistry, Tracer

from common import OUT, PASS_METRICS, Checks, Outcome, add_into, \
    dump_spans, has_errors, in_process_setup, median, op_metrics, \
    overhead_pct, peak_rss_mb, probes, rounds, self_times, strip_timings
from programs import compile_set
import wl_optimize

#: pass-DAG width: one worker per core of a 2-core host, so the
#: multi-TU programs give the DAG parallel parse and summary work
JOBS = 2


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class _Round:
    """Observations of one traced round."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.dag = {"nodes": 0, "wall_ms": 0.0, "critical_path_ms": 0.0}
        self.node_s = 0.0
        self.cache_hits = 0.0
        self.cache_misses = 0.0
        self.restore_s = 0.0
        self.cache_bytes = 0
        self.traces: list[list[dict]] = []

    def note_scheduler(self, result) -> None:
        sched = result.scheduler
        self.dag["nodes"] += sched.get("nodes", 0)
        self.dag["wall_ms"] += sched.get("wall_ms", 0.0)
        self.dag["critical_path_ms"] += sched.get("critical_path_ms", 0.0)

    def note_reply(self, spans: list[dict], metrics: MetricsRegistry):
        self.traces.append(spans)
        add_into(self.self_s, self_times(spans))
        for s in spans:
            if s["category"] in ("pass", "fe-unit"):
                self.node_s += s["end"] - s["start"]
            if s["name"] == "fe" and s["attrs"].get("restored_from_cache"):
                self.restore_s += s["end"] - s["start"]
        snap = metrics.snapshot()
        self.cache_hits += snap.get("fe.cache.hit", 0.0)
        self.cache_misses += snap.get("fe.cache.miss", 0.0)


def _one_round(requests, traced: bool, outcome: Outcome, checks: Checks,
               latencies: dict):
    """Cold then warm pass with a fresh cache; returns the traced
    round's observations (None untraced) and the two pass walls."""
    cache_dir = OUT / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    obs = _Round() if traced else None
    bench = Tracer() if traced else None
    cold_payloads: dict[str, str] = {}
    walls = {}
    targets = [] if not traced else [
        (repro.advisor, "advisor_report", "advisor.report", None),
        (Compiler, "compile_sources", "compiler.compile_sources",
         obs.note_scheduler)]
    with probes(bench, targets):
        for phase in ("cold", "warm"):
            t_phase = time.perf_counter()
            for name, req in requests:
                tracer = Tracer() if traced else None
                metrics = MetricsRegistry() if traced else None
                session = Session(cache_dir=str(cache_dir), tracer=tracer,
                                  metrics=metrics)
                t0 = time.perf_counter()
                try:
                    reply = session.execute(req)
                except Exception as exc:        # counted, never fatal
                    outcome.record(False, f"{name}: {exc!r}")
                    continue
                latencies.setdefault((name, phase), []).append(
                    time.perf_counter() - t0)
                ok = reply.ok and not has_errors(reply.diagnostics)
                if not outcome.record(ok, f"{name}: {reply.status}"):
                    continue
                payload = strip_timings(reply.payload)
                if phase == "cold":
                    cold_payloads[name] = payload
                else:
                    checks.require(payload == cold_payloads.get(name),
                                   f"{name}: warm payload differs from "
                                   f"cold")
                if traced:
                    obs.note_reply(reply.spans, metrics)
            walls[phase] = time.perf_counter() - t_phase
    if traced:
        obs.cache_bytes = _dir_bytes(cache_dir)
        obs.traces.append([s.to_dict() for s in bench.finished()])
        add_into(obs.self_s, self_times(obs.traces[-1]))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return obs, walls


def _parse_probe(programs) -> tuple[float, int]:
    """Seconds and source bytes of ``Program.from_sources`` over the
    set — the front end timed by its own public entry."""
    t0 = time.perf_counter()
    size = 0
    for _, sources in programs:
        Program.from_sources(sources)
        size += sum(len(text.encode()) for _, text in sources)
    return time.perf_counter() - t0, size


def run(seed: int, seconds: float, trace: bool) -> dict:
    outcome, checks = Outcome(), Checks()
    programs, setup_s = in_process_setup(lambda: compile_set(seed))
    requests = [(name, CompileRequest(
        op="advise", sources=sources, options=CompileOptions(jobs=JOBS)))
        for name, sources in programs]

    # let lazy imports and the DAG's process pool settle before timing
    Session().execute(CompileRequest(op="advise", sources=programs[-1][1],
                                     options=CompileOptions(jobs=JOBS)))

    latencies: dict[tuple[str, str], list[float]] = {}
    traced_rounds: list[_Round] = []
    walls = {True: [], False: []}
    pass_walls = {"cold": [], "warm": []}
    parse = []
    for traced in rounds(seconds, trace):
        t0 = time.perf_counter()
        obs, pw = _one_round(requests, traced, outcome, checks, latencies)
        walls[traced].append(time.perf_counter() - t0)
        if obs is None:
            for phase, w in pw.items():
                pass_walls[phase].append(w)
        else:
            traced_rounds.append(obs)
            parse.append(_parse_probe(programs))

    # the pool's workers exit in the background; the interpreter joins
    # them before it exits
    shutdown_process_pool()
    if not trace:
        metrics = {
            "setup_s": setup_s,
            # this process, or a reaped child (a pool worker or a set-up
            # interpreter) if one grew larger
            "peak_rss_mb": max(peak_rss_mb(),
                               peak_rss_mb(resource.RUSAGE_CHILDREN)),
            **op_metrics(latencies, [2 * len(requests) / w
                                     for w in walls[False]]),
        }
    else:
        metrics = _layer_metrics(traced_rounds, parse, walls, pass_walls)
        dump_spans("compile", seed,
                   [t for r in traced_rounds for t in r.traces])
        # the optimize path's layers (simulator, replay oracle, search,
        # apply and verify), and its checks, ride on this traced run
        metrics.update(wl_optimize.traced_round(seed, outcome, checks))
    return {"outcome": outcome, "checks": checks, "metrics": metrics}


def _layer_metrics(observed, parse, walls, pass_walls) -> dict:
    def per_round(fn) -> float:
        return median([fn(r) for r in observed])

    # apply and verify never run under advise; the optimize path's
    # traced round reports them
    out = {metric: per_round(lambda r, p=span: 1e3 * r.self_s.get(p, 0.0))
           for span, metric in PASS_METRICS.items()
           if span not in ("apply", "verify")}
    parse_s = median([s for s, _ in parse])
    parse_bytes = parse[0][1]
    hits = sum(r.cache_hits for r in observed)
    looks = hits + sum(r.cache_misses for r in observed)
    out.update({
        "frontend.parse_ms": 1e3 * parse_s,
        "frontend.kbytes_per_s": parse_bytes / 1024.0 / parse_s,
        "advisor.report_ms": per_round(
            lambda r: 1e3 * r.self_s.get("advisor.report", 0.0)),
        "core.dag.nodes": per_round(lambda r: r.dag["nodes"]),
        "core.dag.wall_ms": per_round(lambda r: r.dag["wall_ms"]),
        "core.dag.critical_path_ms": per_round(
            lambda r: r.dag["critical_path_ms"]),
        "core.dag.parallelism": per_round(
            lambda r: 1e3 * r.node_s / r.dag["wall_ms"]
            if r.dag["wall_ms"] else 0.0),
        "core.summarycache.hit_ratio": hits / looks if looks else 0.0,
        "core.summarycache.restore_ms": per_round(
            lambda r: 1e3 * r.restore_s),
        "core.summarycache.bytes": per_round(lambda r: r.cache_bytes),
        "api.session.cold_pass_ms": 1e3 * median(pass_walls["cold"]),
        "api.session.warm_pass_ms": 1e3 * median(pass_walls["warm"]),
        "obs.tracing_overhead_pct": overhead_pct(walls[True],
                                                 walls[False]),
    })
    return out
