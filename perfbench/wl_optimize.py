"""The ``optimize`` workload: searched layout compare on mcf/art/moldyn.

Each round sends one ``compare`` request per focus program (train
inputs) through ``Session.execute`` with a seeded simulated-annealing
layout search and the summary cache off, so every round does the same
number of oracle evaluations, then the differential verify and the
before/after full simulation.  The replay oracle, search and machine
simulator do the work; the front end is under 1% of it.

The workload runs by hand; ``BENCHMARK.json`` leaves it out because
its timings swing with a shared host's memory contention.  Its layers
stay measured through :func:`traced_round`, which the traced
``compile`` run calls.
"""

from __future__ import annotations

import random
import time

import repro.core.pipeline
import repro.runtime
from repro.api import CompileOptions, CompileRequest, SearchOptions, \
    Session
from repro.core import Compiler, CompilerOptions
from repro.frontend.program import Program
from repro.obs import Tracer
from repro.runtime.replay import capture_trace, plan_layout, precompile, \
    replay_batch

from common import PASS_METRICS, Checks, Outcome, add_into, dump_spans, \
    geomean_gain_pct, has_errors, in_process_setup, median, op_metrics, \
    overhead_pct, peak_rss_mb, probes, rounds, self_times
from programs import focus_set, small_program

#: fixed search effort: every round scores the same number of layouts
SA_BATCH = 2
SA_ITERS = 2
SA_RESTARTS = 0

#: mcf/train cycles on the simulated machine, fixed since the
#: simulator was written; any change is a semantic change
MCF_TRAIN_CYCLES = 15_640_398


def _request(sources, seed: int) -> CompileRequest:
    search = SearchOptions(engine="sa", budget_s=0, seed=seed,
                           sa_batch=SA_BATCH, sa_iters=SA_ITERS,
                           sa_restarts=SA_RESTARTS)
    return CompileRequest(op="compare", sources=sources,
                          options=CompileOptions(search=search,
                                                 cache=False))


def _searched(payload: dict) -> dict:
    return {name: s for name, s in payload.get("search", {}).items()
            if not name.startswith("_")}


def _check_reply(name: str, reply, checks: Checks) -> None:
    cmp_ = reply.payload.get("compare", {})
    checks.require(not cmp_.get("mismatch", True),
                   f"{name}: transformed program output differs")
    for tname, s in _searched(reply.payload).items():
        checks.require(s["best_cycles"] <= s["greedy_cycles"],
                       f"{name}/{tname}: search ({s['best_cycles']}) "
                       f"worse than greedy ({s['greedy_cycles']})")
    if name == "181.mcf":
        checks.require(cmp_.get("before_cycles") == MCF_TRAIN_CYCLES,
                       f"mcf/train ran {cmp_.get('before_cycles')} "
                       f"cycles, not {MCF_TRAIN_CYCLES}")


class _Round:
    """Observations of one traced round."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.traces: list[list[dict]] = []


def _one_round(requests, traced: bool, outcome: Outcome, checks: Checks,
               latencies: dict, replies: dict):
    obs = _Round() if traced else None
    bench = Tracer() if traced else None
    targets = [] if not traced else [
        (repro.core.pipeline, "capture_trace", "replay.capture", None),
        (repro.runtime, "run_program", "runtime.run_program", None)]
    with probes(bench, targets):
        for name, req in requests:
            tracer = Tracer() if traced else None
            t0 = time.perf_counter()
            try:
                reply = Session(tracer=tracer).execute(req)
            except Exception as exc:            # counted, never fatal
                outcome.record(False, f"{name}: {exc!r}")
                continue
            latencies.setdefault(name, []).append(time.perf_counter() - t0)
            ok = reply.ok and not has_errors(reply.diagnostics)
            if not outcome.record(ok, f"{name}: {reply.status}"):
                continue
            _check_reply(name, reply, checks)
            replies[name] = reply.payload
            if traced:
                obs.traces.append(reply.spans)
                add_into(obs.self_s, self_times(reply.spans))
    if traced:
        obs.traces.append([s.to_dict() for s in bench.finished()])
        add_into(obs.self_s, self_times(obs.traces[-1]))
    return obs


def _simulator_probe(mcf_sources) -> tuple[float, int]:
    """mcf/train cycles per second of ``run_program`` (median of 3) —
    the quantity ``BENCH_pipeline.json`` records as ``cyc_per_sec``."""
    program = Program.from_sources(mcf_sources)
    walls, cycles = [], 0
    for _ in range(3):
        t0 = time.perf_counter()
        cycles = repro.runtime.run_program(program).cycles
        walls.append(time.perf_counter() - t0)
    return cycles / median(walls), cycles


def _oracle_probe(mcf_sources, type_name: str) -> float:
    """ms per candidate of one batched ``replay_batch`` over the 16
    rotations of the searched mcf type's live fields — the quantity
    ``BENCH_pipeline.json`` records as ``batched_ms_per_candidate``."""
    res = Compiler(CompilerOptions(transform=False)) \
        .compile_sources(mcf_sources)
    decision = next(d for d in res.decisions if d.type_name == type_name)
    compiled = precompile(capture_trace(res.program), type_name)
    dead = tuple(decision.dead_fields)
    live = [f.name for f in compiled.fields if f.name not in set(dead)]
    # deterministic candidates: rotations of the declaration order
    plans = [plan_layout(compiled, (tuple(live[i:] + live[:i]),), False,
                         dead)
             for i in range(min(len(live), 16))]
    t0 = time.perf_counter()
    replay_batch(compiled, plans)
    return 1e3 * (time.perf_counter() - t0) / len(plans)


def _warm_up(seed: int) -> None:
    """Let lazy imports (simulator, replay, search) settle."""
    Session().execute(_request(small_program(random.Random(seed), "w"),
                               seed))


def run(seed: int, seconds: float, trace: bool) -> dict:
    outcome, checks = Outcome(), Checks()
    programs, setup_s = in_process_setup(focus_set)
    requests = [(name, _request(sources, seed))
                for name, sources in programs]
    _warm_up(seed)

    latencies: dict[str, list[float]] = {}
    replies: dict[str, dict] = {}
    traced_rounds: list[_Round] = []
    walls = {True: [], False: []}
    for traced in rounds(seconds, trace):
        t0 = time.perf_counter()
        obs = _one_round(requests, traced, outcome, checks,
                         {} if traced else latencies, replies)
        walls[traced].append(time.perf_counter() - t0)
        if obs is not None:
            traced_rounds.append(obs)

    if not trace:
        return {"outcome": outcome, "checks": checks, "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            **op_metrics(latencies, [len(requests) / w
                                     for w in walls[False]]),
        }}

    metrics = {metric: median([1e3 * r.self_s.get(span, 0.0)
                               for r in traced_rounds])
               for span, metric in PASS_METRICS.items()}
    metrics.update(_path_metrics(traced_rounds, replies, programs, checks))
    metrics["obs.tracing_overhead_pct"] = overhead_pct(walls[True],
                                                       walls[False])
    dump_spans("optimize", seed,
               [t for r in traced_rounds for t in r.traces])
    return {"outcome": outcome, "checks": checks, "metrics": metrics}


def traced_round(seed: int, outcome: Outcome, checks: Checks) -> dict:
    """One traced round of this workload plus the simulator and oracle
    probes, with every check: the per-layer metrics of the optimize
    path, for another workload's traced run to report."""
    programs = focus_set()
    requests = [(name, _request(sources, seed))
                for name, sources in programs]
    _warm_up(seed)
    replies: dict[str, dict] = {}
    obs = _one_round(requests, True, outcome, checks, {}, replies)
    dump_spans("optimize", seed, obs.traces)
    return _path_metrics([obs], replies, programs, checks)


def _path_metrics(observed, replies, programs, checks: Checks) -> dict:
    """Per-layer metrics of the replay oracle, search, transform and
    simulator, from traced rounds and their replies, plus the two
    probes whose definitions ``BENCH_pipeline.json`` used."""
    def per_round(span: str) -> float:
        return median([1e3 * r.self_s.get(span, 0.0) for r in observed])

    searched = [s for p in replies.values() for s in _searched(p).values()]
    evals = sum(s["evals"] for s in searched)
    memo = sum(s["memo_hits"] for s in searched)
    gaps = []
    for payload in replies.values():
        after = payload["compare"]["after_cycles"]
        gaps += [abs(s["best_cycles"] / after - 1.0)
                 for s in _searched(payload).values()]
    mcf = dict(programs)["181.mcf"]
    cyc_per_s, cycles = _simulator_probe(mcf)
    checks.require(cycles == MCF_TRAIN_CYCLES,
                   f"run_program(mcf/train) ran {cycles} cycles")
    mcf_types = sorted(_searched(replies.get("181.mcf", {})))
    return {
        "transform.apply_ms": per_round("apply"),
        "transform.verify_ms": per_round("verify"),
        "runtime.replay.capture_ms": per_round("replay.capture"),
        "runtime.replay.memo_hit_ratio": memo / (evals + memo)
        if evals + memo else 0.0,
        "transform.search.evals": evals,
        "transform.search.improved_share":
            sum(1 for s in searched if s["improved"]) / len(searched)
            if searched else 0.0,
        "transform.search.vs_greedy_pct": geomean_gain_pct(
            s["greedy_cycles"] / s["best_cycles"] for s in searched),
        "runtime.replay.fidelity_gap_pct":
            100.0 * sum(gaps) / len(gaps) if gaps else 0.0,
        "transform.layout_gain_pct": geomean_gain_pct(
            p["compare"]["before_cycles"] / p["compare"]["after_cycles"]
            for p in replies.values()),
        "runtime.sim_cyc_per_s": cyc_per_s,
        "runtime.sim_cycles": cycles,
        "runtime.replay.ms_per_candidate":
            _oracle_probe(mcf, mcf_types[0]) if mcf_types else 0.0,
    }
