"""Measurement helpers shared by the benchmark workloads."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: scratch space for caches, farm run directories and span dumps.  The
#: path stays relative to the repository root so unix socket paths
#: under it stay short wherever the checkout lives.
OUT = Path(".perfbench_out")

#: pass span (as the compiler names it) -> per-layer metric of its
#: self time, in ms per round
PASS_METRICS = {
    "lower": "ir.lower_ms", "loops": "ir.loops_ms",
    "callgraph": "ir.callgraph_ms", "legality": "analysis.legality_ms",
    "deadfields": "analysis.deadfields_ms",
    "escape": "analysis.escape_ms", "weights": "profit.weights_ms",
    "profiles": "profit.profiles_ms",
    "heuristics": "transform.heuristics_ms",
    "apply": "transform.apply_ms", "verify": "transform.verify_ms",
}


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def op_metrics(latencies: dict, round_rates: list[float]) -> dict:
    """End-to-end op metrics from ``{op key: [seconds, ...]}``, where a
    key names one op repeated once per round (a program and pass), and
    from each round's ops per second.  Taking each op's median over the
    rounds, and the median round rate, damps a passing slowdown of the
    shared host.  The geometric mean and the 90th percentile are then
    taken across ops: ops differ in size by orders of magnitude, and a
    median across them would jump between programs."""
    per_op = [median(v) for v in latencies.values() if v]
    return {
        "op_geomean_ms": 1e3 * geomean(per_op),
        "op_p90_ms": 1e3 * quantile(per_op, 0.9),
        "ops_per_s": median(round_rates),
    }


def geomean_gain_pct(ratios) -> float:
    """Geometric mean of ``ratios`` minus one, in percent."""
    ratios = list(ratios)
    return 100.0 * (geomean(ratios) - 1.0) if ratios else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set in MiB: of this process, or with
    ``RUSAGE_CHILDREN`` of the largest reaped descendant."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def src_env() -> dict:
    """Environment for a child interpreter that imports ``repro``."""
    path = os.pathsep.join(p for p in (str(Path("src").resolve()),
                                       os.environ.get("PYTHONPATH", ""))
                           if p)
    return {**os.environ, "PYTHONPATH": path}


def in_process_setup(build):
    """Set up an in-process workload three times; returns its inputs
    and the median set-up seconds.  One set-up is a fresh interpreter
    importing the system (the start-up every command-line invocation
    pays) plus ``build()`` making the inputs."""
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import repro.api, repro.workloads"],
                       env=src_env(), check=True, timeout=60)
        inputs = build()
        walls.append(time.perf_counter() - t0)
    return inputs, median(walls)


def rounds(seconds: float, trace: bool):
    """Yield, per round, whether to trace it, until ``seconds`` have
    passed and at least two rounds ran, so every op has a second sample
    even when one round outlasts ``seconds``.  A traced run alternates
    untraced and traced rounds (their difference is the tracing
    overhead).  Garbage is collected between rounds, so peak memory
    does not grow with their number."""
    t_start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - t_start < seconds:
        yield trace and k % 2 == 1
        k += 1
        gc.collect()


class Outcome:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(why)
        return ok


class Checks:
    """Correctness checks; any violation makes the run incorrect."""

    def __init__(self):
        self.violations: list[str] = []

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.violations.append(message)

    @property
    def ok(self) -> bool:
        return not self.violations


def strip_timings(payload: dict) -> str:
    """A reply payload as canonical JSON, minus its wall-clock
    ``timings`` block (the only part that differs run to run)."""
    return json.dumps({k: v for k, v in payload.items() if k != "timings"},
                      sort_keys=True)


def has_errors(diagnostics: list[dict]) -> bool:
    return any(d.get("severity") in ("error", "fatal")
               for d in diagnostics)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def base_name(name: str) -> str:
    """``legality[a.c]`` -> ``legality``: per-unit spans of one pass
    share a layer."""
    return name.split("[", 1)[0]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span base name over one trace: each
    span's duration minus the part of it its children cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.get("parent_id"), []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        if s.get("end") is None:
            continue
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        kids = sorted(((max(c["start"], start), min(c["end"], end))
                       for c in children.get(s["span_id"], ())
                       if c.get("end") is not None),
                      key=lambda iv: iv[0])
        for lo, hi in kids:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        name = base_name(s["name"])
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def add_into(total: dict, part: dict) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0.0) + v


@contextmanager
def probes(tracer, targets):
    """Time every call the program makes into selected public
    functions, as spans in ``tracer``.

    ``targets`` is ``[(owner, attribute, span_name, on_result)]``;
    ``owner`` is the module or class whose attribute the program looks
    up at call time, and ``on_result`` (or None) sees each return
    value.  The originals are restored on exit."""
    saved = []
    for owner, attr, span_name, on_result in targets:
        original = getattr(owner, attr)

        def wrapper(*args, __f=original, __n=span_name, __cb=on_result,
                    **kwargs):
            with tracer.span(__n, category="bench"):
                result = __f(*args, **kwargs)
            if __cb is not None:
                __cb(result)
            return result

        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def dump_spans(workload: str, seed: int, traces: list[list[dict]]) -> Path:
    """Write the run's spans, kept in memory until now, to one file."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.json"
    path.write_text(json.dumps(traces))
    return path


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Tracing overhead: median traced wall over median untraced."""
    if not traced or not untraced or median(untraced) <= 0:
        return 0.0
    return 100.0 * (median(traced) / median(untraced) - 1.0)
