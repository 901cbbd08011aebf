"""Request-scoped memory: one compile request's objects are traced once.

``repro.api.execute_tier`` pauses the cyclic collector for a request
and runs one young collection after the request's graph is dropped.
These tests pin the two halves of that contract: the request leaves no
cyclic garbage behind, and the code that runs inside it (the FE/IPA
walkers and the simulator entry points) creates none while the collector is
paused, so the pause does not grow memory.
"""

import gc
import threading
from dataclasses import replace

import pytest

from repro.analysis.deadfields import summarize_unit_usage
from repro.api import (
    CompileOptions, CompileRequest, Session, execute_tier,
)
from repro.core import FatalCompilerError, inject_fault
from repro.frontend import ast
from repro.frontend.program import Program
from repro.ir.cfg import lower_program
from repro.ir.loops import find_loops
from repro.obs.observers import PASS_EVENTS
from repro.profit.affinity import field_refs_in_expr
from repro.runtime import Memory, capture_trace, try_run_program
from repro.transform.peeling import check_peelable
from repro.workloads import get_workload


@pytest.fixture
def collector_off():
    """Run the body with the cyclic collector disabled, starting from
    a clean heap; restore it afterwards."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def gc_runs():
    """Record the generation of every collection that starts."""
    runs: list[int] = []

    def note(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.callbacks.append(note)
    try:
        yield runs
    finally:
        gc.callbacks.remove(note)


def _advise(name: str, input_set: str = "ref") -> CompileRequest:
    return CompileRequest(op="advise",
                          sources=get_workload(name).sources(input_set))


class _CollectorProbe:
    """A pass-event subscriber noting whether the collector was
    enabled when each compile step began."""

    def __init__(self):
        self.enabled: list[bool] = []

    def __call__(self, ev):
        if ev.kind == "enter":
            self.enabled.append(gc.isenabled())


@pytest.mark.parametrize("name", ["181.mcf", "povray"])
def test_request_leaves_no_cyclic_garbage(name):
    """The request's AST, CFGs and summaries are cyclic (blocks and
    edges point at each other); the request frees them itself."""
    request = _advise(name)
    gc.collect()
    Session().execute(request)
    assert gc.collect() == 0


def test_walkers_build_no_reference_cycles(collector_off):
    """Recursive closures leave a function <-> cell cycle per call; the
    FE/IPA walkers must not."""
    program = Program.from_sources(get_workload("181.mcf").sources("ref"))
    cfgs = lower_program(program)
    gc.collect()
    kept = []
    for fn in program.functions():
        for e in ast.function_exprs(fn):
            kept.append(field_refs_in_expr(e))
    kept.extend(find_loops(cfg) for cfg in cfgs.values())
    for rec in program.record_types():
        for g in program.globals():
            kept.append(check_peelable(program, rec, g.name))
    kept.extend(summarize_unit_usage(u) for u in program.units)
    assert kept
    assert gc.collect() == 0


def _live_memories() -> int:
    return sum(isinstance(o, Memory) for o in gc.get_objects())


@pytest.mark.parametrize("simulate", [
    lambda p: try_run_program(p),
    lambda p: try_run_program(p, cycle_limit=10_000),
    lambda p: capture_trace(p),
], ids=["run", "run-past-limit", "trace"])
def test_finished_run_releases_its_memory_image(simulate, collector_off):
    """A finished run must not keep its memory image alive through the
    machine <-> compiled-code cycle until the next collection."""
    program = Program.from_sources(get_workload("181.mcf").sources("train"))
    before = _live_memories()
    simulate(program)
    assert _live_memories() == before


def test_execute_tier_pauses_and_restores_the_collector(gc_runs):
    probe = _CollectorProbe()
    with PASS_EVENTS.subscribed(probe):
        Session().execute(_advise("181.mcf"))
    assert probe.enabled and not any(probe.enabled)
    assert gc.isenabled()
    # none while the request ran, then one young collection; no full
    # collection
    assert gc_runs and gc_runs[0] == 0 and 2 not in gc_runs

    # a caller that disabled the collector keeps it disabled, and the
    # request collects nothing
    gc_runs.clear()
    probe.enabled.clear()
    gc.disable()
    try:
        with PASS_EVENTS.subscribed(probe):
            Session().execute(_advise("181.mcf"))
        assert not gc.isenabled()
        assert gc_runs == []
    finally:
        gc.enable()
    assert probe.enabled and not any(probe.enabled)


def test_execute_tier_restores_the_collector_after_a_fault(monkeypatch):
    lower = CompileOptions.compiler_options
    monkeypatch.setattr(
        CompileOptions, "compiler_options",
        lambda self, tier="full", cache_dir=None:
        replace(lower(self, tier, cache_dir), strict=True))
    probe = _CollectorProbe()
    with PASS_EVENTS.subscribed(probe), \
            inject_fault("legality", "raise"), \
            pytest.raises(FatalCompilerError):
        execute_tier("analyze", "advisory",
                     get_workload("181.mcf").sources("train"),
                     CompileOptions())
    assert probe.enabled and not any(probe.enabled)
    assert gc.isenabled()


def test_overlapping_requests_restore_the_collector():
    """Two requests in flight at once on two threads: whichever pauses
    the collector re-enables it, and it ends enabled."""
    both_in_flight = threading.Barrier(2, timeout=60)
    seen: dict[str, bool] = {}

    def meet(ev):
        if ev.kind == "enter" and ev.name == "lower":
            both_in_flight.wait()
            seen[threading.current_thread().name] = gc.isenabled()

    def serve():
        Session().execute(_advise("181.mcf", "train"))

    threads = [threading.Thread(target=serve, name=f"req{i}")
               for i in range(2)]
    with PASS_EVENTS.subscribed(meet):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"req0": False, "req1": False}
    assert gc.isenabled()
