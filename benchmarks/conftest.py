"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper and
prints it; assertions check the *shape* of the results (signs,
orderings, approximate factors), not absolute numbers — the substrate
is a simulator, not the authors' rx2600.

Expensive artifacts (compilations, feedback files, measured runs) are
cached per session so the tables can share them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.core import Compiler, CompilerOptions
from repro.ir import lower_program
from repro.profit import collect_feedback, sample_uninstrumented
from repro.runtime import run_program
from repro.workloads import ALL_WORKLOADS

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text)


class Session:
    """Lazy, memoized access to per-workload artifacts."""

    def __init__(self):
        self._compiled: dict = {}
        self._runs: dict = {}
        self._feedback: dict = {}

    def compiled(self, workload, input_set="ref", scheme="ISPBO",
                 feedback=None):
        key = (workload.name, input_set, scheme)
        if key not in self._compiled:
            options = CompilerOptions(scheme=scheme, feedback=feedback) \
                if feedback is not None or scheme != "ISPBO" \
                else None
            self._compiled[key] = Compiler(options).compile(
                workload.program(input_set))
        return self._compiled[key]

    def run_pair(self, workload, input_set="ref", scheme="ISPBO",
                 feedback=None):
        """(original RunResult, transformed RunResult)."""
        key = (workload.name, input_set, scheme)
        if key not in self._runs:
            res = self.compiled(workload, input_set, scheme, feedback)
            before = run_program(res.program)
            after = run_program(res.transformed)
            assert before.stdout == after.stdout, \
                f"{workload.name}: transformation changed output"
            self._runs[key] = (before, after)
        return self._runs[key]

    def gain_percent(self, workload, input_set="ref", scheme="ISPBO",
                     feedback=None) -> float:
        before, after = self.run_pair(workload, input_set, scheme,
                                      feedback)
        return 100.0 * (before.cycles / after.cycles - 1.0)

    def feedback(self, workload, input_set="train", pmu_period=16):
        key = (workload.name, input_set, pmu_period, "instr")
        if key not in self._feedback:
            self._feedback[key] = collect_feedback(
                workload.program(input_set), pmu_period=pmu_period,
                input_label=input_set)
        return self._feedback[key]

    def feedback_uninstrumented(self, workload, input_set="train",
                                pmu_period=16):
        key = (workload.name, input_set, pmu_period, "plain")
        if key not in self._feedback:
            self._feedback[key] = sample_uninstrumented(
                workload.program(input_set), pmu_period=pmu_period)
        return self._feedback[key]


@pytest.fixture(scope="session")
def session():
    return Session()


@pytest.fixture(scope="session")
def workloads():
    return ALL_WORKLOADS


def once(benchmark, fn):
    """Run a harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


__all__ = ["Session", "once", "save_result", "lower_program"]
