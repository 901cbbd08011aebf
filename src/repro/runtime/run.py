"""Convenience driver: compile and run a program on a fresh machine."""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheConfig, ITANIUM2_SCALED
from .codegen import CompiledProgram
from .machine import Machine


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    exit_code: int
    cycles: int
    stdout: str
    machine: Machine
    compiled: CompiledProgram

    @property
    def cache_stats(self):
        return self.machine.cache.stats()

    def __repr__(self) -> str:
        return f"<run exit={self.exit_code} cycles={self.cycles}>"


def run_program(program, cache_config: CacheConfig = ITANIUM2_SCALED,
                instrument: bool = False, pmu_period: int = 0,
                cycle_limit: int = 2_000_000_000,
                entry: str = "main") -> RunResult:
    """Compile ``program`` against a fresh :class:`Machine` and run it.

    The result keeps the machine and the compiled program for
    inspection until :meth:`Machine.release`; a run that raises
    releases them itself."""
    machine = Machine(cache_config=cache_config, instrument=instrument,
                      pmu_period=pmu_period, cycle_limit=cycle_limit)
    try:
        compiled = CompiledProgram(program, machine)
        code = compiled.run(entry=entry)
    except BaseException:
        machine.release()
        raise
    return RunResult(exit_code=code, cycles=machine.cycles,
                     stdout=machine.stdout, machine=machine,
                     compiled=compiled)


@dataclass(frozen=True)
class RunOutcome:
    """Observable behaviour of one execution, trap included.

    The differential verifier compares these (:meth:`same_behaviour`:
    two programs are output-equivalent when their stdout and exit code
    match and neither trapped), and the compare reuses the completed
    ones a compile recorded.  ``trap`` holds the exception class name
    when the interpreter faulted (codegen error, invalid free,
    cycle-budget exhaustion, ...) instead of exiting."""

    stdout: str
    exit_code: int
    cycles: int
    trap: str | None = None
    trap_message: str = ""

    @property
    def completed(self) -> bool:
        return self.trap is None

    def same_behaviour(self, other: "RunOutcome") -> bool:
        return (self.trap is None and other.trap is None
                and self.stdout == other.stdout
                and self.exit_code == other.exit_code)


def try_run_program(program, cycle_limit: int = 2_000_000_000,
                    entry: str = "main",
                    cache_config: CacheConfig = ITANIUM2_SCALED
                    ) -> RunOutcome:
    """Run ``program``, converting any interpreter trap into a
    :class:`RunOutcome` instead of an exception."""
    try:
        r = run_program(program, cache_config=cache_config,
                        cycle_limit=cycle_limit, entry=entry)
    except Exception as exc:          # traps become data, never raise
        return RunOutcome(stdout="", exit_code=-1, cycles=0,
                          trap=type(exc).__name__,
                          trap_message=str(exc))
    r.machine.release()
    return RunOutcome(stdout=r.stdout, exit_code=r.exit_code,
                      cycles=r.cycles)
