"""Execution substrate: memory, caches, interpreter, profiling."""

from .memory import Memory, MemoryError_, Allocation
from .cache import (
    CacheConfig, CacheLevelConfig, CacheHierarchy,
    ITANIUM2_FULL, ITANIUM2_SCALED,
)
from .machine import (
    Machine, PMU, EdgeProfiler, SiteInfo, FieldSample,
    ExitProgram, StepLimitExceeded,
)
from .codegen import CompiledProgram, CompiledFunction, CompileError
from .run import run_program, try_run_program, RunResult, RunOutcome
from .replay import (
    AccessTrace, CompiledTrace, LayoutPlan,
    capture_trace, precompile, plan_layout, replay_batch,
)

__all__ = [
    "AccessTrace", "CompiledTrace", "LayoutPlan",
    "capture_trace", "precompile", "plan_layout", "replay_batch",
    "Memory", "MemoryError_", "Allocation",
    "CacheConfig", "CacheLevelConfig", "CacheHierarchy",
    "ITANIUM2_FULL", "ITANIUM2_SCALED",
    "Machine", "PMU", "EdgeProfiler", "SiteInfo", "FieldSample",
    "ExitProgram", "StepLimitExceeded",
    "CompiledProgram", "CompiledFunction", "CompileError",
    "run_program", "try_run_program", "RunResult", "RunOutcome",
]
