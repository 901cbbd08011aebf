"""Pipeline driver: the fault-tolerant FE -> IPA -> BE compiler."""

from .diagnostics import (
    Diagnostic, DiagnosticEngine, FatalCompilerError, SourceLoc,
    SEVERITIES, CODE_BUDGET, CODE_CACHE, CODE_CONTAINED, CODE_CORRUPT,
    CODE_MISMATCH, CODE_PARSE, CODE_ROLLBACK, CODE_VERIFY,
    CODE_WORKER, CODE_DEADLINE, CODE_HANG, CODE_DEGRADED, CODE_BREAKER,
)
from .faults import (
    FAULTS, FaultRegistry, FaultSpec, InjectedFault, INJECTABLE_PASSES,
    inject_fault,
    PROC_FAULTS, PROCESS_FAULT_MODES, ProcessFault, ProcessFaultRegistry,
    ProcessFaultSpec,
    CACHE_FAULTS, CACHE_FAULT_MODES, CacheFaultRegistry, CacheFaultSpec,
    inject_cache_fault,
)
from .dag import effective_cores, process_pool, shutdown_process_pool
from .fe import FEReport, UnifyError
from .pipeline import (
    Compiler, CompilerOptions, CompilationResult, PhaseGuard,
    FAULT_REASON, SCHEMES,
)
from .summarycache import (
    CacheEvent, FsckReport, SummaryCache, fingerprint, fsck_cache,
    open_cache,
)

__all__ = [
    "Compiler", "CompilerOptions", "CompilationResult", "PhaseGuard",
    "FAULT_REASON", "SCHEMES",
    "Diagnostic", "DiagnosticEngine", "FatalCompilerError", "SourceLoc",
    "SEVERITIES", "CODE_BUDGET", "CODE_CACHE", "CODE_CONTAINED",
    "CODE_CORRUPT", "CODE_MISMATCH", "CODE_PARSE", "CODE_ROLLBACK",
    "CODE_VERIFY",
    "CODE_WORKER", "CODE_DEADLINE", "CODE_HANG", "CODE_DEGRADED",
    "CODE_BREAKER",
    "FAULTS", "FaultRegistry", "FaultSpec", "InjectedFault",
    "INJECTABLE_PASSES", "inject_fault",
    "PROC_FAULTS", "PROCESS_FAULT_MODES", "ProcessFault",
    "ProcessFaultRegistry", "ProcessFaultSpec",
    "CACHE_FAULTS", "CACHE_FAULT_MODES", "CacheFaultRegistry",
    "CacheFaultSpec", "inject_cache_fault",
    "effective_cores", "process_pool", "shutdown_process_pool",
    "FEReport", "UnifyError",
    "CacheEvent", "FsckReport", "SummaryCache", "fingerprint",
    "fsck_cache", "open_cache",
]
