"""The cores a compile could use.

A compile runs one step at a time on the calling thread (see
:mod:`repro.core.pipeline`) and keeps no process pool.
:func:`effective_cores` stays because the daemon's ``stats`` reply and
``benchmarks/bench.py`` report it.
"""

from __future__ import annotations

import os


def effective_cores() -> int:
    """CPUs this process may actually run on.

    ``sched_getaffinity`` respects cgroup/taskset restrictions, so an
    affinity-limited box reports the truth instead of the machine-wide
    core count; platforms without it fall back to ``os.cpu_count``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def shutdown_process_pool() -> None:
    """Does nothing: the compiler keeps no process pool.

    Kept for callers written against the former parse pool
    (``perfbench/wl_compile.py`` calls it after its rounds)."""
