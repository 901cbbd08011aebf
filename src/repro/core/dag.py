"""Where a compile may use more than one core: the shared parse pool.

The compile itself runs one step at a time on the calling thread (see
:mod:`repro.core.pipeline`).  The one place it uses more than one core
is the ``fe.parse`` step, which submits every unit's parse to the
shared fork-server process pool below; ``--jobs`` is the pool's
width, clamped to the unit count and to :func:`effective_cores`.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from typing import Any


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


# Real multi-core parse speedup needs processes (threads share one
# interpreter lock), and forking a fresh pool per compile costs more
# than a small parse.  One module-level fork pool is shared by every
# compile in the process; it grows on demand, resets after fork (a
# forked service worker must never reuse its parent's pool handles),
# and its children watch their parent so a SIGKILLed owner cannot
# orphan them (the service workers' parent watchdog).

_pool_lock = threading.Lock()
_pool_state: dict[str, Any] = {"pool": None, "width": 0}


def _forget_pool_after_fork() -> None:
    """Reset in a forked child: inherited pool handles are unusable."""
    global _pool_lock
    _pool_lock = threading.Lock()
    _pool_state["pool"] = None
    _pool_state["width"] = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def _pool_child_init(parent_pid: int) -> None:
    """Runs in every pool child: exit if the owner disappears."""

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=watch, daemon=True,
                     name="repro-pool-parent-watch").start()


def process_pool(width: int):
    """The shared parse pool, grown to at least ``width`` workers.

    Returns ``None`` for ``width <= 1`` (callers parse inline).  The
    caller is responsible for clamping ``width`` to the core count it
    believes in; this function only manages the pool lifecycle.
    """
    if width <= 1:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _pool_lock:
        pool = _pool_state["pool"]
        if pool is not None and _pool_state["width"] >= width:
            return pool
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:                         # pragma: no cover
            ctx = multiprocessing.get_context()
        fresh = ProcessPoolExecutor(
            max_workers=width, mp_context=ctx,
            initializer=_pool_child_init, initargs=(os.getpid(),))
        if pool is not None:
            # let in-flight work on the smaller pool finish, then die
            pool.shutdown(wait=False)
        _pool_state["pool"] = fresh
        _pool_state["width"] = width
        return fresh


def shutdown_process_pool() -> None:
    """Tear the shared pool down (broken pool, worker exit, atexit)."""
    with _pool_lock:
        pool = _pool_state["pool"]
        _pool_state["pool"] = None
        _pool_state["width"] = 0
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:                          # pragma: no cover
            pass


atexit.register(shutdown_process_pool)
