"""Fault-injection harness for the fault-tolerant compilation driver.

The safety net the pipeline builds (per-pass containment, budgets,
summary validation, differential rollback) is only trustworthy if it is
*exercised*: this module lets tests make any named pass

- ``raise``   — throw an :class:`InjectedFault` at pass entry,
- ``stall``   — sleep past the pass's wall-clock budget, or
- ``corrupt`` — return a deliberately damaged summary,

and then assert that compilation still completes with an
output-equivalent program and a diagnostic naming the contained
failure.  Injection is process-global (the pipeline consults the
:data:`FAULTS` registry at each pass boundary) and costs one dict
lookup per pass when no fault is armed.

Injectable pass names are listed in :data:`INJECTABLE_PASSES`; the
default corrupters in :data:`DEFAULT_CORRUPTERS` damage each pass's
summary in the way that is hardest for purely-structural validation to
catch (e.g. legality cleared of violations, live fields reported dead)
so that the *differential* layer has to save the compile.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

#: pass names the pipeline guards (and therefore accepts injection for)
INJECTABLE_PASSES = (
    "lower", "loops", "legality", "deadfields", "callgraph", "escape",
    "pointsto", "weights", "profiles", "heuristics", "apply", "verify",
)


class InjectedFault(RuntimeError):
    """The exception thrown by a ``raise``-mode injection."""


@dataclass
class FaultSpec:
    """One armed fault."""

    pass_name: str
    mode: str = "raise"               # raise | stall | corrupt
    seconds: float = 0.1              # stall duration
    message: str = ""
    corrupter: Callable[[Any], Any] | None = None
    fired: int = 0                    # times the fault actually triggered

    def __post_init__(self):
        # per-unit sub-passes are named "<pass>[<unit>]" (for example
        # "legality[a.c]") and are injectable like their parent pass
        base = self.pass_name.split("[", 1)[0]
        if base not in INJECTABLE_PASSES:
            raise ValueError(
                f"unknown pass {self.pass_name!r}; injectable passes: "
                f"{', '.join(INJECTABLE_PASSES)}")
        if self.mode not in ("raise", "stall", "corrupt"):
            raise ValueError(f"unknown fault mode {self.mode!r}")


class FaultRegistry:
    """Process-global registry the pipeline consults at pass boundaries."""

    def __init__(self):
        self._faults: dict[str, FaultSpec] = {}

    def __bool__(self) -> bool:
        return bool(self._faults)

    def inject(self, pass_name: str, mode: str = "raise",
               **kw) -> FaultSpec:
        spec = FaultSpec(pass_name=pass_name, mode=mode, **kw)
        self._faults[pass_name] = spec
        return spec

    def clear(self, pass_name: str | None = None) -> None:
        if pass_name is None:
            self._faults.clear()
        else:
            self._faults.pop(pass_name, None)

    def spec(self, pass_name: str) -> FaultSpec | None:
        return self._faults.get(pass_name)

    # -- hooks called by the pipeline -------------------------------------

    def fire(self, pass_name: str) -> None:
        """Called at pass entry: raise or stall if a fault is armed."""
        spec = self._faults.get(pass_name)
        if spec is None:
            return
        if spec.mode == "raise":
            spec.fired += 1
            raise InjectedFault(
                spec.message or f"injected fault in pass {pass_name!r}")
        if spec.mode == "stall":
            spec.fired += 1
            time.sleep(spec.seconds)

    def corrupt(self, pass_name: str, value: Any) -> Any:
        """Called at pass exit: damage the summary if armed."""
        spec = self._faults.get(pass_name)
        if spec is None or spec.mode != "corrupt":
            return value
        fn = spec.corrupter or DEFAULT_CORRUPTERS.get(pass_name)
        if fn is None:
            return value
        spec.fired += 1
        return fn(value)


#: the registry the pipeline consults
FAULTS = FaultRegistry()


@contextmanager
def inject_fault(pass_name: str, mode: str = "raise", **kw):
    """Arm one fault for the duration of a ``with`` block."""
    spec = FAULTS.inject(pass_name, mode, **kw)
    try:
        yield spec
    finally:
        FAULTS.clear(pass_name)


# ---------------------------------------------------------------------------
# Default corrupters: the worst plausible damage per summary kind
# ---------------------------------------------------------------------------

def _corrupt_legality(legality):
    """Clear every violation: every type looks legal (semantically wrong
    in a way structural validation cannot see — verification must
    catch any resulting miscompile)."""
    for info in legality.types.values():
        info.invalid_reasons.clear()
    return legality


def _corrupt_usage(usage):
    """Report every field unreferenced, making live fields removable."""
    for fu in usage.types.values():
        for refs in fu.refs.values():
            refs.reads = 0
            refs.writes = 0
        fu.refs = dict(fu.refs)
    return usage


def _corrupt_escape(escape):
    """Hide every recorded escape."""
    escape.escaped.clear()
    return escape


def _corrupt_pointsto(pointsto):
    """Report field-sensitivity intact for every type, wrongly
    green-lighting relaxation."""
    pointsto.collapsed.clear()
    return pointsto


def _corrupt_profiles(profiles):
    """Poison every hotness figure with NaN — the kind of damage
    structural validation *does* catch."""
    for prof in profiles.values():
        for fname in list(prof.read_counts):
            prof.read_counts[fname] = math.nan
        for fname in list(prof.write_counts):
            prof.write_counts[fname] = math.nan
    return profiles


def _corrupt_weights(weights):
    """Negate every block count."""
    for fw in weights.functions.values():
        fw.block = {k: -abs(v) for k, v in fw.block.items()}
    return weights


def _corrupt_decisions(decisions):
    """Graft a live field onto every planned removal list."""
    for d in decisions:
        if d.transformed and d.cold_fields:
            d.dead_fields = d.dead_fields + [d.cold_fields[0]]
    return decisions


DEFAULT_CORRUPTERS: dict[str, Callable[[Any], Any]] = {
    "legality": _corrupt_legality,
    "deadfields": _corrupt_usage,
    "escape": _corrupt_escape,
    "pointsto": _corrupt_pointsto,
    "profiles": _corrupt_profiles,
    "weights": _corrupt_weights,
    "heuristics": _corrupt_decisions,
}


# ---------------------------------------------------------------------------
# Process-level faults: the service worker-pool failure modes
# ---------------------------------------------------------------------------
#
# The in-process registry above exercises *contained* failures — the
# pipeline survives them without outside help.  The compile service
# (``repro serve``) additionally has to survive failures no in-process
# guard can contain: a worker subprocess dying outright, wedging with
# its heartbeat gone, starting too slowly to join the pool, or being
# shot by the OOM killer.  These specs travel *with a service request*
# (JSON-able, armed inside the worker subprocess by
# ``repro.service.worker``) so every supervisor recovery path — kill
# detection, hang detection, deadline enforcement, retry, degradation —
# is provable from tests.

#: process-level fault modes the service worker can arm
PROCESS_FAULT_MODES = ("kill", "hang", "slow-start", "oom")

#: pseudo-stages besides the pipeline pass names: "start" fires during
#: worker boot (before the first heartbeat), "request" at job receipt
PROCESS_STAGES_EXTRA = ("start", "request")


class ProcessFault(BaseException):
    """Raised by an ``oom``-mode process fault.

    Deliberately a :class:`BaseException`: like a real OOM kill, it must
    not be containable by the in-process ``PhaseGuard`` (whose boundary
    is ``except Exception``) — only the worker's top level may catch it,
    report a fatal message, and die.
    """


@dataclass
class ProcessFaultSpec:
    """One armed process-level fault.

    ``stage`` is a pipeline pass name (``apply``, ``legality[a.c]``
    matches ``legality``, ...) or one of the pseudo-stages ``start`` /
    ``request``.  ``times`` bounds the fault to the first N execution
    attempts of a request, so a retry after the injected crash can be
    observed succeeding.  The values are checked as every wire field
    is, never coerced: ``stage`` a non-empty string, ``mode`` a
    string, ``times`` an integer >= 0 (an integral float counts),
    ``seconds`` a finite number >= 0, ``silent`` a boolean.
    """

    stage: str
    mode: str = "kill"
    seconds: float = 3600.0           # hang / slow-start duration
    times: int = 1                    # fire on attempts <= times
    silent: bool = True               # hang: also stop the heartbeat

    def __post_init__(self):
        # fire() matches stage names exactly: a stage that is not a
        # string would arm a fault that never fires
        if not isinstance(self.stage, str) or not self.stage:
            raise ValueError(f"'stage' must be a non-empty string, got "
                             f"{self.stage!r}")
        if not isinstance(self.mode, str) \
                or self.mode not in PROCESS_FAULT_MODES:
            raise ValueError(
                f"unknown process fault mode {self.mode!r}; choose "
                f"from {PROCESS_FAULT_MODES}")
        if isinstance(self.times, bool) or not isinstance(self.times, int) \
                or self.times < 0:
            raise ValueError(f"'times' must be an integer >= 0, got "
                             f"{self.times!r}")
        # the chained comparison also refuses NaN
        if isinstance(self.seconds, bool) \
                or not isinstance(self.seconds, (int, float)) \
                or not 0 <= self.seconds <= sys.float_info.max:
            raise ValueError(f"'seconds' must be a finite number >= 0, "
                             f"got {self.seconds!r}")
        if not isinstance(self.silent, bool):
            raise ValueError(f"'silent' must be true or false, got "
                             f"{self.silent!r}")

    def to_dict(self) -> dict:
        return {"stage": self.stage, "mode": self.mode,
                "seconds": self.seconds, "times": self.times,
                "silent": self.silent}

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessFaultSpec":
        times = d.get("times", 1)
        if isinstance(times, float) and times.is_integer():
            times = int(times)
        return cls(stage=d["stage"], mode=d.get("mode", "kill"),
                   seconds=d.get("seconds", 3600.0), times=times,
                   silent=d.get("silent", True))


class ProcessFaultRegistry:
    """Per-worker-process registry of armed process-level faults.

    The service worker arms it from the request payload and calls
    :meth:`fire` at stage boundaries (via the pipeline's pass observer).
    ``on_hang`` is a callback the worker installs to silence its
    heartbeat thread before a ``hang`` fault sleeps, so the supervisor's
    heartbeat-loss detector — not just the deadline — is exercised.
    """

    def __init__(self):
        self._specs: list[ProcessFaultSpec] = []
        self._attempt: int = 1
        self.on_hang: Callable[[], None] | None = None

    def __bool__(self) -> bool:
        return bool(self._specs)

    def arm(self, specs: list[ProcessFaultSpec],
            attempt: int = 1) -> None:
        self._specs = list(specs)
        self._attempt = attempt

    def disarm(self) -> None:
        self._specs = []
        self._attempt = 1

    def fire(self, stage: str) -> None:
        """Trigger any armed fault matching ``stage``."""
        if not self._specs:
            return
        base = stage.split("[", 1)[0]
        for spec in self._specs:
            if spec.stage not in (stage, base):
                continue
            if self._attempt > spec.times:
                continue
            if spec.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.mode == "hang":
                if spec.silent and self.on_hang is not None:
                    self.on_hang()
                time.sleep(spec.seconds)
            elif spec.mode == "slow-start":
                time.sleep(spec.seconds)
            elif spec.mode == "oom":
                raise ProcessFault(
                    f"simulated out-of-memory in stage {stage!r}")


#: the per-process registry service workers arm from request payloads
PROC_FAULTS = ProcessFaultRegistry()


# ---------------------------------------------------------------------------
# Cache I/O faults: disk-full and friends at the summary-cache boundary
# ---------------------------------------------------------------------------
#
# The pass-level FAULTS registry deliberately *bypasses* the summary
# cache while armed (injected faults must exercise the real passes),
# so it cannot drill the cache's own failure modes.  This registry
# fires inside :meth:`repro.core.summarycache.SummaryCache.store_blob`
# / ``load_blob`` instead: an armed fault makes cache I/O fail the way
# a full disk (ENOSPC) or a flaky mount (EIO) would, and the tests
# assert the write is contained as a ``cache`` diagnostic while
# compilation completes uncached.

#: cache I/O fault modes: the errno raised at the store/load boundary
CACHE_FAULT_MODES = ("enospc", "eio")

_CACHE_FAULT_ERRNO = {"enospc": 28, "eio": 5}      # ENOSPC, EIO


@dataclass
class CacheFaultSpec:
    """One armed cache I/O fault.

    ``op`` selects which cache operations fail (``store``, ``load``,
    or ``any``); ``category`` restricts the fault to one artifact
    category (``summary`` / ``search`` / ``reply``; empty = all);
    ``times`` bounds how many operations fail (<= 0 = unlimited)."""

    mode: str = "enospc"
    op: str = "store"                 # store | load | any
    category: str = ""                # "" = every category
    times: int = 0                    # fire on the first N ops; 0 = all

    def __post_init__(self):
        if self.mode not in CACHE_FAULT_MODES:
            raise ValueError(
                f"unknown cache fault mode {self.mode!r}; choose from "
                f"{CACHE_FAULT_MODES}")
        if self.op not in ("store", "load", "any"):
            raise ValueError(f"unknown cache fault op {self.op!r}")


class CacheFaultRegistry:
    """Process-global registry the summary cache consults on every
    store/load.  Costs one truthiness check when nothing is armed."""

    def __init__(self):
        self._spec: CacheFaultSpec | None = None
        self.fired = 0

    def __bool__(self) -> bool:
        return self._spec is not None

    def arm(self, spec: CacheFaultSpec) -> CacheFaultSpec:
        self._spec = spec
        self.fired = 0
        return spec

    def disarm(self) -> None:
        self._spec = None

    def fire(self, op: str, category: str) -> None:
        """Raise the armed OSError if ``op``/``category`` match."""
        spec = self._spec
        if spec is None:
            return
        if spec.op not in (op, "any"):
            return
        if spec.category and spec.category != category:
            return
        if spec.times > 0 and self.fired >= spec.times:
            return
        self.fired += 1
        err = _CACHE_FAULT_ERRNO[spec.mode]
        raise OSError(err, os.strerror(err))


#: the registry the summary cache consults
CACHE_FAULTS = CacheFaultRegistry()


@contextmanager
def inject_cache_fault(mode: str = "enospc", op: str = "store",
                       category: str = "", times: int = 0):
    """Arm one cache I/O fault for the duration of a ``with`` block."""
    spec = CACHE_FAULTS.arm(CacheFaultSpec(mode=mode, op=op,
                                           category=category,
                                           times=times))
    try:
        yield spec
    finally:
        CACHE_FAULTS.disarm()
