"""Pass-dependency DAG and its scheduler.

The phased FE -> IPA -> BE monolith in :mod:`repro.core.pipeline` is
expressed as an explicit graph of **pass nodes**: the parse fan-out,
per-TU summarize nodes, merge barriers (``legality``/``deadfields``),
the whole-program IPA passes, and per-decision BE apply nodes.  This
module is the engine that executes such a graph:

- :class:`PassDAG` holds named nodes with explicit dependency edges and
  validates the graph (duplicate names, unknown edges, cycles) before
  anything runs.
- :class:`DagScheduler` executes a validated DAG inline on the calling
  thread, in insertion order — the historical phased pipeline, byte
  for byte.  The one place a compile uses more than one core is the
  parse fan-out, which submits every unit's parse to the shared
  fork-server process pool below (the parse-pool width is ``--jobs``).
- Nodes may *extend the graph while it runs* (the BE planner appends
  one apply node per transform decision once the heuristics have
  decided anything); dynamic additions are validated with the same
  rules as static ones.

The scheduler is observability- and fault-agnostic: containment
(:class:`~repro.core.pipeline.PhaseGuard`), spans, and cache probes all
live *inside* node functions; the only hook the scheduler offers is the
``boundary`` callback the pipeline uses to open phase/group spans at
phase transitions.
"""

from __future__ import annotations

import atexit
import heapq
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


class DagError(Exception):
    """A structurally invalid pass DAG (duplicate, unknown dep, cycle)."""


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


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

@dataclass
class Node:
    """One schedulable pass.

    ``fn`` receives a :class:`NodeContext` and returns the node's
    result, visible to dependents via ``ctx[dep_name]``.  ``phase``
    and ``group`` are display/aggregation labels (``fe``/``ipa``/``be``
    and e.g. ``fe.parse``); ``payload`` is builder-owned state the
    scheduler never touches (the pipeline stores each node's
    diagnostics engine and pass-timing fragment there).
    """

    name: str
    fn: Callable[["NodeContext"], Any]
    deps: tuple[str, ...] = ()
    phase: str = ""
    group: str = ""
    order: int = 0
    payload: Any = None


class PassDAG:
    """Named nodes + dependency edges, insertion-ordered."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self._counter = itertools.count()

    def add(self, name: str, fn: Callable[["NodeContext"], Any], *,
            deps: tuple[str, ...] | list[str] = (), phase: str = "",
            group: str = "", payload: Any = None) -> Node:
        if name in self.nodes:
            raise DagError(f"duplicate node {name!r}")
        node = Node(name=name, fn=fn, deps=tuple(deps), phase=phase,
                    group=group, order=next(self._counter),
                    payload=payload)
        self.nodes[name] = node
        return node

    def validate(self, seeded: frozenset[str] | set[str] = frozenset()
                 ) -> None:
        """Raise :class:`DagError` on unknown deps or cycles."""
        for node in self.nodes.values():
            for dep in node.deps:
                if dep not in self.nodes and dep not in seeded:
                    raise DagError(
                        f"node {node.name!r} depends on unknown node "
                        f"{dep!r}")
        cycle = self._find_cycle(seeded)
        if cycle:
            raise DagError("dependency cycle: "
                           + " -> ".join(cycle))

    def _find_cycle(self, seeded) -> list[str] | None:
        """A witness cycle (Kahn's algorithm leftovers), or None."""
        indeg = {n: sum(1 for d in node.deps if d not in seeded)
                 for n, node in self.nodes.items()}
        waiters: dict[str, list[str]] = {n: [] for n in self.nodes}
        for node in self.nodes.values():
            for d in node.deps:
                if d in waiters:
                    waiters[d].append(node.name)
        ready = [n for n, k in indeg.items() if k == 0]
        seen = 0
        while ready:
            n = ready.pop()
            seen += 1
            for w in waiters[n]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if seen == len(self.nodes):
            return None
        stuck = sorted(n for n, k in indeg.items() if k > 0)
        # walk dep edges among the stuck nodes until a repeat appears
        path, cur = [], stuck[0]
        while cur not in path:
            path.append(cur)
            cur = next(d for d in self.nodes[cur].deps
                       if d in indeg and indeg[d] > 0)
        return path[path.index(cur):] + [cur]

    def topo_order(self, seeded: frozenset[str] | set[str] = frozenset()
                   ) -> list[str]:
        """Deterministic topological order, ties broken by insertion
        order (which is the historical serial execution order)."""
        indeg = {n: sum(1 for d in node.deps if d not in seeded)
                 for n, node in self.nodes.items()}
        waiters: dict[str, list[str]] = {n: [] for n in self.nodes}
        for node in self.nodes.values():
            for d in node.deps:
                if d in waiters:
                    waiters[d].append(node.name)
        ready = [(self.nodes[n].order, n)
                 for n, k in indeg.items() if k == 0]
        heapq.heapify(ready)
        out: list[str] = []
        while ready:
            _, n = heapq.heappop(ready)
            out.append(n)
            for w in waiters[n]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, (self.nodes[w].order, w))
        return out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class NodeStat:
    """Measured execution of one node (relative ``perf_counter`` s)."""

    start: float
    end: float
    phase: str = ""
    group: str = ""
    deps: tuple[str, ...] = ()

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass
class DagReport:
    """How one DAG run went: per-node timing and the derived rollups."""

    wall: float = 0.0                  # whole-run wall clock, seconds
    stats: dict[str, NodeStat] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.stats)

    def phase_window(self, phase: str) -> float:
        """Wall-clock window covered by a phase's nodes (first start to
        last end)."""
        spans = [s for s in self.stats.values() if s.phase == phase]
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.start for s in spans)

    def critical_path(self) -> tuple[float, list[str]]:
        """(seconds, node names) of the longest dependency chain,
        weighted by measured node durations — the part of the compile
        that no reordering of independent nodes could shorten."""
        best: dict[str, float] = {}
        prev: dict[str, str | None] = {}
        # stats only contain executed nodes; deps outside (seeded) cost 0
        for name in sorted(self.stats,
                           key=lambda n: self.stats[n].start):
            st = self.stats[name]
            pick, length = None, 0.0
            for d in st.deps:
                got = best.get(d)
                if got is not None and got > length:
                    pick, length = d, got
            best[name] = length + st.elapsed
            prev[name] = pick
        if not best:
            return 0.0, []
        tail = max(best, key=lambda n: (best[n], n))
        path: list[str] = []
        cur: str | None = tail
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        return best[tail], list(reversed(path))

    def to_dict(self) -> dict:
        cp_s, cp_path = self.critical_path()
        return {
            "nodes": self.node_count,
            "wall_ms": round(self.wall * 1e3, 3),
            "critical_path_ms": round(cp_s * 1e3, 3),
            "critical_path": cp_path,
        }


class NodeContext:
    """What a running node sees: dependency results + dynamic growth."""

    __slots__ = ("_sched",)

    def __init__(self, sched: "DagScheduler"):
        self._sched = sched

    def __getitem__(self, name: str) -> Any:
        return self._sched._result_of(name)

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self._sched._result_of(name)
        except KeyError:
            return default

    def add_nodes(self, specs: list[dict]) -> None:
        """Append nodes to the running DAG.  Each spec is the kwargs of
        :meth:`PassDAG.add` plus ``name``/``fn``.  New nodes may depend
        on any existing node or on earlier nodes of the same batch."""
        self._sched._add_dynamic(specs)


class DagScheduler:
    """Executes one :class:`PassDAG` inline on the calling thread.

    Ready nodes run in insertion order (the ready heap is keyed by
    it), so a compile's node order never depends on timing.  The
    optional ``boundary(kind, name, entering)`` callback fires at
    phase/group transitions (the pipeline opens real nested tracer
    spans there).

    An exception escaping a node (containment happens *inside* node
    functions) aborts the run and re-raises in the caller — including
    ``BaseException``s like the service's simulated-OOM process faults.
    """

    def __init__(self, *,
                 boundary: Callable[[str, str, bool], None] | None = None):
        self.boundary = boundary

    def _result_of(self, name: str) -> Any:
        if name not in self._done:
            raise KeyError(
                f"result of {name!r} is not available (missing "
                f"dependency edge?)")
        return self._results[name]

    def run(self, dag: PassDAG, *,
            seeded: dict[str, Any] | None = None
            ) -> tuple[dict[str, Any], DagReport]:
        """Execute ``dag``; returns ``(results, report)``.

        ``seeded`` pre-populates results for names outside the DAG
        (restored-from-cache artifacts); dependencies on seeded names
        count as already satisfied.
        """
        seeded = dict(seeded or {})
        dag.validate(set(seeded))
        self._dag = dag
        self._results: dict[str, Any] = dict(seeded)
        self._done: set[str] = set(seeded)
        self._report = DagReport()
        t0 = time.perf_counter()
        self._drain(dag)
        self._report.wall = time.perf_counter() - t0
        missing = [n for n in dag.nodes if n not in self._done]
        if missing:                               # pragma: no cover
            raise DagError(f"nodes never became ready: {missing}")
        return self._results, self._report

    def _drain(self, dag: PassDAG) -> None:
        indeg = {n: sum(1 for d in node.deps if d in dag.nodes
                        and d not in self._done)
                 for n, node in dag.nodes.items()}
        self._indeg = indeg
        ready = [(dag.nodes[n].order, n)
                 for n, k in indeg.items() if k == 0]
        heapq.heapify(ready)
        self._ready = ready
        cur_phase = cur_group = ""
        try:
            while ready:
                _, name = heapq.heappop(ready)
                node = dag.nodes[name]
                if self.boundary is not None:
                    cur_phase, cur_group = self._cross(
                        node, cur_phase, cur_group)
                self._exec(node)
                for w, wnode in dag.nodes.items():
                    if w in self._done:
                        continue
                    if name in wnode.deps:
                        indeg[w] -= 1
                        if indeg[w] == 0:
                            heapq.heappush(ready, (wnode.order, w))
        finally:
            if self.boundary is not None:
                self._cross(None, cur_phase, cur_group)

    def _cross(self, node: Node | None, cur_phase: str, cur_group: str
               ) -> tuple[str, str]:
        """Fire boundary callbacks for a phase/group transition."""
        phase = node.phase if node is not None else ""
        group = node.group if node is not None else ""
        if phase == cur_phase and group == cur_group:
            return cur_phase, cur_group
        if cur_group and (group != cur_group or phase != cur_phase):
            self.boundary("group", cur_group, False)
            cur_group = ""
        if phase != cur_phase:
            if cur_phase:
                self.boundary("phase", cur_phase, False)
            if phase:
                self.boundary("phase", phase, True)
            cur_phase = phase
        if group and group != cur_group:
            self.boundary("group", group, True)
            cur_group = group
        return cur_phase, cur_group

    def _exec(self, node: Node) -> None:
        t0 = time.perf_counter()
        try:
            result = node.fn(NodeContext(self))
        finally:
            end = time.perf_counter()
            self._report.stats[node.name] = NodeStat(
                start=t0, end=end, phase=node.phase, group=node.group,
                deps=node.deps)
        self._results[node.name] = result
        self._done.add(node.name)

    # -- dynamic growth ----------------------------------------------------

    def _add_dynamic(self, specs: list[dict]) -> None:
        """Validate and insert a batch of nodes mid-run.

        Dependencies must name existing nodes or earlier nodes of the
        batch — so a dynamic batch can chain but never form a cycle.
        """
        known = set(self._dag.nodes) | self._done
        batch_names: set[str] = set()
        for spec in specs:
            name = spec["name"]
            if name in known or name in batch_names:
                raise DagError(f"duplicate node {name!r}")
            for d in spec.get("deps", ()):
                if d not in known and d not in batch_names:
                    raise DagError(
                        f"dynamic node {name!r} depends on unknown "
                        f"node {d!r}")
            batch_names.add(name)
        for spec in specs:
            node = self._dag.add(
                spec["name"], spec["fn"],
                deps=tuple(spec.get("deps", ())),
                phase=spec.get("phase", ""),
                group=spec.get("group", ""),
                payload=spec.get("payload"))
            k = sum(1 for d in node.deps if d not in self._done)
            self._indeg[node.name] = k
            if k == 0:
                heapq.heappush(self._ready, (node.order, node.name))


# ---------------------------------------------------------------------------
# Shared parse process pool
# ---------------------------------------------------------------------------
#
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
