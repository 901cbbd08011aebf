"""Metrics registry: counters, gauges, and histograms.

Names are dotted strings (``fe.cache.hit``, ``pass.wall_ms``,
``service.attempts``); an optional label set distinguishes series of
the same name (``pass.wall_ms{pass=legality}``).  The registry is
thread-safe and process-local — service workers each have their own;
every server owns one, and its ``stats`` op reads each counter it
reports out of that registry (:meth:`MetricsRegistry.total`,
:meth:`MetricsRegistry.split`) next to the ``metrics`` block that
lists every series.

Kept deliberately small: a counter is a monotone float, a gauge a
settable float, a histogram a running (count, sum, min, max) summary.
That is enough for the bench harness and the service stats endpoint
without dragging in a metrics dependency the container may not have.
"""

from __future__ import annotations

import threading
from typing import Iterator


def _series_key(name: str, labels: dict[str, str] | None
                ) -> tuple[str, tuple[tuple[str, str], ...]]:
    return name, tuple(sorted((labels or {}).items()))


def render_key(name: str, labels: dict[str, str] | None) -> str:
    """``name{k=v,...}`` — the snapshot / exposition form."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += n

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)

    def add(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """A running summary of observed values."""

    __slots__ = ("name", "labels", "count", "total", "vmin", "vmax",
                 "_lock")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            self.count += 1
            self.total += v
            self.vmin = v if self.vmin is None else min(self.vmin, v)
            self.vmax = v if self.vmax is None else max(self.vmax, v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {"count": self.count, "sum": round(self.total, 6),
                "min": self.vmin, "max": self.vmax,
                "mean": round(self.mean, 6)}


class MetricsRegistry:
    """Get-or-create registry of named metric series."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict[str, str] | None):
        key = (cls.__name__,) + _series_key(name, labels)
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                conflict = any(k[1:] == key[1:] and k[0] != key[0]
                               for k in self._metrics)
                if conflict:
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different type")
                m = self._metrics[key] = cls(name,
                                             dict(labels or {}))
            return m

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def _counters(self, name: str, match: dict[str, str]) -> list:
        with self._lock:
            return [m for m in self._metrics.values()
                    if type(m) is Counter and m.name == name
                    and all(m.labels.get(k) == v
                            for k, v in match.items())]

    def total(self, name: str, **match: str) -> int:
        """Sum of the counters named ``name`` whose labels include
        ``match``; 0 when no such series exists yet."""
        return int(sum(m.value for m in self._counters(name, match)))

    def split(self, name: str, label: str, **match: str
              ) -> dict[str, int]:
        """:meth:`total` per value of ``label`` (series without the
        label are left out)."""
        out: dict[str, int] = {}
        for m in self._counters(name, match):
            key = m.labels.get(label)
            if key is not None:
                out[key] = out.get(key, 0) + int(m.value)
        return out

    def __iter__(self) -> Iterator:
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def snapshot(self) -> dict:
        """All series as ``{rendered_name: value-or-summary}``."""
        out = {}
        for m in self:
            out[render_key(m.name, m.labels)] = m.snapshot()
        return dict(sorted(out.items()))

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: the process-global default registry
METRICS = MetricsRegistry()
