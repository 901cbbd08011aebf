"""Shared summary-cache service: one cache, many daemons.

A compile farm multiplies the summary cache's value — every daemon
warming every other daemon — but only if they share one store.  This
module promotes :class:`~repro.core.summarycache.SummaryCache` into a
socket service speaking the same newline-delimited JSON protocol as
the compile daemons:

- :class:`CacheServer` — a :class:`~repro.service.server.LineServer`
  owning the on-disk store, serving content-addressed ``cache.get`` /
  ``cache.put`` (blobs travel base64-encoded) and ``cache.drop``; the
  control ops (``ping`` / ``stats`` / ``drain`` / ``shutdown``) are
  the ones every server answers.
- :class:`CacheStore` — the server-side store: the local
  ``SummaryCache`` plus an **LRU index with a byte budget**.  A put
  that pushes the store past ``budget_bytes`` evicts least-recently
  *used* entries (gets refresh recency) until it fits.  Every lookup
  counts exactly one ``cache.hits``, ``cache.misses`` or
  ``cache.corrupt`` series (a corrupt lookup is a miss too), and puts
  and evictions count likewise, in the server's one
  :class:`~repro.obs.MetricsRegistry`; the ``cache`` stats block is
  read out of it.
- :class:`RemoteCache` — the client: a drop-in ``SummaryCache``
  subclass whose blob I/O goes over the socket, so the pipeline, the
  workers, and every diagnostic path are unchanged whether the cache
  is a directory or a service.  Like the local store, the remote
  client **never raises**: an unreachable or mid-restart cache service
  degrades to misses (reported as ``io-error`` events), never to a
  failed compile.  Its connections come from one process-wide
  :class:`~repro.service.server.ClientPool`, so a worker keeps its
  cache-service connection from one request to the next.

Integrity is enforced where the disk is: the server's local store
verifies each entry's checksum frame on read and quarantines
corruption, so a corrupt entry is *never served* to any daemon — the
requesting client just sees a miss plus a ``corrupt`` event it can
surface as a diagnostic.
"""

from __future__ import annotations

import base64
import binascii
import threading
from collections import OrderedDict
from pathlib import Path

from ..core.summarycache import QUARANTINE_DIR, SummaryCache
from ..obs import MetricsRegistry
from .requests import ProtocolError
from .server import ClientPool, LineServer

#: wire ops the cache service adds on top of the control ops
CACHE_OPS = ("cache.get", "cache.put", "cache.drop")

#: wire fields a cache op may carry
_CACHE_FIELDS = ("op", "id", "category", "key", "blob")

#: default byte budget when none is given: effectively unbounded
UNBOUNDED = None


def parse_budget(text: str | int | None) -> int | None:
    """A ``--cache-budget`` spec in bytes: ``65536``, ``"512K"``,
    ``"64M"``, ``"2G"`` (decimal suffixes, case-insensitive);
    ``None``/``"0"`` means unbounded."""
    if text is None:
        return None
    if isinstance(text, int):
        return text if text > 0 else None
    raw = str(text).strip().upper()
    scale = 1
    for suffix, mult in (("K", 10 ** 3), ("M", 10 ** 6),
                         ("G", 10 ** 9)):
        if raw.endswith(suffix):
            raw, scale = raw[:-1], mult
            break
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise ValueError(f"bad cache budget spec: {text!r}") from None
    return value if value > 0 else None


class CacheStore:
    """The server-side store: local cache + LRU index + byte budget."""

    def __init__(self, root: str | Path,
                 budget_bytes: int | None = None,
                 metrics: MetricsRegistry | None = None):
        self.cache = SummaryCache(Path(root))
        self.budget_bytes = budget_bytes
        self.metrics = metrics or MetricsRegistry()
        self._lock = threading.Lock()
        #: (category, key) -> stored size in bytes, LRU order
        #: (oldest first; a get moves its entry to the end)
        self._index: OrderedDict[tuple[str, str], int] = OrderedDict()
        self._bytes = 0
        self._build_index()

    # -- index --------------------------------------------------------------

    def _build_index(self) -> None:
        """Seed the LRU index from whatever is already on disk,
        oldest-mtime first, so a restarted service evicts sensibly."""
        root = self.cache.root
        if not root.is_dir():
            return
        found: list[tuple[float, str, str, int]] = []
        for cat_dir in root.iterdir():
            if not cat_dir.is_dir() or cat_dir.name == QUARANTINE_DIR:
                continue
            for path in cat_dir.rglob("*.pkl"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                found.append((st.st_mtime, cat_dir.name, path.stem,
                              st.st_size))
        for _, category, key, size in sorted(found):
            self._index[(category, key)] = size
            self._bytes += size

    def _touch(self, category: str, key: str) -> None:
        entry = (category, key)
        if entry in self._index:
            self._index.move_to_end(entry)

    def _forget(self, category: str, key: str) -> None:
        size = self._index.pop((category, key), None)
        if size is not None:
            self._bytes -= size

    # -- ops ----------------------------------------------------------------

    def get(self, category: str, key: str) -> tuple[bytes | None, str]:
        """Returns ``(payload, kind)``; kind is ``hit`` / ``miss`` /
        ``corrupt`` (corrupt entries were quarantined server-side)."""
        with self._lock:
            blob = self.cache.load_blob(category, key)
            # drain each call so the server-side event list stays
            # bounded over a long-lived service
            events = self.cache.drain_events()
            if blob is not None:
                self._touch(category, key)
                self.metrics.counter("cache.hits",
                                     category=category).inc()
                return blob, "hit"
            if any(e.kind == "corrupt" for e in events):
                self._forget(category, key)
                self.metrics.counter("cache.corrupt",
                                     category=category).inc()
                return None, "corrupt"
            self.metrics.counter("cache.misses",
                                 category=category).inc()
            return None, "miss"

    def put(self, category: str, key: str, blob: bytes) -> bool:
        with self._lock:
            stored = self.cache.store_blob(category, key, blob)
            self.cache.drain_events()
            if not stored:
                return False
            self._forget(category, key)      # replaced: re-account
            try:
                size = self.cache._path(category, key).stat().st_size
            except OSError:
                size = len(blob)
            self._index[(category, key)] = size
            self._bytes += size
            self.metrics.counter("cache.puts",
                                 category=category).inc()
            self._evict_to_budget(exempt=(category, key))
            return True

    def drop(self, category: str, key: str) -> bool:
        with self._lock:
            return self._drop_entry(category, key)

    def _drop_entry(self, category: str, key: str) -> bool:
        self._forget(category, key)
        try:
            self.cache._path(category, key).unlink()
            return True
        except OSError:
            return False

    def _evict_to_budget(self, exempt: tuple[str, str]) -> None:
        """Unlink least-recently-used entries until under budget.

        The just-written entry is exempt: a put larger than the whole
        budget still lands (and evicts everything else) rather than
        thrashing by evicting itself."""
        if self.budget_bytes is None:
            return
        while self._bytes > self.budget_bytes and len(self._index) > 1:
            victim = next(iter(self._index))
            if victim == exempt:
                self._index.move_to_end(victim)
                continue
            self._drop_entry(*victim)
            self.metrics.counter("cache.evictions").inc()

    def stats(self) -> dict:
        m = self.metrics
        with self._lock:
            corrupt = m.total("cache.corrupt")
            return {
                "root": str(self.cache.root),
                "entries": len(self._index),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "hits": m.total("cache.hits"),
                "misses": m.total("cache.misses") + corrupt,
                "puts": m.total("cache.puts"),
                "evictions": m.total("cache.evictions"),
                "corrupt": corrupt,
            }


class CacheServer(LineServer):
    """The cache service's socket front door."""

    WORK_OPS = CACHE_OPS

    def __init__(self, socket_path: str, store: CacheStore, **wire):
        super().__init__(socket_path, metrics=store.metrics, **wire)
        self.store = store

    def parse_work(self, raw: dict) -> tuple:
        """``(id, op, category, key, blob)``; ``blob`` is the decoded
        payload of a ``cache.put``, else None."""
        unknown = sorted(set(raw) - set(_CACHE_FIELDS))
        if unknown:
            raise ProtocolError(
                f"unknown request field(s): {', '.join(unknown)}",
                detail={"unknown_fields": unknown,
                        "known_fields": sorted(_CACHE_FIELDS),
                        "where": "request"})
        category = raw.get("category")
        key = raw.get("key")
        # the store maps these straight onto paths: refuse anything
        # that could escape the cache root
        if not isinstance(category, str) or not category \
                or not category.replace("-", "").replace("_", "") \
                .isalnum() or category == QUARANTINE_DIR:
            raise ProtocolError(
                "'category' must be a simple directory name",
                detail={"where": "category"})
        if not isinstance(key, str) or not key or not key.isalnum():
            raise ProtocolError(
                "'key' must be a content-hash string",
                detail={"where": "key"})
        blob = None
        if raw["op"] == "cache.put":
            try:
                blob = base64.b64decode(raw.get("blob") or "",
                                        validate=True)
            except (binascii.Error, TypeError):
                raise ProtocolError("'blob' must be base64",
                                    detail={"where": "blob"}) from None
            if not blob:
                raise ProtocolError(
                    "'blob' must be a non-empty payload",
                    detail={"where": "blob"})
        return raw.get("id"), raw["op"], category, key, blob

    def serve(self, work: tuple) -> dict:
        req_id, op, category, key, blob = work
        resp = {"id": req_id, "op": op, "status": "ok"}
        if op == "cache.get":
            found, kind = self.store.get(category, key)
            resp.update(found=found is not None, kind=kind)
            if found is not None:
                resp["blob"] = base64.b64encode(found).decode("ascii")
        elif op == "cache.put":
            resp["stored"] = self.store.put(category, key, blob)
        else:
            resp["dropped"] = self.store.drop(category, key)
        return resp

    def ping_fields(self) -> dict:
        return {"role": "cache"}

    def own_stats(self) -> dict:
        return {"server": {"role": "cache"}, "cache": self.store.stats()}


# ---------------------------------------------------------------------------
# Client side: a SummaryCache whose disk is on the other end of a socket
# ---------------------------------------------------------------------------

#: this process's idle cache-service connections, shared by every
#: :class:`RemoteCache` handle
_POOL = ClientPool()


class RemoteCache(SummaryCache):
    """Drop-in ``SummaryCache`` backed by a cache-service socket.

    Only the blob I/O layer is overridden — keying, pickling, the
    None-artifact rule, hit/miss accounting (one per ``load``), and
    event reporting all come from the base class, so a compile behaves identically against
    a local directory or the shared service.  Connection failures are
    *misses with an ``io-error`` event*, never exceptions: a cache
    outage slows the farm down, it cannot break it.

    Each call takes an idle connection from the process's pool and
    gives it back after the reply, so a handle holds no connection
    and :meth:`close` has nothing to release.  A handle whose call
    found the service unreachable (its connects and resends spent)
    answers every later call as unreachable at once: one request
    pays the reconnect backoff once, not once per cache op."""

    def __init__(self, socket_path: str, timeout: float = 10.0,
                 reconnects: int = 2):
        super().__init__(root=Path(f"unix:{socket_path}"))
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.reconnects = reconnects
        self._unreachable = False

    # -- wire ---------------------------------------------------------------

    def _call(self, payload: dict) -> dict | None:
        """One request/response against the service; None on failure."""
        if self._unreachable:
            return None
        client = _POOL.take(self.socket_path, self.timeout,
                            self.reconnects)
        try:
            resp = client.request(payload)
        except (OSError, ConnectionError, ProtocolError) as exc:
            client.close()
            if not isinstance(exc, ProtocolError):
                self._unreachable = True
            return None
        _POOL.give(client)
        return resp

    # -- blob I/O over the socket -------------------------------------------

    def load_blob(self, category: str, key: str) -> bytes | None:
        try:
            from ..core.faults import CACHE_FAULTS
            CACHE_FAULTS.fire("load", category)
        except OSError as exc:
            self._event("io-error", category, key,
                        f"read failed: {type(exc).__name__}")
            return None
        resp = self._call({"op": "cache.get", "category": category,
                           "key": key})
        if resp is None or resp.get("status") != "ok":
            self._event("io-error", category, key,
                        "cache service unreachable")
            return None
        if not resp.get("found"):
            if resp.get("kind") == "corrupt":
                # the service already quarantined it; surface the
                # corruption so the compile can diagnose the recompute
                self._event("corrupt", category, key,
                            "checksum mismatch (service)")
            else:
                self._event("miss", category, key)
            return None
        try:
            return base64.b64decode(resp.get("blob") or "",
                                    validate=True)
        except (binascii.Error, TypeError):
            self._event("corrupt", category, key,
                        "undecodable service reply")
            return None

    def store_blob(self, category: str, key: str, blob: bytes) -> bool:
        try:
            from ..core.faults import CACHE_FAULTS
            CACHE_FAULTS.fire("store", category)
        except OSError as exc:
            self._event("io-error", category, key,
                        f"store failed: {type(exc).__name__}")
            return False
        resp = self._call({
            "op": "cache.put", "category": category, "key": key,
            "blob": base64.b64encode(blob).decode("ascii")})
        if resp is None or resp.get("status") != "ok" \
                or not resp.get("stored"):
            self._event("io-error", category, key,
                        "cache service unreachable")
            return False
        self._event("store", category, key)
        return True

    def _discard(self, category: str, key: str) -> None:
        # a corrupt *payload* detected client-side (bad unpickle, None
        # artifact) is dropped from the shared store for everyone
        self._call({"op": "cache.drop", "category": category,
                    "key": key})


def serve_cache(socket_path: str, root: str | Path,
                budget: str | int | None = None,
                **wire) -> CacheServer:
    """Construct (but do not start) a cache server for the CLI/farm."""
    store = CacheStore(root, budget_bytes=parse_budget(budget))
    return CacheServer(socket_path, store, **wire)


__all__ = [
    "CACHE_OPS", "CacheServer", "CacheStore", "RemoteCache",
    "parse_budget", "serve_cache",
]
