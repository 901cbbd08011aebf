"""Content-addressed on-disk summary cache (§2's IELF summary files).

The paper's front end writes per-TU summary files that the IPA phase
consumes; SYZYGY keeps them on disk so an unchanged translation unit is
never re-analyzed.  This module is that mechanism for the reproduction:
a small content-addressed store keyed by SHA-256 of *what produced the
artifact* — the TU source text, a fingerprint of the compiler options,
and a digest of the compiler's own code — holding pickled artifacts
(per-TU analysis summaries, layout-search scores, whole replies).

Design rules:

- **Keys are content hashes.**  A changed source byte, option, or
  line of the compiler produces a different key; stale entries are
  simply never addressed again (no invalidation protocol).
- **Loads never raise.**  A missing, truncated, corrupt, or
  unpicklable entry is a *miss*: :meth:`SummaryCache.load` returns
  ``None`` and records an event the caller can surface through the
  diagnostics engine.  A cache must never take the compilation down.
- **Stores are atomic.**  Artifacts are written to a temp file and
  renamed into place so a crashed writer can only leave garbage that
  reads as a miss, never a half-entry that reads as data.
- **Entries are checksummed.**  Every stored entry is framed with a
  magic tag and a SHA-256 digest of its payload; a read whose digest
  does not match is *quarantined* (moved aside for post-mortem, up to
  a bounded count) and reported as corruption, never returned as data.
  An unframed entry is corrupt too: every key carries the code
  digest, so no key this code computes addresses an entry written
  before framing, and the only unframed files a load can meet are
  damaged ones.

The same directory format is served remotely by the shared cache
service (:mod:`repro.service.cacheservice`); :func:`open_cache` picks
the local store or the remote client from the ``cache_dir`` spec
(``unix:PATH`` selects a cache-service socket).
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: framing tag for checksummed entries: MAGIC + sha256(payload) + payload
ENTRY_MAGIC = b"RSC1"
_DIGEST_LEN = 32
_HEADER_LEN = len(ENTRY_MAGIC) + _DIGEST_LEN

#: directory (under the cache root) corrupt entries are moved into
QUARANTINE_DIR = "quarantine"

#: quarantined files kept for post-mortem; oldest beyond this are dropped
QUARANTINE_MAX = 32


def frame_blob(blob: bytes) -> bytes:
    """Wrap a payload with the checksum frame ``store_blob`` writes."""
    return ENTRY_MAGIC + hashlib.sha256(blob).digest() + blob


def unframe_blob(raw: bytes) -> bytes | None:
    """The payload of a stored entry whose checksum frame verifies, or
    None (no frame, a short header or a digest mismatch: corrupt)."""
    if not raw.startswith(ENTRY_MAGIC) or len(raw) < _HEADER_LEN:
        return None
    digest = raw[len(ENTRY_MAGIC):_HEADER_LEN]
    payload = raw[_HEADER_LEN:]
    if hashlib.sha256(payload).digest() != digest:
        return None
    return payload


@dataclass
class CacheEvent:
    """One observable cache interaction, for diagnostics and tests."""

    kind: str                 # hit | miss | corrupt | store | io-error
    category: str             # summary | search | reply
    key: str
    detail: str = ""

    def __str__(self) -> str:
        note = f" ({self.detail})" if self.detail else ""
        return f"{self.category} {self.kind} {self.key[:12]}{note}"


@functools.cache
def code_digest() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` sources, part of
    every cache key: an entry written by other code (an older
    compiler sharing a persistent ``--cache-dir``) is never addressed
    again, so no change to a pass, a heuristic or a report can be
    hidden by a stale artifact.  Read once per process, on first use
    rather than at import."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def fingerprint(*parts: object) -> str:
    """SHA-256 over a stable rendering of ``parts``."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    return h.hexdigest()


def _feed_key(h, part: object) -> None:
    """Hash one key part: a string as its length-prefixed UTF-8, a
    tuple or list as its length and then each item, anything else as
    its length-prefixed ``repr()``, each behind a kind tag, so no two
    different part sequences feed the same bytes."""
    if isinstance(part, str):
        data = part.encode("utf-8", "surrogatepass")
        h.update(b"s%d:" % len(data))
        h.update(data)
    elif isinstance(part, (tuple, list)):
        h.update(b"%c%d:" % (b"t" if isinstance(part, tuple) else b"l",
                             len(part)))
        for item in part:
            _feed_key(h, item)
    else:
        data = repr(part).encode("utf-8", "surrogatepass")
        h.update(b"r%d:" % len(data))
        h.update(data)


@dataclass
class SummaryCache:
    """Content-addressed pickle store under one directory.

    ``category`` namespaces keys (``summary``: one per-unit analysis
    summary, :class:`~repro.analysis.legality.UnitLegality` or
    :class:`~repro.analysis.deadfields.UnitUsage`) so unrelated
    artifact kinds can never collide even if their key material does.

    The layout-search engine adds a ``search`` category: one
    ``{"cycles": int}`` score memo per (trace fingerprint, layout
    fingerprint) pair, stored by
    :class:`repro.transform.search.LayoutOracle`.  Scores go through
    the ordinary ``load``/``store`` API, so a farm's shared
    :class:`RemoteCache` serves them across shards unchanged.

    :func:`repro.api.execute_tier` adds a ``reply`` category: one
    finished reply (payload and notes) per deterministic request, so
    an exact repeat is answered from one read.
    """

    root: Path
    events: list[CacheEvent] = field(default_factory=list)
    hits: int = 0
    misses: int = 0

    def __post_init__(self):
        self.root = Path(self.root)
        # keeps one cache object safe to share between threads;
        # reentrant because load -> _event/_discard nest
        self.lock = threading.RLock()

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key_for(category: str, *parts: object) -> str:
        """The cache key of ``parts`` in ``category``, under the code
        digest.  Unlike :func:`fingerprint` it hashes a string's bytes,
        not its ``repr()``: a reply or summary key covers whole source
        texts, and escaping one costs several times its hash."""
        h = hashlib.sha256()
        for p in (code_digest(), category, *parts):
            _feed_key(h, p)
        return h.hexdigest()

    def _path(self, category: str, key: str) -> Path:
        # two-level fanout keeps directories small on big projects
        return self.root / category / key[:2] / f"{key}.pkl"

    # -- store --------------------------------------------------------------

    def store(self, category: str, key: str, value: Any) -> bool:
        """Atomically persist ``value``; False (never an exception) on
        any I/O or pickling failure."""
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            self._event("io-error", category, key,
                        f"unpicklable artifact: {type(exc).__name__}")
            return False
        return self.store_blob(category, key, blob)

    def store_blob(self, category: str, key: str, blob: bytes) -> bool:
        """Persist an already-pickled artifact atomically, framed with
        its SHA-256 checksum."""
        path = self._path(category, key)
        with self.lock:
            try:
                from .faults import CACHE_FAULTS
                CACHE_FAULTS.fire("store", category)
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent,
                                           suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as f:
                        f.write(frame_blob(blob))
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except Exception as exc:
                self._event("io-error", category, key,
                            f"store failed: {type(exc).__name__}")
                return False
            self._event("store", category, key)
            return True

    # -- load ---------------------------------------------------------------

    def load(self, category: str, key: str) -> Any | None:
        """The cached artifact, or None on miss/corruption (never
        raises).  Every call counts exactly one hit or one miss.
        Corruption is reported as a distinct event kind so the
        pipeline can emit a diagnostic rather than silently recompute."""
        with self.lock:
            value = self._load_value(category, key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self._event("hit", category, key)
            return value

    def _load_value(self, category: str, key: str) -> Any | None:
        blob = self.load_blob(category, key)
        if blob is None:
            return None
        try:
            value = pickle.loads(blob)
        except Exception as exc:
            self._event("corrupt", category, key,
                        f"unpickle failed: {type(exc).__name__}")
            self._discard(category, key)
            return None
        if value is None:
            # None is not a legal artifact (it is the miss sentinel);
            # treat a stored None as corruption
            self._event("corrupt", category, key, "null artifact")
            self._discard(category, key)
        return value

    def reject(self, category: str, key: str, detail: str) -> None:
        """Turn the hit :meth:`load` just counted into a miss: the
        caller found the artifact unusable.  It is reported and
        quarantined like any corrupt entry."""
        with self.lock:
            self.hits -= 1
            self.misses += 1
            self._event("corrupt", category, key, detail)
            self._discard(category, key)

    def load_blob(self, category: str, key: str) -> bytes | None:
        """The checksum-verified pickled artifact, or None (a miss,
        an I/O error or a quarantined corrupt entry, each reported as
        an event).  Counts nothing: :meth:`load` counts the lookup."""
        path = self._path(category, key)
        with self.lock:
            try:
                from .faults import CACHE_FAULTS
                CACHE_FAULTS.fire("load", category)
                raw = path.read_bytes()
            except FileNotFoundError:
                self._event("miss", category, key)
                return None
            except OSError as exc:
                self._event("io-error", category, key,
                            f"read failed: {type(exc).__name__}")
                return None
            if not raw:
                self._event("corrupt", category, key, "empty file")
                self._discard(category, key)
                return None
            blob = unframe_blob(raw)
            if blob is None:
                self._event("corrupt", category, key,
                            "checksum mismatch")
                self._discard(category, key)
            return blob

    # -- maintenance --------------------------------------------------------

    def close(self) -> None:
        """Release the handle's resources (nothing, for a local
        directory)."""

    def _discard(self, category: str, key: str) -> None:
        """Quarantine a bad entry so it is recomputed cleanly next time
        but stays inspectable (moved, not deleted; bounded count)."""
        quarantine_entry(self.root, self._path(category, key),
                         category, key)

    def drain_events(self) -> list[CacheEvent]:
        """Return and clear accumulated events (one compile's worth)."""
        with self.lock:
            out = self.events
            self.events = []
            return out

    def _event(self, kind: str, category: str, key: str,
               detail: str = "") -> None:
        with self.lock:
            self.events.append(CacheEvent(kind=kind, category=category,
                                          key=key, detail=detail))


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------

def quarantine_entry(root: Path, path: Path, category: str,
                     key: str) -> Path | None:
    """Move a corrupt entry into ``<root>/quarantine`` (bounded).

    Returns the quarantine path, or None if the entry could not be
    moved (it is removed instead; quarantining must never raise)."""
    qdir = Path(root) / QUARANTINE_DIR
    dest = qdir / f"{category}-{key[:24]}.pkl"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest)
    except OSError:
        try:
            Path(path).unlink()
        except OSError:
            pass
        return None
    try:
        kept = sorted(qdir.glob("*.pkl"), key=lambda p: p.stat().st_mtime)
        for stale in kept[:-QUARANTINE_MAX]:
            stale.unlink()
    except OSError:
        pass
    return dest


# ---------------------------------------------------------------------------
# fsck: offline integrity scan (the `repro cache fsck` engine)
# ---------------------------------------------------------------------------

@dataclass
class FsckCategory:
    """Integrity/size/age stats for one cache category directory."""

    entries: int = 0
    bytes: int = 0
    corrupt: int = 0
    oldest_s: float | None = None     # age of the oldest entry, seconds
    newest_s: float | None = None

    def to_dict(self) -> dict:
        return {"entries": self.entries, "bytes": self.bytes,
                "corrupt": self.corrupt,
                "oldest_s": round(self.oldest_s, 1)
                if self.oldest_s is not None else None,
                "newest_s": round(self.newest_s, 1)
                if self.newest_s is not None else None}


@dataclass
class FsckReport:
    """Result of one :func:`fsck_cache` scan."""

    root: str
    categories: dict[str, FsckCategory] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)
    stray_tmp: int = 0

    @property
    def scanned(self) -> int:
        return sum(c.entries for c in self.categories.values())

    @property
    def corrupt(self) -> int:
        return sum(c.corrupt for c in self.categories.values())

    @property
    def total_bytes(self) -> int:
        return sum(c.bytes for c in self.categories.values())

    def to_dict(self) -> dict:
        return {"root": self.root, "scanned": self.scanned,
                "corrupt": self.corrupt, "bytes": self.total_bytes,
                "stray_tmp": self.stray_tmp,
                "quarantined": list(self.quarantined),
                "categories": {name: c.to_dict() for name, c
                               in sorted(self.categories.items())}}


def verify_entry(raw: bytes) -> bool:
    """Is one stored entry intact: framed, checksummed, and a pickle
    of something other than None?"""
    payload = unframe_blob(raw)
    if payload is None:
        return False
    try:
        return pickle.loads(payload) is not None
    except Exception:
        return False


def fsck_cache(root: str | Path, *, quarantine: bool = True,
               now: float | None = None) -> FsckReport:
    """Scan a cache directory: verify every entry's checksum frame and
    unpickled shape, quarantine (or just report) corrupt ones, and
    collect per-category count/size/age stats.  Never raises on a bad
    entry — a cache fsck must be safe to run against a live cache."""
    root = Path(root)
    now = time.time() if now is None else now
    report = FsckReport(root=str(root))
    if not root.is_dir():
        return report
    for cat_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        if cat_dir.name == QUARANTINE_DIR:
            continue
        cat = report.categories.setdefault(cat_dir.name, FsckCategory())
        for path in sorted(cat_dir.rglob("*")):
            if not path.is_file():
                continue
            if path.suffix == ".tmp":
                report.stray_tmp += 1
                continue
            if path.suffix != ".pkl":
                continue              # crash reports, metadata, ...
            try:
                raw = path.read_bytes()
                size = path.stat().st_size
                age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue              # raced with a writer/evictor
            cat.entries += 1
            cat.bytes += size
            cat.oldest_s = age if cat.oldest_s is None \
                else max(cat.oldest_s, age)
            cat.newest_s = age if cat.newest_s is None \
                else min(cat.newest_s, age)
            if not verify_entry(raw):
                cat.corrupt += 1
                if quarantine:
                    key = path.stem
                    dest = quarantine_entry(root, path,
                                            cat_dir.name, key)
                    report.quarantined.append(
                        str(dest) if dest is not None else str(path))
    report.categories = {name: c for name, c
                         in report.categories.items() if c.entries}
    return report


# ---------------------------------------------------------------------------
# Cache construction: local directory or remote cache service
# ---------------------------------------------------------------------------

def open_cache(spec: str | Path | None) -> "SummaryCache | None":
    """The cache a ``cache_dir`` spec names.

    ``None`` means no cache; ``unix:PATH`` connects a
    :class:`repro.service.cacheservice.RemoteCache` client to a shared
    cache-service socket; anything else is a local directory."""
    if spec is None:
        return None
    text = str(spec)
    if text.startswith("unix:"):
        # imported lazily: the service layer depends on core, not the
        # other way around, except through this single seam
        from ..service.cacheservice import RemoteCache
        return RemoteCache(text[len("unix:"):])
    return SummaryCache(Path(spec))
