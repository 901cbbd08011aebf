"""The reply memo: :func:`repro.api.execute_tier` answers an exact
repeat of a deterministic request from one ``reply`` summary-cache
entry.

- a hit returns the cold payload (``timings`` aside) for every pinned
  (program, op) of ``test_payload_parity`` and the greedy compares,
  with exactly the restore notes plus the cold reply's own notes, and
  a repeat of a reply that warned recomputes it;
- nothing reads or writes a ``reply`` entry while a fault registry is
  armed or under a wall-clock search budget;
- a reply with a warning or an error (a contained pass failure, a
  parse error) is never stored;
- a bit-flipped entry is quarantined with a ``cache`` warning and
  recomputed to the same payload;
- every cache key carries the digest of the compiler's code, so a
  changed compiler recomputes;
- through a live farm a repeat is a ``reply`` hit at the shared cache
  service and equals :meth:`Session.execute`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import CompileOptions, CompileRequest, REPLY_CATEGORY, \
    SearchOptions, Session
from repro.core import pipeline, summarycache
from repro.core.diagnostics import CODE_CACHE
from repro.core.faults import PROC_FAULTS, ProcessFaultSpec, \
    inject_cache_fault, inject_fault
from repro.core.summarycache import SummaryCache

from .test_cli import DEMO
from .test_payload_parity import COMPARE_DIGESTS, COMPARES, \
    PAYLOAD_DIGESTS, PROGRAMS, _sources

OPS = ("analyze", "advise", "transform", "compare")

#: the diagnostics of every hit, ahead of the stored reply's own notes
RESTORE_NOTES = [
    {"severity": "note", "phase": "reply",
     "message": "reply restored from summary cache", "count": 1,
     "code": "cache"},
    {"severity": "note", "phase": "cache",
     "message": "summary cache: 1 hit(s), 0 miss(es)", "count": 1,
     "code": "cache"},
]


def _execute(cache_dir, op, sources, options=None):
    return Session(cache_dir=str(cache_dir)).execute(CompileRequest(
        op=op, sources=sources, options=options or CompileOptions()))


def _payload(reply) -> dict:
    return {k: v for k, v in reply.payload.items() if k != "timings"}


def _own_notes(reply) -> list:
    return [d for d in reply.diagnostics if d.get("code") != CODE_CACHE]


def _restored(reply) -> bool:
    return any(d["phase"] == "reply" for d in reply.diagnostics)


def _pinned_digest(payload: dict, diagnostics: list) -> str:
    """``test_payload_parity``'s digest of an uncached reply."""
    blob = json.dumps({"payload": payload, "diagnostics": diagnostics},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _entries(cache_dir, category: str) -> list[Path]:
    return sorted((Path(cache_dir) / category).rglob("*.pkl"))


def _assert_repeat_matches_cold(cache_dir, op, sources, options, digest):
    cold = _execute(cache_dir, op, sources, options)
    again = _execute(cache_dir, op, sources, options)
    assert cold.ok and again.ok and not _restored(cold)
    assert _payload(again) == _payload(cold)
    if all(d["severity"] == "note" for d in cold.diagnostics):
        assert again.diagnostics == RESTORE_NOTES + _own_notes(cold)
        assert set(again.payload["timings"]) == {"reply"}
    else:
        # a reply that warns is never stored: the repeat recomputes it
        assert not _restored(again)
        assert _own_notes(again) == _own_notes(cold)
    # the cold reply minus its cache notes is the uncached reply, so
    # the repeat reproduces the pinned digest too
    assert _pinned_digest(_payload(again), _own_notes(cold)) == digest


@pytest.mark.slow
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_repeat_matches_every_pinned_payload(program, tmp_path):
    for op in ("analyze", "advise", "transform"):
        _assert_repeat_matches_cold(tmp_path, op, _sources(program),
                                    CompileOptions(),
                                    PAYLOAD_DIGESTS[(program, op)])


@pytest.mark.slow
@pytest.mark.parametrize("program", sorted(
    p for p, mode in COMPARE_DIGESTS if mode == "greedy"))
def test_repeat_matches_every_pinned_greedy_compare(program, tmp_path):
    sources, options = COMPARES[(program, "greedy")]
    _assert_repeat_matches_cold(tmp_path, "compare", sources, options,
                                COMPARE_DIGESTS[(program, "greedy")])


@pytest.mark.parametrize("op", OPS)
def test_hit_carries_only_the_restore_notes(op, tmp_path):
    sources = [("demo.c", DEMO)]
    cold = _execute(tmp_path, op, sources)
    assert not _own_notes(cold)
    hit = _execute(tmp_path, op, sources)
    assert hit.diagnostics == RESTORE_NOTES
    assert _payload(hit) == _payload(cold)
    assert len(_entries(tmp_path, REPLY_CATEGORY)) == 1


def test_key_covers_every_option_the_payload_depends_on(tmp_path):
    sources = [("demo.c", DEMO)]
    _execute(tmp_path, "compare", sources)
    greedy = SearchOptions(engine="greedy", budget_s=0)
    for options in (CompileOptions(ts=0.5), CompileOptions(relax=True),
                    CompileOptions(verify=False),
                    CompileOptions(cycle_limit=10 ** 9),
                    CompileOptions(search=greedy)):
        assert not _restored(_execute(tmp_path, "compare", sources,
                                      options))
    # another op on the same sources is a miss too, but both of its
    # unit summaries hit: only the reply missed
    advise = _execute(tmp_path, "advise", sources)
    assert not _restored(advise)
    assert [d["message"] for d in advise.diagnostics
            if d.get("code") == CODE_CACHE] == \
        ["summary cache: 2 hit(s), 1 miss(es)"]


def test_no_cache_option_no_memo(tmp_path):
    sources = [("demo.c", DEMO)]
    for _ in range(2):
        reply = _execute(tmp_path, "analyze", sources,
                         CompileOptions(cache=False))
        assert not reply.diagnostics
    assert not (tmp_path / REPLY_CATEGORY).exists()


class _Recorder:
    """Every category the summary cache loads or stores."""

    def __init__(self, monkeypatch):
        self.loaded: list[str] = []
        self.stored: list[str] = []
        load, store = SummaryCache.load, SummaryCache.store

        def spy_load(cache, category, key):
            self.loaded.append(category)
            return load(cache, category, key)

        def spy_store(cache, category, key, value):
            self.stored.append(category)
            return store(cache, category, key, value)

        monkeypatch.setattr(SummaryCache, "load", spy_load)
        monkeypatch.setattr(SummaryCache, "store", spy_store)


@contextmanager
def _process_fault_armed():
    PROC_FAULTS.arm([ProcessFaultSpec("apply", "kill")])
    try:
        yield
    finally:
        PROC_FAULTS.disarm()


def _armed_fault_registry(kind: str):
    """A context arming one registry with a fault the ``analyze`` of
    the demo never fires, so only the bypass keeps the memo out."""
    if kind == "passes":
        return inject_fault("apply", "raise")
    if kind == "cache":
        return inject_cache_fault("eio", op="load", category="search")
    return _process_fault_armed()


@pytest.mark.parametrize("kind", ["passes", "process", "cache"])
def test_armed_fault_registry_bypasses_the_memo(kind, tmp_path,
                                                monkeypatch):
    sources = [("demo.c", DEMO)]
    _execute(tmp_path, "analyze", sources)
    assert _entries(tmp_path, REPLY_CATEGORY)
    spy = _Recorder(monkeypatch)
    with _armed_fault_registry(kind):
        reply = _execute(tmp_path, "analyze", sources)
        fresh = _execute(tmp_path / "fresh", "analyze", sources)
    assert reply.ok and fresh.ok
    assert REPLY_CATEGORY not in spy.loaded + spy.stored
    assert not _restored(reply)
    assert not (tmp_path / "fresh" / REPLY_CATEGORY).exists()


def test_wall_clock_search_budget_bypasses_the_memo(tmp_path,
                                                    monkeypatch):
    spy = _Recorder(monkeypatch)
    timed = CompileOptions(search=SearchOptions(engine="greedy",
                                                budget_s=5.0))
    for _ in range(2):
        reply = _execute(tmp_path, "advise", [("demo.c", DEMO)], timed)
        assert reply.ok and not _restored(reply)
    assert REPLY_CATEGORY not in spy.loaded + spy.stored
    # the same search without a wall clock is deterministic
    untimed = CompileOptions(search=SearchOptions(engine="greedy",
                                                  budget_s=0))
    _execute(tmp_path, "advise", [("demo.c", DEMO)], untimed)
    assert _restored(_execute(tmp_path, "advise", [("demo.c", DEMO)],
                              untimed))


def test_contained_pass_failure_is_not_stored(tmp_path, monkeypatch):
    def broken(program, legality):
        raise RuntimeError("escape analysis bug")

    monkeypatch.setattr(pipeline, "analyze_escapes", broken)
    for _ in range(2):
        reply = _execute(tmp_path, "advise", [("demo.c", DEMO)])
        assert reply.ok and not _restored(reply)
        assert any(d["severity"] == "warning" and d["phase"] == "escape"
                   for d in reply.diagnostics)
    assert not _entries(tmp_path, REPLY_CATEGORY)


def test_parse_error_is_not_stored(tmp_path):
    sources = [("bad.c", "int main() { return 0 }\n")]
    for _ in range(2):
        reply = _execute(tmp_path, "analyze", sources)
        assert not _restored(reply)
        assert any(d["severity"] == "error" for d in reply.diagnostics)
    assert not _entries(tmp_path, REPLY_CATEGORY)


def test_bit_flipped_entry_is_quarantined_and_recomputed(tmp_path):
    sources = [("demo.c", DEMO)]
    cold = _execute(tmp_path, "transform", sources)
    [entry] = _entries(tmp_path, REPLY_CATEGORY)
    raw = bytearray(entry.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    entry.write_bytes(bytes(raw))

    again = _execute(tmp_path, "transform", sources)
    assert again.ok and not _restored(again)
    assert _payload(again) == _payload(cold)
    warned = [d for d in again.diagnostics
              if d["severity"] == "warning" and d.get("code") == CODE_CACHE]
    assert len(warned) == 1 and "reply corrupt" in warned[0]["message"]
    assert list((tmp_path / "quarantine").glob(f"{REPLY_CATEGORY}-*"))
    # a reply that warned is not stored; the next clean one is
    assert not _entries(tmp_path, REPLY_CATEGORY)
    _execute(tmp_path, "transform", sources)
    assert _restored(_execute(tmp_path, "transform", sources))


class TestCodeDigest:
    def test_every_key_carries_the_code_digest(self, monkeypatch):
        key = SummaryCache.key_for("summary", "material")
        assert SummaryCache.key_for("summary", "material") == key
        monkeypatch.setattr(summarycache, "code_digest",
                            lambda: "another compiler")
        assert SummaryCache.key_for("summary", "material") != key

    def test_changed_code_recomputes_a_warm_request(self, tmp_path,
                                                    monkeypatch):
        sources = [("demo.c", DEMO)]
        cold = _execute(tmp_path, "advise", sources)
        assert _restored(_execute(tmp_path, "advise", sources))
        monkeypatch.setattr(summarycache, "code_digest",
                            lambda: "another compiler")
        other = _execute(tmp_path, "advise", sources)
        assert not _restored(other)
        # nothing an older compiler wrote is addressed: no reply, no
        # unit summary
        assert [d["message"] for d in other.diagnostics] == \
            ["summary cache: 0 hit(s), 3 miss(es)"]
        assert _payload(other) == _payload(cold)

    def test_digest_is_not_computed_at_import(self):
        code = ("import repro, repro.api, repro.cli\n"
                "from repro.core.summarycache import code_digest\n"
                "print(code_digest.cache_info().currsize)\n")
        src = str(Path(summarycache.__file__).resolve().parents[2])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "0"


def test_live_farm_repeat_is_a_reply_hit():
    """Through a router, a daemon and the shared cache service, a
    repeated ``analyze`` is answered from the ``reply`` entry the
    first one wrote, and equals the request run in process."""
    from repro.service import (
        CacheServer, CacheStore, ClusterConfig, CompileServer, Router,
        RouterServer, ShardSpec, Supervisor, SupervisorConfig,
        single_request, wait_ready,
    )
    tmp = tempfile.mkdtemp(prefix="repro-memo-")
    cache_sock = os.path.join(tmp, "c.sock")
    cache = CacheServer(cache_sock, CacheStore(os.path.join(tmp, "cache")))
    cache.start()
    shard_sock = os.path.join(tmp, "s0.sock")
    daemon = CompileServer(shard_sock, Supervisor(SupervisorConfig(
        pool_size=1, cache_dir=f"unix:{cache_sock}",
        crash_dir=os.path.join(tmp, "crashes"))))
    daemon.start()
    router = RouterServer(os.path.join(tmp, "r.sock"), Router(
        ClusterConfig(shards=[ShardSpec("s0", shard_sock)],
                      cache_socket=cache_sock)))
    router.start()
    try:
        assert wait_ready(shard_sock, timeout=30)
        request = {"op": "analyze", "sources": [["demo.c", DEMO]]}
        replies = [single_request(router.socket_path, request,
                                  timeout=120) for _ in range(2)]
        metrics = single_request(cache_sock,
                                 {"op": "stats"})["stats"]["metrics"]
    finally:
        router.shutdown()
        daemon.shutdown()
        cache.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
    assert [r["status"] for r in replies] == ["ok", "ok"]
    assert replies[1]["diagnostics"] == RESTORE_NOTES
    assert metrics.get("cache.hits{category=reply}") == 1
    assert metrics.get("cache.misses{category=reply}") == 1
    assert metrics.get("cache.puts{category=reply}") == 1
    local = Session().execute(CompileRequest.from_dict(request))
    for reply in replies:
        assert {k: v for k, v in reply["payload"].items()
                if k != "timings"} == _payload(local)
