"""The content-addressed summary cache and per-unit fault containment.

Cache contract (§2's on-disk IELF summary files): an unchanged
(source, options) pair is a hit; editing one TU misses only that TU's
per-unit artifacts; changing any semantic option misses everything;
and a corrupt entry of any kind is *contained* — discarded with a
diagnostic and recomputed, never an exception, never wrong output.
"""

import pathlib
import pickle
from collections import Counter

import pytest

from repro.core import (
    CODE_BUDGET, CODE_CACHE, Compiler, CompilerOptions,
    inject_cache_fault, inject_fault,
)
from repro.core.summarycache import (
    ENTRY_MAGIC, QUARANTINE_DIR, QUARANTINE_MAX, SummaryCache,
    frame_blob, fsck_cache, quarantine_entry, unframe_blob,
)
from repro.transform import program_sources

SOURCES = [
    ("u1.c", """
struct item { int key; int weight; int pad; struct item *next; };
struct item *mk(int k) {
  struct item *p = (struct item*)malloc(sizeof(struct item));
  p->key = k; p->next = 0; return p;
}
"""),
    ("u2.c", """
struct item;
struct item *mk(int k);
int total(struct item *p) {
  int s = 0;
  while (p) { s = s + p->key; p = p->next; }
  return s;
}
"""),
    ("u3.c", """
struct item;
struct item *mk(int k);
int total(struct item *p);
int main() { printf("%d\\n", total(mk(5))); return 0; }
"""),
]


def opts(cache_dir, **kw):
    return CompilerOptions(cache_dir=cache_dir, **kw)


def fingerprint(result):
    return ([(d.type_name, d.action) for d in result.decisions],
            program_sources(result.transformed))


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


def cache_notes(result):
    return [d for d in result.diagnostics.by_code(CODE_CACHE)]


def summarized(result):
    """The per-unit summarize passes that ran: a summary-cache hit
    skips its pass."""
    return {name for name in result.pass_timings if "[" in name}


def hit_notes(result):
    return [d.message for d in cache_notes(result) if "hit(s)" in d.message]


def assert_every_summary_hits(result):
    """A warm compile: every unit's legality and deadfields summary
    came from the cache, so no summarize pass ran."""
    assert not summarized(result)
    assert hit_notes(result) == \
        [f"summary cache: {2 * len(SOURCES)} hit(s), 0 miss(es)"]


# ---------------------------------------------------------------------------
# hits and misses
# ---------------------------------------------------------------------------

def test_warm_recompile_hits_every_unit_summary(cache_dir):
    cold = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    warm = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert fingerprint(warm) == fingerprint(cold)
    assert len(summarized(cold)) == 2 * len(SOURCES)
    assert hit_notes(cold) == \
        [f"summary cache: 0 hit(s), {2 * len(SOURCES)} miss(es)"]
    # the warm compile parses again but summarizes no unit
    assert_every_summary_hits(warm)


def test_no_whole_program_entry_is_read_or_written(cache_dir,
                                                    monkeypatch):
    """The compile's only tier is the per-unit summary: a cached
    compile and its repeat load and store ``summary`` entries and
    nothing else."""
    calls = Counter()
    for name in ("load", "store"):
        def spy(self, category, *rest, _real=getattr(SummaryCache, name),
                _name=name):
            calls[_name, category] += 1
            return _real(self, category, *rest)
        monkeypatch.setattr(SummaryCache, name, spy)
    for _ in range(2):
        Compiler(opts(cache_dir)).compile_sources(SOURCES)
    n = 2 * len(SOURCES)
    assert calls == {("load", "summary"): 2 * n, ("store", "summary"): n}
    assert {p.name for p in pathlib.Path(cache_dir).iterdir()} == \
        {"summary"}


def test_edited_unit_misses_only_that_unit(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)
    edited = [(n, t.replace("s + p->key", "s + p->key + 0", 1)
               if n == "u2.c" else t) for n, t in SOURCES]
    result = Compiler(opts(cache_dir)).compile_sources(edited)
    # u1.c's and u3.c's legality and deadfields summaries were
    # reused: only u2.c was summarized
    assert summarized(result) == {"legality[u2.c]", "deadfields[u2.c]"}
    assert hit_notes(result) == ["summary cache: 4 hit(s), 2 miss(es)"]


def test_changed_options_miss_everything(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)
    result = Compiler(opts(cache_dir, scheme="SPBO")).compile_sources(SOURCES)
    assert len(summarized(result)) == 2 * len(SOURCES)
    summary = [d for d in cache_notes(result)
               if "hit(s)" in d.message]
    assert summary and "0 hit(s)" in summary[0].message


SAME_NAMED = [
    ("x.c", """
struct node { long a; long b; };
struct node *mk() {
  struct node *p = (struct node*)malloc(sizeof(struct node));
  p->a = 1; p->b = 2; return p;
}
"""),
    ("x.c", """
struct node;
struct node *mk();
int main() {
  struct node *n = mk();
  long *raw = (long *) n;
  printf("%ld\\n", raw[1]);
  return 0;
}
"""),
]


def test_same_named_units_keep_their_own_summaries(cache_dir):
    """Two units called ``x.c`` (the CLI names units by file name):
    each unit's summary is keyed by its own text, so the second unit's
    raw-pointer cast is never masked by the first unit's summary."""

    def legality(result):
        return {name: sorted(info.invalid_reasons)
                for name, info in result.legality.types.items()}

    want = legality(Compiler(CompilerOptions()).compile_sources(SAME_NAMED))
    assert "CSTF" in want["node"]
    cold = Compiler(opts(cache_dir)).compile_sources(SAME_NAMED)
    warm = Compiler(opts(cache_dir)).compile_sources(SAME_NAMED)
    assert legality(cold) == want
    assert legality(warm) == want


class _ReprOfX:
    def __repr__(self):
        return repr("x")


@pytest.mark.parametrize("a,b", [
    (("ab", "c"), ("a", "bc")),
    (("ab", ("c",)), ("a", ("bc",))),
    (("x",), (_ReprOfX(),)),
    (("x",), (repr("x"),)),
    ((("x",),), (["x"],)),
    (("1",), (1,)),
    (((),), ("",)),
], ids=["boundary", "nested-boundary", "repr-of-string",
        "string-vs-its-repr", "tuple-vs-list", "str-vs-int", "empty"])
def test_keys_stay_distinct_when_strings_hash_as_bytes(a, b):
    """``key_for`` hashes a string's bytes, not its ``repr()``: the
    parts stay separated, and a string never keys like a non-string
    whose ``repr()`` reads the same."""
    assert SummaryCache.key_for("summary", *a) \
        != SummaryCache.key_for("summary", *b)
    assert SummaryCache.key_for("summary", *a) \
        == SummaryCache.key_for("summary", *a)


def test_options_fingerprint_ignores_strategy_knobs():
    a = CompilerOptions(cache_dir=None).fingerprint()
    b = CompilerOptions(cache_dir="/tmp/x", verify_transforms=True,
                        strict=True).fingerprint()
    c = CompilerOptions(scheme="SPBO").fingerprint()
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# corruption is contained
# ---------------------------------------------------------------------------

def _damage_entries(cache_dir, mutate):
    paths = sorted(pathlib.Path(cache_dir).rglob("*.pkl"))
    assert paths, "expected cached entries"
    for p in paths:
        mutate(p)
    return len(paths)


@pytest.mark.parametrize("mutate", [
    lambda p: p.write_bytes(p.read_bytes()[:5]),          # truncated
    lambda p: p.write_bytes(b"\x00garbage\xff" * 8),      # not a pickle
    lambda p: p.write_bytes(b""),                         # empty file
    lambda p: p.write_bytes(frame_blob(pickle.dumps([1, 2, 3]))),  # type
], ids=["truncated", "garbage", "empty", "wrong-type"])
def test_corrupt_entries_recompute_with_diagnostic(cache_dir, mutate):
    cold = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    _damage_entries(cache_dir, mutate)
    result = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert fingerprint(result) == fingerprint(cold)
    assert not result.diagnostics.has_errors
    # recompute must also have repaired the cache: next compile is warm
    warm = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert_every_summary_hits(warm)
    assert fingerprint(warm) == fingerprint(cold)


def test_corrupt_entry_emits_cache_warning(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)
    _damage_entries(cache_dir, lambda p: p.write_bytes(b"\x80broken"))
    result = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    warnings = [d for d in result.diagnostics.warnings()
                if d.code == CODE_CACHE]
    assert warnings and "recomputed" in warnings[0].message


def test_unwritable_cache_dir_degrades_to_note(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the cache dir should be")
    result = Compiler(opts(blocker)).compile_sources(SOURCES)
    assert not result.diagnostics.has_errors
    assert fingerprint(result) == fingerprint(
        Compiler(CompilerOptions()).compile_sources(SOURCES))


# ---------------------------------------------------------------------------
# interaction with fault injection and budgets
# ---------------------------------------------------------------------------

def test_injected_faults_bypass_the_cache(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)  # populate
    with inject_fault("legality[u1.c]"):
        faulty = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    contained = faulty.diagnostics.contained()
    assert any(d.phase == "legality[u1.c]" for d in contained)
    assert "FAULT" in faulty.legality.types["item"].invalid_reasons
    assert faulty.degraded
    # the clean cache was neither consulted nor poisoned
    clean = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert not clean.diagnostics.contained()
    assert "FAULT" not in clean.legality.types["item"].invalid_reasons


def test_per_unit_fault_demotes_only_through_containment():
    with inject_fault("deadfields[u2.c]"):
        result = Compiler(CompilerOptions()).compile_sources(SOURCES)
    assert any(d.phase == "deadfields[u2.c]"
               for d in result.diagnostics.contained())
    # conservative merge: the faulted unit claims every field live
    usage = result.usage.types["item"]
    assert usage.dead_fields() == [] and usage.unused_fields() == []


def test_tiny_phase_budget_surfaces_per_unit_overruns():
    result = Compiler(CompilerOptions(phase_budget=1e-9)).compile_sources(
        SOURCES)
    overruns = result.diagnostics.by_code(CODE_BUDGET)
    assert overruns, "expected budget diagnostics"
    assert not result.diagnostics.has_errors
    assert result.transformed is not None


def test_contained_compiles_are_not_cached(cache_dir):
    with inject_fault("legality[u1.c]"):
        Compiler(opts(cache_dir)).compile_sources(SOURCES)
    # fault armed -> cache bypassed entirely: nothing was written
    assert not list(pathlib.Path(cache_dir).rglob("*.pkl"))


# ---------------------------------------------------------------------------
# disk faults: a full (or failing) disk is a diagnostic, not a failure
# ---------------------------------------------------------------------------

def test_enospc_on_store_compiles_uncached_with_note(cache_dir):
    baseline = Compiler(CompilerOptions()).compile_sources(SOURCES)
    with inject_cache_fault("enospc", op="store"):
        result = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    # the compile itself is untouched by the full disk
    assert not result.diagnostics.has_errors
    assert fingerprint(result) == fingerprint(baseline)
    # ...but the failed writes are surfaced as a cache diagnostic
    io_notes = [d for d in cache_notes(result)
                if "cache I/O problem" in d.message]
    assert io_notes
    # nothing landed on disk: the next compile is cold, not corrupt
    cold = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert len(summarized(cold)) == 2 * len(SOURCES)
    assert fingerprint(cold) == fingerprint(baseline)


def test_eio_on_load_is_a_miss_not_a_crash(cache_dir):
    cold = Compiler(opts(cache_dir)).compile_sources(SOURCES)  # populate
    with inject_cache_fault("eio", op="load"):
        result = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert not result.diagnostics.has_errors
    assert fingerprint(result) == fingerprint(cold)
    assert any("cache I/O problem" in d.message
               for d in cache_notes(result))
    # the fault was transient: entries are intact, next compile warm
    warm = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert_every_summary_hits(warm)


def test_transient_enospc_disarms_after_n_fires(cache_dir):
    with inject_cache_fault("enospc", op="store", times=1):
        result = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert not result.diagnostics.has_errors
    # only the first store failed; later entries were written, so
    # *some* cache state exists for the next compile
    assert list(pathlib.Path(cache_dir).rglob("*.pkl"))


# ---------------------------------------------------------------------------
# checksum framing and quarantine
# ---------------------------------------------------------------------------

def test_entries_on_disk_are_checksum_framed(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)
    paths = sorted(pathlib.Path(cache_dir).rglob("*.pkl"))
    assert paths
    for p in paths:
        raw = p.read_bytes()
        assert raw.startswith(ENTRY_MAGIC)
        assert unframe_blob(raw)


def test_bitflip_fails_checksum_and_quarantines(cache_dir):
    cold = Compiler(opts(cache_dir)).compile_sources(SOURCES)

    def flip_last_byte(p):
        raw = bytearray(p.read_bytes())
        raw[-1] ^= 0xFF
        p.write_bytes(bytes(raw))

    damaged = _damage_entries(cache_dir, flip_last_byte)
    result = Compiler(opts(cache_dir)).compile_sources(SOURCES)
    assert fingerprint(result) == fingerprint(cold)
    assert any("recomputed" in d.message
               for d in result.diagnostics.warnings()
               if d.code == CODE_CACHE)
    # the damaged entries moved into quarantine for post-mortem
    qdir = pathlib.Path(cache_dir) / QUARANTINE_DIR
    assert qdir.is_dir()
    assert len(list(qdir.glob("*.pkl"))) == min(damaged,
                                                QUARANTINE_MAX)


def test_unframed_entry_is_quarantined_as_corrupt(tmp_path):
    """Every key carries the code digest, so no key addresses an entry
    written before framing: an unframed file is a damaged one.  A load
    quarantines it as corrupt instead of unpickling it, and so does
    fsck."""
    root = tmp_path / "cache"
    cache = SummaryCache(root)
    key = SummaryCache.key_for("summary", "unframed")
    path = cache._path("summary", key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"old": True}))   # no frame
    assert cache.load("summary", key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert [e.kind for e in cache.drain_events()] == ["corrupt"]
    assert not path.exists()
    assert list((root / QUARANTINE_DIR).glob("summary-*.pkl"))
    path.write_bytes(pickle.dumps({"old": True}))
    report = fsck_cache(root)
    assert report.corrupt == 1 and not path.exists()
    assert "legacy" not in report.to_dict()["categories"]["summary"]


def test_quarantine_is_bounded(tmp_path):
    root = tmp_path / "cache"
    cache = SummaryCache(root)
    for i in range(QUARANTINE_MAX + 8):
        key = SummaryCache.key_for("parse", f"bad{i}")
        path = cache._path("parse", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"junk")
        quarantine_entry(root, path, "parse", key)
    kept = list((root / QUARANTINE_DIR).glob("*.pkl"))
    assert len(kept) == QUARANTINE_MAX


# ---------------------------------------------------------------------------
# fsck: the `repro cache fsck` engine
# ---------------------------------------------------------------------------

def test_fsck_clean_cache_reports_no_corruption(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)
    report = fsck_cache(cache_dir)
    assert report.scanned > 0
    assert report.corrupt == 0
    assert report.quarantined == []
    assert report.total_bytes > 0
    for cat in report.categories.values():
        assert cat.entries > 0 and cat.corrupt == 0
        assert cat.oldest_s is not None


def test_fsck_quarantines_corrupt_entries(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)
    victim = sorted(pathlib.Path(cache_dir).rglob("*.pkl"))[0]
    victim.write_bytes(frame_blob(b"payload")[:-2])     # bad digest
    report = fsck_cache(cache_dir)
    assert report.corrupt == 1
    assert len(report.quarantined) == 1
    assert not victim.exists()
    # the scan healed the cache: a re-scan is clean
    again = fsck_cache(cache_dir)
    assert again.corrupt == 0


def test_fsck_report_only_mode_leaves_entries_in_place(cache_dir):
    Compiler(opts(cache_dir)).compile_sources(SOURCES)
    victim = sorted(pathlib.Path(cache_dir).rglob("*.pkl"))[0]
    victim.write_bytes(b"")
    report = fsck_cache(cache_dir, quarantine=False)
    assert report.corrupt == 1
    assert report.quarantined == []
    assert victim.exists()


def test_fsck_missing_root_is_empty_not_an_error(tmp_path):
    report = fsck_cache(tmp_path / "never-created")
    assert report.scanned == 0 and report.corrupt == 0
    assert report.to_dict()["categories"] == {}


# ---------------------------------------------------------------------------
# accounting: one hit or one miss per lookup
# ---------------------------------------------------------------------------

def _damage(path: pathlib.Path, how: str) -> None:
    if how == "checksum":
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
    elif how == "empty":
        path.write_bytes(b"")
    elif how == "unpickle":
        path.write_bytes(frame_blob(b"not a pickle"))
    elif how == "null":
        path.write_bytes(frame_blob(pickle.dumps(None)))
    elif how == "missing":
        path.unlink()


@pytest.mark.parametrize(
    "how", ["checksum", "empty", "unpickle", "null", "missing"])
def test_a_failed_lookup_counts_one_miss(tmp_path, how):
    cache = SummaryCache(tmp_path / "cache")
    key = SummaryCache.key_for("parse", "entry")
    assert cache.store("parse", key, {"ok": True})
    _damage(cache._path("parse", key), how)
    assert cache.load("parse", key) is None
    assert (cache.hits, cache.misses) == (0, 1)


@pytest.mark.parametrize("how", ["checksum", "empty"])
def test_cache_service_counts_a_corrupt_lookup_once(tmp_path, how):
    from repro.service.cacheservice import CacheStore
    store = CacheStore(tmp_path / "cache")
    key = SummaryCache.key_for("parse", "entry")
    assert store.put("parse", key, pickle.dumps({"ok": True}))
    _damage(store.cache._path("parse", key), how)
    assert store.get("parse", key) == (None, "corrupt")
    stats = store.stats()
    assert (stats["hits"], stats["misses"], stats["corrupt"]) == (0, 1, 1)
