"""Supervised compile service tests: protocol, breaker, supervisor
resilience (worker kill / hang / OOM / slow start), degradation
ladder, load shedding, CLI exit codes, and serial-vs-service parity
on every workload."""

from __future__ import annotations

import json
import os
import socket as socket_mod
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import CODE_BREAKER, CODE_CACHE, CODE_DEADLINE, \
    CODE_DEGRADED, CODE_HANG, CODE_WORKER, Compiler, CompilerOptions
from repro.service import (
    CompileServer, ProtocolError, ServiceClient, Supervisor,
    SupervisorConfig, decode, encode, parse_compile, single_request,
    wait_ready,
)
from repro.service.breaker import CircuitBreaker
from repro.service.worker import _type_rows
from repro.workloads import ALL_WORKLOADS

from .test_cli import UNRUNNABLE

DEMO = """
struct item { long key; long val; long rare1; long rare2; double dead; };
struct item *tab;
int main() {
    int i; int it; long s = 0;
    tab = (struct item*) malloc(300 * sizeof(struct item));
    for (i = 0; i < 300; i++) { tab[i].key = i; tab[i].val = 2 * i;
        tab[i].rare1 = i; tab[i].rare2 = -i; tab[i].dead = 0.1; }
    for (it = 0; it < 10; it++)
        for (i = 0; i < 300; i++) s += tab[i].key + tab[i].val;
    for (i = 0; i < 300; i++) s += tab[i].rare1 - tab[i].rare2;
    printf("s=%ld\\n", s);
    return 0;
}
"""

BROKEN = "struct bad { int x; ;\nint main() { return 0 }\n"


def _tmpdir() -> str:
    # short paths: AF_UNIX socket paths are length-limited (~107 bytes)
    return tempfile.mkdtemp(prefix="repro-svc-")


@contextmanager
def service(queue_max: int = 8, **cfg_kw):
    """A running daemon on a fresh Unix socket; yields
    (socket_path, server, supervisor)."""
    tmp = _tmpdir()
    cfg_kw.setdefault("pool_size", 1)
    cfg_kw.setdefault("deadline", 60.0)
    cfg_kw.setdefault("cache_dir", os.path.join(tmp, "cache"))
    supervisor = Supervisor(SupervisorConfig(**cfg_kw))
    sock = os.path.join(tmp, "repro.sock")
    server = CompileServer(sock, supervisor, queue_max=queue_max)
    server.start()
    assert wait_ready(sock, timeout=30), "daemon failed to become ready"
    try:
        yield sock, server, supervisor
    finally:
        server.shutdown()


def compile_request(op: str, source: str = DEMO, **extra) -> dict:
    return {"id": 1, "op": op, "sources": [["demo.c", source]], **extra}


def codes(resp: dict) -> set:
    return {d.get("code") for d in resp["diagnostics"] if d.get("code")}


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_roundtrip(self):
        obj = {"op": "ping", "id": 7, "nested": {"a": [1, 2]}}
        assert decode(encode(obj)) == obj

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2, 3]\n")

    def test_request_validation(self):
        with pytest.raises(ProtocolError):
            parse_compile({"op": "explode"})
        with pytest.raises(ProtocolError):
            parse_compile({"op": "analyze"})          # no sources
        with pytest.raises(ProtocolError):
            parse_compile({"op": "analyze",
                           "sources": [["a.c", 42]]})
        with pytest.raises(ProtocolError):
            parse_compile({"op": "analyze",
                           "sources": [["a.c", "int x;"]],
                           "deadline": -1})
        with pytest.raises(ProtocolError):
            parse_compile(
                {"op": "analyze", "sources": [["a.c", "int x;"]],
                 "faults": [{"stage": "apply", "mode": "frobnicate"}]})

    def test_ladder_and_fingerprint(self):
        req = parse_compile(compile_request("transform"))
        assert req.ladder() == ("full", "advisory", "legality")
        other = parse_compile(compile_request("transform", "int x;"))
        assert req.source_fingerprint() != other.source_fingerprint()
        again = parse_compile(compile_request("transform"))
        assert req.source_fingerprint() == again.source_fingerprint()


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class TestBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = [0.0]
        br = CircuitBreaker(threshold=threshold, cooldown=cooldown,
                            clock=lambda: clock[0])
        return br, clock

    def test_trips_after_threshold(self):
        br, _ = self.make(threshold=3)
        for _ in range(2):
            br.record_failure("k")
            assert br.allow("k")
        br.record_failure("k")
        assert br.state("k") == "open"
        assert not br.allow("k")
        assert br.allow("other")       # keys are independent

    def test_success_resets_the_count(self):
        br, _ = self.make(threshold=2)
        br.record_failure("k")
        br.record_success("k")
        br.record_failure("k")
        assert br.allow("k")           # not tripped: count was reset

    def test_half_open_probe_single_admission(self):
        br, clock = self.make(threshold=1, cooldown=5.0)
        br.record_failure("k")
        assert not br.allow("k")
        clock[0] = 6.0
        assert br.allow("k")           # the probe
        assert not br.allow("k")       # concurrent caller still blocked
        br.record_success("k")
        assert br.allow("k")           # closed again

    def test_failed_probe_reopens(self):
        br, clock = self.make(threshold=1, cooldown=5.0)
        br.record_failure("k")
        clock[0] = 6.0
        assert br.allow("k")
        br.record_failure("k")
        assert not br.allow("k")       # re-opened for a fresh cooldown
        clock[0] = 10.0
        assert not br.allow("k")
        clock[0] = 12.0
        assert br.allow("k")

    def test_snapshot(self):
        br, _ = self.make(threshold=1)
        br.record_failure("k")
        snap = br.snapshot()
        assert snap["keys"]["k"]["state"] == "open"
        assert snap["keys"]["k"]["trips"] == 1


# ---------------------------------------------------------------------------
# Service basics
# ---------------------------------------------------------------------------

class TestServiceBasics:
    def test_analyze_ok(self):
        with service() as (sock, _server, _sup):
            resp = single_request(sock, compile_request("analyze"))
            assert resp["status"] == "ok"
            assert resp["tier"] == "advisory"
            assert resp["attempts"] == 1
            assert resp["payload"]["table1"] == [1, 1, 1]
            assert resp["payload"]["types"]["item"]["plan"] == "peel"

    def test_ping_stats_and_structured_errors(self):
        with service() as (sock, _server, _sup):
            assert single_request(sock, {"op": "ping"})["pong"] is True
            stats = single_request(sock, {"op": "stats"})["stats"]
            assert stats["supervisor"]["pool_size"] == 1
            assert stats["server"]["queue_max"] == 8
            # unknown op: structured error, connection survives
            with ServiceClient(sock) as client:
                bad = client.request({"op": "explode"})
                assert bad["status"] == "error"
                assert "unknown op" in bad["error"]["message"]
                # malformed JSON on the same connection
                client._sock.sendall(b"this is not json\n")
                line, oversized = client._reader.readline()
                assert not oversized
                garbled = decode(line)
                assert garbled["status"] == "error"
                # and the connection still serves real requests
                good = client.request(compile_request("analyze"))
                assert good["status"] == "ok"

    def test_syntax_errors_travel_as_diagnostics(self):
        with service() as (sock, _server, _sup):
            resp = single_request(sock, compile_request("analyze",
                                                        BROKEN))
            assert resp["status"] == "ok"      # the tier was served
            assert any(d["severity"] == "error"
                       for d in resp["diagnostics"])

    def test_program_trap_is_served_as_a_diagnostic(self):
        """A compare whose program traps is served at the full tier on
        the first attempt: no retry, no breaker failure, no degraded
        tier."""
        source, reason = UNRUNNABLE["invalid-free"]
        with service(max_retries=2) as (sock, _server, _sup):
            resp = single_request(sock, compile_request("compare", source))
        assert (resp["status"], resp["tier"], resp["attempts"]) == \
            ("ok", "full", 1)
        assert "compare" not in resp["payload"]
        assert [(d["phase"], d["message"]) for d in resp["diagnostics"]
                if d["severity"] == "error"] == [("compare", reason)]

    def test_load_shedding_busy_response(self):
        with service(queue_max=0, pool_size=1, hang_timeout=0.4,
                     max_retries=0) as (sock, server, _sup):
            slow = compile_request(
                "transform", deadline=30, max_retries=0,
                faults=[{"stage": "apply", "mode": "hang",
                         "seconds": 30, "times": 1}])
            results = {}

            def run_slow():
                results["slow"] = single_request(sock, slow)

            t = threading.Thread(target=run_slow)
            t.start()
            time.sleep(0.25)           # let the slow request take the slot
            fast = single_request(sock, compile_request("analyze"))
            assert fast["status"] == "busy"
            assert fast["retry_after"] > 0
            t.join(timeout=60)
            # the hung request was still answered (degraded, not dropped)
            assert results["slow"]["status"] == "degraded"
            assert server.stats()["server"]["shed"] == 1


# ---------------------------------------------------------------------------
# Resilience: worker kill / hang / OOM / slow start / breaker
# ---------------------------------------------------------------------------

class TestResilience:
    def test_worker_kill_mid_transform_acceptance(self):
        """The ISSUE acceptance scenario: a worker SIGKILLed mid-apply
        still yields a structured response, the daemon stays up, the
        retry (and the next identical request) hit the warm summary
        cache, and a crash report names the pass."""
        with service(pool_size=1, max_retries=2) as (sock, _srv, sup):
            killed = single_request(sock, compile_request(
                "transform",
                faults=[{"stage": "apply", "mode": "kill",
                         "times": 1}]))
            assert killed["status"] == "ok"          # retry succeeded
            assert killed["tier"] == "full"
            assert killed["attempts"] == 2
            assert killed["respawns"] >= 1
            assert CODE_WORKER in codes(killed)
            # the retry restored the FE from the cache the first
            # (killed) attempt populated before dying in the BE
            assert CODE_CACHE in codes(killed)
            assert killed["payload"]["transformed_types"]

            # crash report persisted, naming the pass the worker died in
            crash_dir = Path(sup.config.crash_dir)
            reports = [json.loads(p.read_text())
                       for p in crash_dir.glob("crash-*.json")]
            assert any(r["last_pass"] == "apply"
                       and r["reason"] == "crash"
                       and r["op"] == "transform"
                       and r["fingerprint"] for r in reports)

            # daemon is alive and the identical request is warm
            again = single_request(sock, compile_request("transform"))
            assert again["status"] == "ok"
            assert again["attempts"] == 1
            assert CODE_CACHE in codes(again)
            assert again["payload"]["transformed_sources"] == \
                killed["payload"]["transformed_sources"]

    def test_reply_counts_only_its_own_respawns(self):
        """A request that never lost its worker replies ``respawns: 0``
        even though another request's worker was killed and replaced
        while it ran."""
        with service(pool_size=2, max_retries=2) as (sock, _srv, sup):
            held: dict = {}

            def hold() -> None:
                # a heartbeat-keeping hang at job receipt keeps this
                # request on its (healthy) worker for three seconds
                held["resp"] = single_request(sock, compile_request(
                    "analyze",
                    faults=[{"stage": "request", "mode": "hang",
                             "seconds": 3.0, "silent": False}]),
                    timeout=120)

            t = threading.Thread(target=hold)
            t.start()
            deadline = time.monotonic() + 10
            while sup.stats()["supervisor"]["idle_workers"] > 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            killed = single_request(sock, compile_request(
                "transform",
                faults=[{"stage": "apply", "mode": "kill",
                         "times": 1}]), timeout=120)
            t.join(timeout=120)
            assert killed["status"] == "ok"
            assert killed["attempts"] == 2
            assert killed["respawns"] == 1
            assert held["resp"]["status"] == "ok"
            assert held["resp"]["attempts"] == 1
            assert held["resp"]["respawns"] == 0
            assert sup.stats()["supervisor"]["respawns"] == 1

    def test_hang_detected_by_heartbeat_loss(self):
        with service(pool_size=1, hang_timeout=0.4) as (sock, _s, sup):
            resp = single_request(sock, compile_request(
                "transform", deadline=30, max_retries=0,
                faults=[{"stage": "apply", "mode": "hang",
                         "seconds": 60, "times": 9}]))
            # full tier hung and was killed; ladder served advisory
            assert resp["status"] == "degraded"
            assert resp["tier"] == "advisory"
            assert CODE_HANG in codes(resp)
            assert CODE_DEGRADED in codes(resp)
            assert resp["payload"]["table1"] == [1, 1, 1]
            assert sup.stats()["supervisor"]["hang_kills"] >= 1

    def test_deadline_expiry_with_live_heartbeat(self):
        # silent=False keeps the heartbeat beating, so only the
        # per-request deadline can catch the stall
        with service(pool_size=1, hang_timeout=5.0) as (sock, _s, sup):
            resp = single_request(sock, compile_request(
                "transform", deadline=1.0, max_retries=0,
                faults=[{"stage": "apply", "mode": "hang",
                         "seconds": 60, "times": 9,
                         "silent": False}]))
            assert resp["status"] == "degraded"
            assert resp["tier"] == "advisory"
            assert CODE_DEADLINE in codes(resp)
            assert sup.stats()["supervisor"]["deadline_kills"] >= 1

    def test_simulated_oom_is_fatal_then_retried(self):
        with service(pool_size=1, max_retries=1) as (sock, _s, sup):
            resp = single_request(sock, compile_request(
                "transform",
                faults=[{"stage": "heuristics", "mode": "oom",
                         "times": 1}]))
            assert resp["status"] == "ok"
            assert resp["attempts"] == 2
            assert CODE_WORKER in codes(resp)
            reports = [json.loads(p.read_text()) for p in
                       Path(sup.config.crash_dir).glob("crash-*.json")]
            assert any(r["reason"] == "fatal"
                       and "out-of-memory" in r["detail"]
                       for r in reports)

    def test_slow_start_worker_is_replaced(self):
        with service(pool_size=1, ready_timeout=0.5,
                     boot_faults=[{"stage": "start",
                                   "mode": "slow-start",
                                   "seconds": 30}],
                     boot_fault_spawns=1) as (sock, _s, sup):
            # start() only returned because the slow worker was killed
            # and replaced by a healthy one
            assert sup.stats()["supervisor"]["spawns"] >= 2
            resp = single_request(sock, compile_request("analyze"))
            assert resp["status"] == "ok"
            reports = [json.loads(p.read_text()) for p in
                       Path(sup.config.crash_dir).glob("crash-*.json")]
            assert any(r["reason"] == "slow-start" for r in reports)

    def test_breaker_opens_and_short_circuits(self):
        with service(pool_size=1, max_retries=0, breaker_threshold=2,
                     breaker_cooldown=300.0) as (sock, _s, sup):
            poisoned = compile_request(
                "transform",
                faults=[{"stage": "request", "mode": "kill",
                         "times": 99}])
            # kill fires at job receipt, so every ladder tier dies
            for _ in range(2):
                resp = single_request(sock, poisoned)
                assert resp["status"] == "error"
                assert resp["error"]["failures"]
            attempts_before = sup.stats()["supervisor"]["attempts"]
            tripped = single_request(sock, poisoned)
            assert tripped["status"] == "error"
            assert tripped["attempts"] == 0       # no worker touched
            assert CODE_BREAKER in codes(tripped)
            assert sup.stats()["supervisor"]["attempts"] \
                == attempts_before
            assert all(f["reason"] == "breaker-open"
                       for f in tripped["error"]["failures"])
            # a different workload is unaffected
            clean = single_request(sock, compile_request("analyze"))
            assert clean["status"] == "ok"


# ---------------------------------------------------------------------------
# Drain with a non-empty admission queue
# ---------------------------------------------------------------------------

class TestDrainWhileQueued:
    def test_drain_completes_already_queued_requests(self):
        """A drain issued while requests sit in the admission queue
        must not drop them: everything accepted before the drain gets
        its real answer; only work arriving afterwards is shed."""
        with service(queue_max=8, pool_size=1) as (sock, server, _):
            n = 4
            results: list = [None] * n

            def one(i: int) -> None:
                # distinct sources defeat the summary cache so every
                # request does real work; a heartbeat-keeping hang at
                # job receipt holds the one worker for half a second
                # per request, so whichever request it takes first,
                # the others are still queued when the loop below looks
                # (an unheld analyze finishes in ~15 ms, which a loaded
                # host can outrun before the last request is accepted)
                src = DEMO.replace("300", str(301 + i))
                results[i] = single_request(
                    sock, {"id": i, "op": "analyze",
                           "sources": [[f"d{i}.c", src]],
                           "options": {"cache": False},
                           "faults": [{"stage": "request",
                                       "mode": "hang", "seconds": 0.5,
                                       "silent": False}]},
                    timeout=120)

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            # wait until every request is accepted (in flight) and at
            # least one actually sits in the queue before draining
            deadline = time.monotonic() + 10
            while (server.in_flight < n
                   or server.admission.queue.depth() == 0) \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.in_flight == n
            assert server.admission.queue.depth() > 0, \
                "admission queue never became non-empty"
            drain = single_request(sock, {"op": "drain"})
            assert drain["draining"] is True
            assert drain["in_flight"] >= 1
            for t in threads:
                t.join(timeout=120)
            statuses = [r["status"] for r in results]
            assert all(s in ("ok", "degraded") for s in statuses), \
                statuses


# ---------------------------------------------------------------------------
# CLI: serve + client subcommands and their exit codes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def daemon():
    """A `repro serve` daemon subprocess shared by the CLI tests."""
    tmp = _tmpdir()
    sock = os.path.join(tmp, "cli.sock")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--pool-size", "2", "--deadline", "60", "--max-retries", "2",
         "--hang-timeout", "0.5", "--breaker-threshold", "2",
         "--breaker-cooldown", "300",
         "--cache-dir", os.path.join(tmp, "cache")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert wait_ready(sock, timeout=60), "serve subprocess not ready"
    yield sock, tmp
    proc.terminate()
    proc.wait(timeout=10)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestCliService:
    def test_client_analyze_exit_0(self, daemon, demo_file, capsys):
        sock, _ = daemon
        assert main(["client", "analyze", demo_file,
                     "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "record types: 1" in out
        assert "plan=peel" in out

    def test_client_transform_writes_output(self, daemon, demo_file,
                                            tmp_path, capsys):
        sock, _ = daemon
        out_file = tmp_path / "out.c"
        assert main(["client", "transform", demo_file,
                     "--socket", sock, "-o", str(out_file)]) == 0
        assert "struct" in out_file.read_text()

    def test_exit_0_under_worker_crash(self, daemon, demo_file,
                                       capsys):
        """A worker kill mid-transform is retried transparently: the
        client still exits 0 with the full result."""
        sock, _ = daemon
        code = main(["client", "transform", demo_file,
                     "--socket", sock,
                     "--inject-fault", "apply:kill:1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "worker" in err        # the retry is reported, not hidden

    def test_exit_1_under_deadline_expiry(self, daemon, demo_file,
                                          capsys):
        sock, _ = daemon
        code = main(["client", "transform", demo_file,
                     "--socket", sock, "--deadline", "1.5",
                     "--max-retries", "0",
                     "--inject-fault", "apply:hang:9:60"])
        assert code == 1
        err = capsys.readouterr().err
        assert "degraded" in err

    def test_exit_1_under_breaker_open(self, daemon, tmp_path, capsys):
        sock, _ = daemon
        # a unique workload so the breaker key is this test's own
        unique = tmp_path / "unique.c"
        unique.write_text(DEMO.replace("item", "brkitem"))
        args = ["client", "transform", str(unique), "--socket", sock,
                "--max-retries", "0",
                "--inject-fault", "request:kill:99"]
        assert main(args) == 1        # every tier dies
        assert main(args) == 1        # breaker threshold reached
        code = main(["client", "transform", str(unique),
                     "--socket", sock, "--max-retries", "0"])
        assert code == 1              # short-circuited: breaker open
        err = capsys.readouterr().err
        assert "breaker" in err

    def test_exit_1_on_source_errors(self, daemon, tmp_path, capsys):
        sock, _ = daemon
        bad = tmp_path / "bad.c"
        bad.write_text(BROKEN)
        assert main(["client", "analyze", str(bad),
                     "--socket", sock]) == 1

    def test_exit_2_on_unreachable_daemon(self, demo_file, capsys):
        assert main(["client", "analyze", demo_file,
                     "--socket", "/nonexistent/no.sock"]) == 2

    def test_exit_2_on_missing_file(self, daemon, capsys):
        sock, _ = daemon
        assert main(["client", "analyze", "/no/such/file.c",
                     "--socket", sock]) == 2

    def test_bad_fault_flag_rejected(self, daemon, demo_file, capsys):
        sock, _ = daemon
        assert main(["client", "analyze", demo_file, "--socket", sock,
                     "--inject-fault", "nonsense"]) == 2


# ---------------------------------------------------------------------------
# Serial-vs-service parity on every workload
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def parity_service():
    tmp = _tmpdir()
    sup = Supervisor(SupervisorConfig(
        pool_size=2, deadline=120.0,
        cache_dir=os.path.join(tmp, "cache")))
    sock = os.path.join(tmp, "parity.sock")
    server = CompileServer(sock, sup, queue_max=8)
    server.start()
    assert wait_ready(sock, timeout=30)
    yield sock
    server.shutdown()


class TestParity:
    @pytest.mark.parametrize(
        "workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_analyze_parity(self, parity_service, workload):
        """The service's advisory answer equals a plain in-process
        serial compile for every workload."""
        sources = workload.sources("train")
        resp = single_request(parity_service, {
            "op": "analyze",
            "sources": [[n, t] for n, t in sources],
            "options": {"cache": False}})
        assert resp["status"] == "ok"
        direct = Compiler(CompilerOptions(transform=False)) \
            .compile_sources(sources)
        assert resp["payload"]["table1"] == list(direct.table1_row())
        assert resp["payload"]["types"] == _type_rows(direct)

    @pytest.mark.parametrize("name", ["181.mcf", "179.art"])
    def test_transform_parity(self, parity_service, name):
        from repro.transform import program_sources
        workload = next(w for w in ALL_WORKLOADS if w.name == name)
        sources = workload.sources("train")
        resp = single_request(parity_service, {
            "op": "transform",
            "sources": [[n, t] for n, t in sources],
            "options": {"cache": False}}, timeout=300)
        assert resp["status"] == "ok"
        direct = Compiler(CompilerOptions(
            transform=True, verify_transforms=True)) \
            .compile_sources(sources)
        expect = [[n, t] for n, t in
                  program_sources(direct.transformed)]
        assert resp["payload"]["transformed_sources"] == expect
