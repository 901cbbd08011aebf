"""Garbage-peer suite for the hardened wire layer.

Feeds every kind of hostile or broken peer input — binary noise,
truncated JSON, huge single lines, unsupported protocol versions,
half-open connects, mid-request disconnects — to all three
``LineServer`` subclasses (compile daemon, router, cache service) and
asserts the invariant the wire contract promises: **a structured
response or a clean close, never an OOM, never a leaked connection
thread, and the daemon still serves afterward.**

Also covers the client side of the contract: bounded reply reads
(oversize surfaces as a structured ``ApiError``), multi-endpoint
failover/rediscovery, and protocol-version stamping.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import ApiError, CompileOptions, CompileRequest, \
    REQUEST_SCHEMES
from repro.cli import main
from repro.core.faults import ProcessFaultSpec
from repro.service import (
    CONTROL_OPS, CacheServer, CacheStore, ClusterConfig, CompileServer,
    LineServer, ProtocolError, Router, RouterServer, ServiceClient,
    ShardSpec, Supervisor, SupervisorConfig, encode, single_request,
    wait_ready,
)
from repro.service.wire import (
    BoundedLineReader, OversizedReplyError, PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS, parse_endpoints,
)

#: small enough that oversize tests are instant, big enough for any
#: legitimate frame the suite sends
WIRE_KW = dict(max_request_bytes=64_000, idle_timeout=30.0,
               max_connections=32)


def _tmpdir() -> str:
    # short paths: AF_UNIX socket paths are length-limited (~107 bytes)
    return tempfile.mkdtemp(prefix="repro-wire-", dir="/tmp")


def conn_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.endswith("-conn") and t.is_alive()]


def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def raw_conn(path: str) -> socket.socket:
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10.0)
    s.connect(path)
    return s


def read_reply(s: socket.socket) -> dict | None:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    return json.loads(buf) if buf else None


@contextmanager
def make_server(kind: str, **wire_overrides):
    """A running LineServer of the requested kind on a fresh socket."""
    tmp = _tmpdir()
    wire = {**WIRE_KW, **wire_overrides}
    path = os.path.join(tmp, "srv.sock")
    if kind == "daemon":
        srv = CompileServer(
            path, Supervisor(SupervisorConfig(
                pool_size=1, cache_dir=os.path.join(tmp, "cache"))),
            queue_max=4, **wire)
    elif kind == "router":
        cluster = ClusterConfig(shards=[ShardSpec(
            name="s0", socket=os.path.join(tmp, "missing.sock"))])
        srv = RouterServer(path, Router(cluster), **wire)
    elif kind == "cache":
        srv = CacheServer(path, CacheStore(os.path.join(tmp, "store")),
                          **wire)
    else:  # pragma: no cover
        raise AssertionError(kind)
    srv.start()
    assert wait_ready(path, timeout=30)
    try:
        yield srv, path
    finally:
        srv.shutdown()


@pytest.fixture(scope="module", params=["daemon", "router", "cache"])
def server(request):
    with make_server(request.param) as pair:
        yield pair


# ---------------------------------------------------------------------------
# Garbage peers against every LineServer subclass
# ---------------------------------------------------------------------------

class TestGarbagePeers:
    def test_binary_noise_gets_structured_error(self, server):
        _, path = server
        s = raw_conn(path)
        s.sendall(b"\x00\x01\xfePK\x03\x04 not json at all\n")
        resp = read_reply(s)
        assert resp["status"] == "error"
        assert resp["v"] == PROTOCOL_VERSION
        # the connection is still usable after the bad frame
        s.sendall(encode({"op": "ping"}))
        assert read_reply(s)["pong"] is True
        s.close()

    def test_truncated_json_then_disconnect(self, server):
        _, path = server
        s = raw_conn(path)
        s.sendall(b'{"op": "ping"')   # no closing brace, no newline
        s.close()
        assert single_request(path, {"op": "ping"})["pong"] is True

    def test_oversized_line_answered_and_resynced(self, server):
        srv, path = server
        before = srv.connection_stats()["oversized"]
        s = raw_conn(path)
        # 8 MB single line against a 64 KB cap: the discard path must
        # stay memory-bounded and leave the stream usable
        s.sendall(b'{"pad": "' + b"A" * 8_000_000 + b'"}\n')
        resp = read_reply(s)
        assert resp["status"] == "error"
        assert resp["error"]["reason"] == "oversized"
        assert resp["error"]["max_request_bytes"] \
            == srv.max_request_bytes
        s.sendall(encode({"op": "ping"}))
        assert read_reply(s)["pong"] is True
        s.close()
        assert srv.connection_stats()["oversized"] == before + 1

    def test_wrong_version_gets_protocol_error(self, server):
        srv, path = server
        before = srv.connection_stats()["bad_version"]
        s = raw_conn(path)
        s.sendall(encode({"op": "ping", "id": 3, "v": 99}))
        resp = read_reply(s)
        assert resp["status"] == "error"
        assert resp["id"] == 3
        assert resp["error"]["reason"] == "protocol_error"
        assert resp["error"]["supported"] \
            == list(SUPPORTED_PROTOCOL_VERSIONS)
        # refused structurally, not disconnected: the same connection
        # can speak a supported version immediately
        s.sendall(encode({"op": "ping", "v": PROTOCOL_VERSION}))
        assert read_reply(s)["pong"] is True
        s.close()
        assert srv.connection_stats()["bad_version"] == before + 1

    def test_mid_request_disconnect_survives(self, server):
        _, path = server
        s = raw_conn(path)
        s.sendall(encode({"op": "stats"}))
        s.close()                     # gone before the reply lands
        assert single_request(path, {"op": "ping"})["pong"] is True

    def test_no_leaked_connection_threads(self, server):
        _, path = server
        for _ in range(5):
            s = raw_conn(path)
            s.sendall(b"junk that is not json\n")
            read_reply(s)
            s.close()
        assert wait_for(lambda: len(conn_threads()) == 0), \
            f"leaked connection threads: {conn_threads()}"

    def test_connections_stats_block(self, server):
        srv, path = server
        stats = single_request(path, {"op": "stats"})["stats"]
        block = stats["connections"]
        for key in ("open", "accepted", "evicted_idle", "oversized",
                    "bad_version"):
            assert key in block
        assert block == srv.connection_stats() or \
            block["max_connections"] == srv.max_connections

    # the control-op contract is one code path, so every server kind
    # refuses a bad control request the same way

    @pytest.mark.parametrize("op", ["ping", "stats"])
    def test_control_op_with_unknown_field_is_refused(self, server, op):
        _, path = server
        resp = single_request(path, {"op": op, "bogus": 1})
        assert resp["status"] == "error"
        assert resp["error"]["unknown_fields"] == ["bogus"]
        assert resp["error"]["where"] == "request"

    def test_non_string_trace_id_is_refused(self, server):
        _, path = server
        resp = single_request(path, {"op": "trace", "trace_id": 5})
        assert resp["status"] == "error"
        assert resp["error"]["message"] == "'trace_id' must be a string"
        assert resp["error"]["where"] == "trace_id"

    def test_trace_is_a_control_op(self, server):
        _, path = server
        resp = single_request(path, {"op": "trace", "trace_id": "nope"})
        assert resp["status"] == "error"
        assert "unknown op" not in resp["error"]["message"]

    def test_unknown_op_lists_work_and_control_ops(self, server):
        srv, path = server
        resp = single_request(path, {"op": "explode", "id": 4})
        assert resp["status"] == "error"
        assert resp["id"] == 4
        assert resp["error"]["known_ops"] == \
            [*srv.WORK_OPS, *CONTROL_OPS]


# ---------------------------------------------------------------------------
# options.search: values are checked on arrival, never coerced
# ---------------------------------------------------------------------------

class TestSearchOptionsOnTheWire:
    def test_non_finite_budget_is_refused_by_the_daemon(self):
        """``json`` reads a bare ``NaN`` as a float; the daemon refuses
        it as a search budget instead of running a search with it."""
        with make_server("daemon") as (_, path):
            resp = single_request(path, {
                "op": "advise", "id": 9,
                "sources": [["a.c", "int main() { return 0; }"]],
                "options": {"search": {"budget_s": float("nan")}}})
            assert single_request(path, {"op": "ping"})["pong"] is True
        assert resp["status"] == "error"
        assert resp["id"] == 9
        assert resp["error"]["where"] == "search.budget_s"


# ---------------------------------------------------------------------------
# request fields: numbers, counts and flags are checked, never coerced
# ---------------------------------------------------------------------------

ANALYZE = {"op": "analyze",
           "sources": [["a.c", "int main() { return 0; }"]]}

#: (request fields, the ``detail.where`` that refuses them): a number
#: is finite and never a boolean or a string, a count is an integer,
#: a flag is a JSON boolean, a fault's stage a non-empty string
UNCOERCED = [
    ({"options": {"ts": True}}, "options.ts"),
    ({"options": {"ts": "nan"}}, "options.ts"),
    ({"options": {"ts": float("inf")}}, "options.ts"),
    ({"max_retries": True}, "max_retries"),
    ({"max_retries": 2.7}, "max_retries"),
    ({"max_retries": "3"}, "max_retries"),
    ({"deadline": "nan"}, "deadline"),
    ({"deadline": float("inf")}, "deadline"),
    ({"deadline": True}, "deadline"),
    ({"deadline": "5"}, "deadline"),
    ({"deadline_ms": "500"}, "deadline_ms"),
    ({"deadline_ms": float("nan")}, "deadline_ms"),
    ({"faults": [{"stage": "apply", "silent": "false"}]}, "faults"),
    ({"faults": [{"stage": "apply", "times": 1.9}]}, "faults"),
    ({"faults": [{"stage": "apply", "seconds": float("inf")}]}, "faults"),
    ({"faults": [{"stage": 5}]}, "faults"),
    ({"faults": [{"stage": ["legality"]}]}, "faults"),
    ({"faults": [{"stage": ""}]}, "faults"),
    ({"faults": [{"stage": None, "mode": "kill"}]}, "faults"),
    ({"faults": [{"stage": "apply", "mode": ["kill"]}]}, "faults"),
]


class TestRequestFieldsOnTheWire:
    @pytest.mark.parametrize(
        "fields,where", UNCOERCED,
        ids=[f"{where}={json.dumps(fields)}" for fields, where in UNCOERCED])
    def test_value_is_checked_not_coerced(self, fields, where):
        with pytest.raises(ApiError) as ei:
            CompileRequest.from_dict({**ANALYZE, **fields})
        assert ei.value.detail["where"] == where

    def test_in_process_and_cli_are_checked_alike(self, tmp_path,
                                                  capsys):
        """The checks live in the dataclasses, so a request built in
        process is refused like a wire one, and integral floats stay
        counts."""
        with pytest.raises(ApiError):
            CompileOptions(ts=float("nan"))
        with pytest.raises(ApiError):
            CompileRequest(op="analyze", deadline=float("inf"))
        with pytest.raises(ValueError):
            ProcessFaultSpec("apply", silent="false")
        req = CompileRequest.from_dict({
            **ANALYZE, "max_retries": 2.0, "deadline_ms": 500,
            "options": {"ts": 0},
            "faults": [{"stage": "apply", "times": 1.0}]})
        assert (req.max_retries, req.faults[0].times) == (2, 1)
        src = tmp_path / "a.c"
        src.write_text("int main() { return 0; }\n")
        assert main(["analyze", "--ts", "nan", str(src)]) == 2
        assert capsys.readouterr().err.startswith("repro: error:")

    def test_unknown_scheme_is_refused_before_a_worker_runs(self):
        """A scheme no request can run is a schema error at the front
        door: it never fails a worker attempt, so it cannot open the
        program's circuit breaker for the next, valid request."""
        sources = [["a.c", "struct p { long a; long b; };\n"
                            "int main() { return 0; }\n"]]
        with make_server("daemon") as (_, path):
            bad = single_request(path, {
                "op": "advise", "id": 1, "sources": sources,
                "options": {"scheme": "FOO"}}, timeout=60)
            good = single_request(path, {
                "op": "advise", "id": 2, "sources": sources}, timeout=60)
        assert bad["status"] == "error"
        assert bad["error"]["where"] == "options.scheme"
        assert bad["error"]["known_schemes"] == list(REQUEST_SCHEMES)
        assert (good["status"], good["tier"]) == ("ok", "advisory")


# ---------------------------------------------------------------------------
# Idle timeout: half-open peers, including the pre-first-byte window
# ---------------------------------------------------------------------------

class TestIdleTimeout:
    def test_half_open_connect_is_reaped(self):
        """Regression: a peer that connects and never sends a byte
        used to hold its connection thread until process exit."""
        with make_server("cache", idle_timeout=0.4) as (srv, path):
            s = raw_conn(path)        # say nothing
            # eviction first: "open" already reads 0 in the moment
            # before the server has accepted this connection
            assert wait_for(
                lambda: srv.connection_stats()["evicted_idle"] >= 1)
            assert wait_for(
                lambda: srv.connection_stats()["open"] == 0)
            # the server closed its end: our recv sees EOF
            s.settimeout(3.0)
            assert s.recv(1) == b""
            s.close()
            assert wait_for(lambda: len(conn_threads()) == 0)

    def test_idle_mid_line_is_reaped(self):
        with make_server("cache", idle_timeout=0.4) as (srv, path):
            s = raw_conn(path)
            s.sendall(b'{"op": "pi')  # stall mid-frame forever
            assert wait_for(
                lambda: srv.connection_stats()["open"] == 0)
            s.settimeout(3.0)
            assert s.recv(1) == b""
            s.close()

    def test_active_connection_outlives_idle_window(self):
        with make_server("cache", idle_timeout=0.5) as (_, path):
            s = raw_conn(path)
            for _ in range(4):
                time.sleep(0.3)       # each gap < idle_timeout
                s.sendall(encode({"op": "ping"}))
                assert read_reply(s)["pong"] is True
            s.close()


# ---------------------------------------------------------------------------
# Connection cap
# ---------------------------------------------------------------------------

class TestConnectionCap:
    def test_idlest_connection_evicted_past_cap(self):
        with make_server("cache", max_connections=4) as (srv, path):
            conns = [raw_conn(path) for _ in range(4)]
            # touch all but conns[0], making it the idlest
            time.sleep(0.05)
            for s in conns[1:]:
                s.sendall(encode({"op": "ping"}))
                assert read_reply(s)["pong"] is True
            extra = raw_conn(path)
            extra.sendall(encode({"op": "ping"}))
            assert read_reply(extra)["pong"] is True
            # conns[0] lost its slot: EOF on our end
            conns[0].settimeout(3.0)
            assert conns[0].recv(1) == b""
            assert srv.connection_stats()["evicted_idle"] >= 1
            assert srv.connection_stats()["open"] <= 4
            for s in conns + [extra]:
                s.close()


# ---------------------------------------------------------------------------
# Client side: bounded replies, failover, version stamping
# ---------------------------------------------------------------------------

class _BigReplyServer(LineServer):
    """Answers every request with a reply far past the test client's
    bound."""

    def handle_request(self, raw: dict) -> dict:
        return {"id": raw.get("id"), "op": raw.get("op"),
                "status": "ok", "pad": "A" * 500_000}


class _TaggedServer(LineServer):
    """Pongs tagged with the server's name, for failover assertions."""

    def __init__(self, socket_path: str, tag: str, **wire):
        super().__init__(socket_path, **wire)
        self.tag = tag

    def handle_request(self, raw: dict) -> dict:
        return {"id": raw.get("id"), "op": raw.get("op"),
                "status": "ok", "pong": True, "served_by": self.tag}


class _RacedServer(_TaggedServer):
    """Starts ``rival`` on its own path between ``start``'s unlink of a
    stale file and its bind, as a second server started at that moment
    would."""

    def __init__(self, socket_path: str, tag: str, rival: LineServer):
        super().__init__(socket_path, tag)
        self.rival = rival

    def _startup(self) -> None:
        self.rival.start()


class _LateRegisterServer(_TaggedServer):
    """Registers each accepted connection only once ``shutdown`` has
    returned: the accept loop losing its race with ``shutdown``."""

    def __init__(self, socket_path: str, tag: str):
        super().__init__(socket_path, tag)
        self.accepted = threading.Event()
        self.shut = threading.Event()

    def _register_conn(self, conn):
        self.accepted.set()
        self.shut.wait(timeout=10.0)
        return super()._register_conn(conn)


class TestShutdownRace:
    def test_connection_accepted_during_shutdown_is_closed(self):
        """A connection accepted before ``shutdown`` closed the held
        connections, but registered after, is closed and refused: no
        handler thread is left waiting on its peer for the idle
        window."""
        path = os.path.join(_tmpdir(), "d.sock")
        srv = _LateRegisterServer(path, "late")
        srv.start()
        peer = raw_conn(path)
        try:
            assert srv.accepted.wait(timeout=5.0)
            srv.shutdown()
            srv.shut.set()
            srv._accept_thread.join(timeout=5.0)
            assert not srv._accept_thread.is_alive()
            assert srv.connection_stats()["open"] == 0
            assert not [t for t in conn_threads()
                        if t.name.startswith("_LateRegisterServer")]
            peer.settimeout(5.0)
            assert peer.recv(1) == b""        # closed by the server
        finally:
            peer.close()


class TestClientSide:
    def test_oversized_reply_is_structured_api_error(self):
        tmp = _tmpdir()
        path = os.path.join(tmp, "big.sock")
        srv = _BigReplyServer(path)
        srv.start()
        try:
            client = ServiceClient(path, timeout=10.0,
                                   max_reply_bytes=10_000)
            with pytest.raises(ApiError) as excinfo:
                client.request({"op": "ping"})
            err = excinfo.value
            assert isinstance(err, OversizedReplyError)
            assert isinstance(err, ProtocolError)
            assert err.detail["reason"] == "oversized_reply"
            assert err.detail["max_reply_bytes"] == 10_000
            client.close()
        finally:
            srv.shutdown()

    def test_multi_endpoint_failover_and_rediscovery(self):
        tmp = _tmpdir()
        a_path = os.path.join(tmp, "a.sock")
        b_path = os.path.join(tmp, "b.sock")
        a = _TaggedServer(a_path, "A")
        b = _TaggedServer(b_path, "B")
        a.start()
        b.start()
        try:
            client = ServiceClient(f"unix:{a_path},unix:{b_path}",
                                   timeout=10.0)
            assert client.endpoints == [a_path, b_path]
            assert client.request({"op": "ping"})["served_by"] == "A"
            # kill the preferred endpoint: the next request fails over
            a.shutdown()
            assert client.request({"op": "ping"})["served_by"] == "B"
            assert client.endpoint == b_path
            # bring A back: a reconnect rediscovers the preferred
            # endpoint because connect() re-walks the list in order
            a2 = _TaggedServer(a_path, "A2")
            a2.start()
            try:
                client.close()
                assert client.request({"op": "ping"})["served_by"] \
                    == "A2"
            finally:
                a2.shutdown()
            client.close()
        finally:
            b.shutdown()

    def test_shutdown_leaves_a_successors_socket(self):
        """A server that stops after a successor bound its path (a
        drained daemon replaced before its own shutdown finished)
        removes its own socket file only, never the successor's."""
        path = os.path.join(_tmpdir(), "d.sock")
        old = _TaggedServer(path, "old")
        old.start()
        old.request_shutdown()
        new = _TaggedServer(path, "new")
        new.start()
        try:
            old.shutdown()
            assert wait_ready(path, timeout=5.0)
            assert single_request(path, {"op": "ping"})["served_by"] \
                == "new"
        finally:
            new.shutdown()
        assert not os.path.exists(path)

    def test_failed_bind_leaves_the_winners_socket(self):
        """A server that loses its path to another between ``start``'s
        unlink and its bind reports the bind error, and its shutdown
        neither raises nor removes the winner's socket file."""
        path = os.path.join(_tmpdir(), "d.sock")
        winner = _TaggedServer(path, "winner")
        loser = _RacedServer(path, "loser", winner)
        try:
            with pytest.raises(OSError):
                loser.start()
            loser.shutdown()
            assert single_request(path, {"op": "ping"})["served_by"] \
                == "winner"
        finally:
            winner.shutdown()

    def test_client_stamps_protocol_version(self):
        tmp = _tmpdir()
        path = os.path.join(tmp, "echo.sock")

        seen: list[dict] = []

        class EchoServer(LineServer):
            def handle_request(self, raw: dict) -> dict:
                seen.append(dict(raw))
                return {"id": raw.get("id"), "op": raw.get("op"),
                        "status": "ok", "pong": True}

        srv = EchoServer(path)
        srv.start()
        try:
            resp = single_request(path, {"op": "ping"})
            # the response is stamped; the request's `v` was consumed
            # by the transport layer before handle_request saw it
            assert resp["v"] == PROTOCOL_VERSION
            assert seen and "v" not in seen[0]
        finally:
            srv.shutdown()


# ---------------------------------------------------------------------------
# Units: reader and endpoint parsing
# ---------------------------------------------------------------------------

class TestBoundedLineReader:
    def _pair(self, max_bytes=100):
        a, b = socket.socketpair()
        return BoundedLineReader(a, max_bytes), a, b

    def test_lines_and_eof(self):
        reader, a, b = self._pair()
        b.sendall(b"one\ntwo\n")
        b.close()
        assert reader.readline() == (b"one\n", False)
        assert reader.readline() == (b"two\n", False)
        assert reader.readline() == (None, False)
        a.close()

    def test_oversized_then_resync(self):
        reader, a, b = self._pair(max_bytes=10)
        b.sendall(b"X" * 50 + b"\nok\n")
        assert reader.readline() == (b"", True)
        assert reader.readline() == (b"ok\n", False)
        a.close()
        b.close()

    def test_oversized_eof_before_newline(self):
        reader, a, b = self._pair(max_bytes=10)
        b.sendall(b"X" * 50)
        b.close()
        assert reader.readline() == (None, True)
        a.close()

    def test_unterminated_final_line(self):
        reader, a, b = self._pair()
        b.sendall(b"tail-no-newline")
        b.close()
        assert reader.readline() == (b"tail-no-newline", False)
        assert reader.readline() == (None, False)
        a.close()


class TestParseEndpoints:
    def test_single_plain_path(self):
        assert parse_endpoints("/tmp/x.sock") == ["/tmp/x.sock"]

    def test_single_unix_prefix(self):
        assert parse_endpoints("unix:/tmp/x.sock") == ["/tmp/x.sock"]

    def test_multi_mixed(self):
        assert parse_endpoints("unix:/t/a.sock, /t/b.sock") \
            == ["/t/a.sock", "/t/b.sock"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_endpoints(" , ")
