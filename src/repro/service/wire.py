"""The hardened wire layer every socket in the system shares.

Every daemon in the farm — compile shards, the router tier, the cache
service — speaks newline-delimited JSON over local stream sockets.
This module is the one place the *transport contract* lives, so the
failure-domain boundary is identical no matter which front door a peer
connects to:

- **Versioning**: every frame may carry a protocol version field
  ``v``.  A version this build does not speak is answered with a
  structured ``protocol_error`` response naming the supported
  versions — never a dropped connection — so rolling restarts across
  protocol changes degrade to a visible, machine-readable refusal.
  Frames without ``v`` are treated as version 1 (the pre-versioning
  wire format), so old peers keep working.
- **Bounded framing**: :class:`BoundedLineReader` reads one line at a
  time with a hard byte ceiling and an idle/read timeout.  A hostile
  or buggy peer sending a 100 MB "line" cannot OOM the process: the
  reader discards the oversized frame in fixed-size chunks (memory
  stays bounded by ``max_bytes + chunk``), resynchronizes at the next
  newline, and the server answers with a structured ``oversized``
  error on the still-usable connection.
- **Multi-endpoint addressing**: :func:`parse_endpoints` understands
  ``unix:A,unix:B`` lists so clients can fail over between an
  active/standby router pair (preference order = list order; a
  recovered preferred endpoint is rediscovered on the next
  reconnect).

Client-side symmetry matters: :class:`OversizedReplyError` is what
:class:`~repro.service.server.ServiceClient` raises when a *reply*
exceeds its bound — a structured :class:`~repro.api.ApiError` (and a
:class:`~repro.service.requests.ProtocolError`, so existing handlers
contain it), never a ``MemoryError``.
"""

from __future__ import annotations

import socket

from ..api import ApiError
from .requests import ProtocolError, error_response

#: the protocol version this build speaks and stamps on every frame
PROTOCOL_VERSION = 1

#: versions a server accepts; anything else gets a structured
#: ``protocol_error`` response (a missing ``v`` means version 1 —
#: the pre-versioning wire format — so old peers are never broken)
SUPPORTED_PROTOCOL_VERSIONS = (1,)

#: hard ceiling on one inbound request line (server side)
DEFAULT_MAX_REQUEST_BYTES = 16_000_000

#: hard ceiling on one reply line (client side; replies carry whole
#: transformed sources and advisory reports, so the bound is looser)
DEFAULT_MAX_REPLY_BYTES = 64_000_000

#: seconds a connection may sit silent — including the window between
#: ``connect()`` and the first byte — before the server reclaims it
DEFAULT_IDLE_TIMEOUT = 300.0

#: open connections a server holds before evicting the idlest one
DEFAULT_MAX_CONNECTIONS = 128


class OversizedReplyError(ApiError, ProtocolError):
    """A server reply exceeded the client's ``max_reply_bytes`` bound.

    Deliberately both an :class:`~repro.api.ApiError` (the structured
    public failure type, with machine-readable ``detail``) and a
    :class:`~repro.service.requests.ProtocolError` (so every existing
    ``except ProtocolError`` containment path — the router's shard
    attempts, ``RemoteCache``, ``ping`` — treats it as the
    connection-level failure it is)."""


def parse_endpoints(spec) -> list[str]:
    """``"unix:A,unix:B"`` (or a plain socket path) -> ordered
    endpoint paths.  Order is preference order: clients connect to the
    first endpoint that accepts and re-walk the list from the top on
    every reconnect, so a recovered primary is rediscovered
    automatically."""
    out = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("unix:"):
            part = part[len("unix:"):]
        out.append(part)
    if not out:
        raise ValueError(f"no endpoints in {spec!r}")
    return out


def protocol_error_response(req_id, op, got) -> dict:
    """The structured answer an unsupported-version frame receives."""
    supported = list(SUPPORTED_PROTOCOL_VERSIONS)
    return error_response(
        req_id, op or "(unknown)",
        f"unsupported protocol version {got!r}; this server speaks "
        f"version(s) {', '.join(str(v) for v in supported)}",
        detail={"reason": "protocol_error", "got": got,
                "supported": supported})


def oversized_response(limit: int) -> dict:
    """The structured answer an oversized request frame receives."""
    return error_response(
        None, "(unknown)",
        f"request line exceeds the {limit}-byte limit; the oversized "
        f"frame was discarded",
        detail={"reason": "oversized", "max_request_bytes": limit})


class BoundedLineReader:
    """Newline-framed reads with a byte ceiling and a read timeout.

    :meth:`readline` returns ``(line, oversized)``:

    - ``(bytes, False)`` — one complete line (newline included, like
      ``file.readline``);
    - ``(None, False)``  — clean EOF;
    - ``(b"", True)``    — the line exceeded ``max_bytes``; its tail
      was discarded through the terminating newline and the stream is
      resynchronized (the connection is still usable);
    - ``(None, True)``   — oversized and EOF arrived before the
      newline (nothing left to resync to).

    Raises ``TimeoutError`` when ``idle_timeout`` elapses without a
    byte (this covers the pre-first-byte window of a half-open peer),
    and ``OSError`` on transport failures.  Memory is bounded by
    ``max_bytes + chunk`` no matter what the peer sends.
    """

    def __init__(self, sock: socket.socket, max_bytes: int,
                 idle_timeout: float | None = None,
                 chunk: int = 65536):
        self._sock = sock
        self.max_bytes = int(max_bytes)
        self.chunk = chunk
        if idle_timeout is not None:
            sock.settimeout(idle_timeout)
        self._buf = bytearray()
        self._eof = False

    @property
    def buffered(self) -> int:
        """Bytes read past the last line returned: a reply that has
        begun arriving."""
        return len(self._buf)

    def readline(self) -> tuple[bytes | None, bool]:
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl + 1])
                del self._buf[:nl + 1]
                if len(line) > self.max_bytes:
                    return b"", True
                return line, False
            if len(self._buf) > self.max_bytes:
                self._buf.clear()
                return self._discard_to_newline()
            if self._eof:
                if self._buf:
                    # unterminated final line
                    line = bytes(self._buf)
                    self._buf.clear()
                    if len(line) > self.max_bytes:
                        return None, True
                    return line, False
                return None, False
            data = self._sock.recv(self.chunk)
            if not data:
                self._eof = True
            else:
                self._buf += data

    def _discard_to_newline(self) -> tuple[bytes | None, bool]:
        """Drop the oversized line's tail in bounded chunks until its
        newline (stream resynced) or EOF (nothing to resync to)."""
        while True:
            data = self._sock.recv(self.chunk)
            if not data:
                self._eof = True
                return None, True
            nl = data.find(b"\n")
            if nl >= 0:
                self._buf = bytearray(data[nl + 1:])
                return b"", True


__all__ = [
    "BoundedLineReader", "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_CONNECTIONS", "DEFAULT_MAX_REPLY_BYTES",
    "DEFAULT_MAX_REQUEST_BYTES", "OversizedReplyError",
    "PROTOCOL_VERSION", "SUPPORTED_PROTOCOL_VERSIONS",
    "oversized_response", "parse_endpoints",
    "protocol_error_response",
]
