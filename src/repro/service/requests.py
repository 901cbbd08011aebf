"""Wire protocol for the supervised compile service (``repro serve``).

The daemon speaks newline-delimited JSON over a local stream socket:
one request object per line in, exactly one response object per line
out — a connection is *never* dropped without a structured response.

A compile request names an operation (``analyze`` / ``advise`` /
``transform`` / ``compare``), carries its sources inline, and may set a
per-attempt ``deadline``, a ``max_retries`` budget, and (for tests and
resilience drills) a list of process-level fault specs the worker arms
before executing.  It parses into the public
:class:`repro.api.CompileRequest` (:func:`parse_compile`), and that one
object travels on to the worker.  Control operations (``ping`` /
``stats`` / ``trace`` / ``drain`` / ``shutdown``) take no sources and
are checked by :func:`parse_control`.

Responses carry a ``status``:

- ``ok``        — the requested ladder tier was served;
- ``degraded``  — a lower tier of the degradation ladder was served
  (e.g. an advisory report instead of a transformation);
- ``busy``      — the bounded request queue was full; the request was
  shed with a ``retry_after`` hint (the 429 of this protocol);
- ``rejected``  — admission control refused the request *on arrival*
  (tenant over quota, or a hopeless deadline); carries an honest
  ``retry_after`` derived from the quota refill / queue drain rate.
  Terminal: the farm router does not fail it over;
- ``deadline_exceeded`` — the request's end-to-end ``deadline_ms``
  budget ran out before it could be served (expired in queue, or no
  remaining budget for an attempt).  Terminal, like ``rejected``;
- ``error``     — every ladder tier failed; ``error`` holds a
  structured description (tiers tried, failure reasons, crash
  fingerprints).

Compile requests may carry the multi-tenancy triple: ``tenant`` (the
quota/fairness bucket), ``priority`` (within-tenant lane), and
``deadline_ms`` (remaining end-to-end budget at send time — each hop
deducts its own elapsed time before forwarding).
"""

from __future__ import annotations

import json

from ..api import (
    ApiError, COMPILE_OPS, CompileRequest, LADDER, STATUS_BUSY,
    STATUS_DEADLINE_EXCEEDED, STATUS_DEGRADED, STATUS_ERROR, STATUS_OK,
    STATUS_REJECTED, TIERS,
)

#: control operations every server answers (no sources, no ladder)
CONTROL_OPS = ("ping", "stats", "trace", "drain", "shutdown")

#: wire fields a control request may carry
_CONTROL_FIELDS = ("op", "id", "trace_id")

__all__ = [
    "COMPILE_OPS", "CONTROL_OPS", "LADDER", "TIERS",
    "STATUS_OK", "STATUS_DEGRADED", "STATUS_BUSY", "STATUS_ERROR",
    "STATUS_REJECTED", "STATUS_DEADLINE_EXCEEDED",
    "ProtocolError", "encode", "decode", "parse_compile",
    "parse_control", "response",
    "busy_response", "error_response", "rejected_response",
    "deadline_response",
]


class ProtocolError(ValueError):
    """A request that cannot be understood (malformed JSON, unknown op,
    unknown or bad fields).  Always answered with a structured error
    response, never a dropped connection.  ``detail`` carries the
    machine-readable part (e.g. the unknown field names)."""

    def __init__(self, message: str, *, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


def parse_compile(d: dict) -> CompileRequest:
    """A compile request, validated by the public API schema.

    :meth:`repro.api.CompileRequest.from_dict` does the validation, so
    the wire protocol and the in-process API can never drift apart;
    its :class:`~repro.api.ApiError` comes back as a
    :class:`ProtocolError` with the same structured detail."""
    try:
        return CompileRequest.from_dict(d)
    except ApiError as exc:
        raise ProtocolError(str(exc), detail=exc.detail) from exc


def parse_control(d: dict) -> str | None:
    """Validate a control request (``op`` in :data:`CONTROL_OPS`);
    returns its ``trace_id`` filter, which only ``trace`` reads."""
    unknown = sorted(set(d) - set(_CONTROL_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(unknown)}",
            detail={"unknown_fields": unknown,
                    "known_fields": sorted(_CONTROL_FIELDS),
                    "where": "request"})
    trace_id = d.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError("'trace_id' must be a string",
                            detail={"where": "trace_id"})
    return trace_id


# ---------------------------------------------------------------------------
# Framing: newline-delimited JSON
# ---------------------------------------------------------------------------

def encode(obj: dict) -> bytes:
    """One message as a single JSON line."""
    return (json.dumps(obj, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode(line: str | bytes) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("message must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# Response constructors (kept together so every path stays structured)
# ---------------------------------------------------------------------------

def response(req_id, op: str, status: str, *, tier: str | None = None,
             payload: dict | None = None,
             diagnostics: list[dict] | None = None,
             attempts: int = 0, respawns: int = 0,
             elapsed_s: float | None = None,
             error: dict | None = None,
             retry_after: float | None = None) -> dict:
    resp: dict = {"id": req_id, "op": op, "status": status}
    if tier is not None:
        resp["tier"] = tier
    if payload is not None:
        resp["payload"] = payload
    resp["diagnostics"] = diagnostics or []
    resp["attempts"] = attempts
    resp["respawns"] = respawns
    if elapsed_s is not None:
        resp["elapsed_s"] = round(elapsed_s, 4)
    if error is not None:
        resp["error"] = error
    if retry_after is not None:
        resp["retry_after"] = retry_after
    return resp


def busy_response(req_id, op: str, retry_after: float = 0.5,
                  message: str | None = None,
                  reason: str | None = None) -> dict:
    err = {"message": message or "server at capacity; request "
                                 "shed by the bounded queue"}
    if reason is not None:
        err["reason"] = reason
    return response(req_id, op, STATUS_BUSY, retry_after=retry_after,
                    error=err)


def rejected_response(req_id, op: str, retry_after: float,
                      message: str | None = None,
                      reason: str | None = None) -> dict:
    """Admission refused the request on arrival (quota / hopeless
    deadline).  Terminal — the router does not fail it over; the
    caller decides whether to retry after ``retry_after``."""
    err = {"message": message or "request rejected by admission "
                                 "control"}
    if reason is not None:
        err["reason"] = reason
    return response(req_id, op, STATUS_REJECTED,
                    retry_after=retry_after, error=err)


def deadline_response(req_id, op: str, message: str | None = None,
                      reason: str | None = None) -> dict:
    """The request's end-to-end ``deadline_ms`` budget ran out before
    it could be served.  Terminal; retrying with the same budget would
    only fail again, so no ``retry_after`` is offered."""
    err = {"message": message or "end-to-end deadline budget "
                                 "exhausted before the request could "
                                 "be served"}
    if reason is not None:
        err["reason"] = reason
    return response(req_id, op, STATUS_DEADLINE_EXCEEDED, error=err)


def error_response(req_id, op: str, message: str, *,
                   diagnostics: list[dict] | None = None,
                   attempts: int = 0, respawns: int = 0,
                   detail: dict | None = None) -> dict:
    err = {"message": message}
    if detail:
        err.update(detail)
    return response(req_id, op, STATUS_ERROR, tier="error",
                    diagnostics=diagnostics, attempts=attempts,
                    respawns=respawns, error=err)
