"""The DTL service wire protocol: newline-delimited JSON frames.

One request per line, one response per line, in order.  Every request is
a JSON object with an ``op`` field; every response echoes the request's
``op`` (and ``id``, when the client sent one) and carries either
``"ok": true`` plus the op's result fields, or ``"ok": false`` with a
typed :class:`ErrorCode` in ``error`` — admission-control rejections are
ordinary typed responses, never dropped connections.

Operations (full field reference in docs/SERVER.md):

================  =====================================================
``open_tenant``   Register (or re-attach) a tenant; returns its shard
                  and quota.  Rejections: ``tenant_limit``.
``allocate``      Reserve memory for a new VM (whole AUs).  Rejections:
                  ``quota_exceeded``, ``capacity``, ``rate_limited``.
``free``          Release one of the tenant's VMs.
``access_batch``  A batch of loads/stores addressed by segment index
                  inside one of the tenant's VMs.  Rejections:
                  ``not_owner``, ``out_of_range``, ``rate_limited``.
``stats``         The server's telemetry snapshot (never rejected, so
                  an operator can always observe a draining server).
``close``         Detach the tenant, freeing all of its VMs.
================  =====================================================

Timestamps: any request may carry ``"t"`` (seconds, float) — the
tenant's logical clock.  Admission-control refill and the simulated DTL
clock both advance on it, which is what makes a recorded request tail
deterministically replayable (the drain/restore identity story).
Untimed requests fall back to the server's wall clock.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Any

#: Upper bound on one request line; longer frames are a protocol error
#: (bounds per-request memory no matter what a client sends).
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A frame that cannot be parsed as a protocol request."""


class ErrorCode(str, Enum):
    """Typed rejection/failure codes (the ``error`` response field)."""

    #: Malformed frame: not JSON, not an object, or missing fields.
    BAD_REQUEST = "bad_request"
    #: ``op`` is not one of the operations above.
    UNKNOWN_OP = "unknown_op"
    #: The named tenant has not been opened on this server.
    UNKNOWN_TENANT = "unknown_tenant"
    #: Admission control: the server is at its tenant limit.
    TENANT_LIMIT = "tenant_limit"
    #: Admission control: the tenant's token bucket is empty; the
    #: response carries ``retry_after_s``.
    RATE_LIMITED = "rate_limited"
    #: Admission control: the allocation would exceed the tenant's
    #: capacity quota.
    QUOTA_EXCEEDED = "quota_exceeded"
    #: The device itself cannot satisfy the allocation.
    CAPACITY = "capacity"
    #: The VM named in the request belongs to a different tenant (the
    #: cross-tenant isolation gate).
    NOT_OWNER = "not_owner"
    #: A segment index falls outside the VM's reservation.
    OUT_OF_RANGE = "out_of_range"
    #: The server is draining; only ``stats`` is still served.
    DRAINING = "draining"
    #: An unexpected server-side failure (the message carries the
    #: exception text; shard state is audited, not rolled back).
    INTERNAL = "internal"


#: ``json.dumps`` with these options would build an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode(message: dict[str, Any]) -> bytes:
    """Serialise one frame: compact JSON plus the line terminator."""
    return (_ENCODER.encode(message) + "\n").encode()


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on junk."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds {MAX_LINE_BYTES}")
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def ok_response(op: str, request: dict[str, Any] | None = None,
                **fields: Any) -> dict[str, Any]:
    """A success response for ``op``, echoing the request ``id``."""
    response: dict[str, Any] = {"ok": True, "op": op}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    response.update(fields)
    return response


def error_response(code: ErrorCode, message: str,
                   request: dict[str, Any] | None = None,
                   **fields: Any) -> dict[str, Any]:
    """A typed rejection/failure response."""
    response: dict[str, Any] = {"ok": False, "error": code.value,
                                "message": message}
    if request is not None:
        if "op" in request:
            response["op"] = request["op"]
        if "id" in request:
            response["id"] = request["id"]
    response.update(fields)
    return response


def render_snapshot(snapshot) -> str:
    """The one snapshot serialisation shared by the server's telemetry
    exporter, the ``stats`` operation, and ``repro stats --watch``."""
    return snapshot.to_json(indent=2)


__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "ErrorCode",
    "encode",
    "decode_line",
    "ok_response",
    "error_response",
    "render_snapshot",
]
