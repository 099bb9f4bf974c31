"""The service wire protocol: newline-delimited JSON, schema
``profibus-rt/service/v1``.

One request per line, one response per line, in order, per connection.
A request envelope names an operation and (for analysis operations)
carries a ``profibus-rt/api/v2`` request document verbatim::

    {"schema": "profibus-rt/service/v1", "id": 7, "op": "analyse",
     "request": {"schema": "profibus-rt/api/v2", "op": "analyse",
                 "network": {...}, "policy": "dm"}}

Responses echo the ``id`` (clients may pipeline) and either wrap an
``profibus-rt/api/v2`` result document::

    {"schema": "profibus-rt/service/v1", "id": 7, "ok": true,
     "op": "analyse", "result": {...}, "cached": false,
     "elapsed_ms": 3.1}

or report a typed error without closing the connection::

    {"schema": "profibus-rt/service/v1", "id": 7, "ok": false,
     "op": "analyse",
     "error": {"type": "bad-request", "message": "..."}}

Error types: ``protocol`` (unparseable/ill-formed envelope),
``bad-request`` (well-formed envelope, unanswerable analysis request —
the :class:`repro.api.ApiError` cases), ``internal`` (server fault).

Control operations need no request document: ``ping`` (liveness +
schema versions), ``stats`` (session statistics + cache counters),
``shutdown`` (graceful stop; in-flight requests complete first).

The ``result`` documents are byte-identical to what
:func:`repro.api.execute` returns offline for the same request — the
service adds transport metadata (``cached``, ``elapsed_ms``) strictly
*outside* the result, so verdicts can be compared bit-exactly across
transports (the service tests and the CI smoke job do exactly that).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from ..api import API_SCHEMA, OPS as ANALYSIS_OPS
from ..schemas import SERVICE_SCHEMA

CONTROL_OPS = ("ping", "stats", "shutdown")
ALL_OPS = tuple(ANALYSIS_OPS) + CONTROL_OPS

#: Hard cap on one request line (16 MiB): a runaway or hostile client
#: must not buffer the server into the ground.
MAX_LINE_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """An envelope the server cannot make sense of."""


def encode(doc: Dict[str, Any]) -> bytes:
    """One protocol message as one JSON line (canonical key order, so
    logs and goldens are stable)."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable message: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("message must be a JSON object")
    return doc


def request_envelope(
    op: str,
    request: Optional[Dict[str, Any]] = None,
    request_id: Any = None,
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"schema": SERVICE_SCHEMA, "op": op}
    if request_id is not None:
        doc["id"] = request_id
    if request is not None:
        doc["request"] = request
    return doc


def parse_request(doc: Dict[str, Any]) -> Tuple[str, Any, Optional[Dict[str, Any]]]:
    """``(op, id, api_request_doc_or_None)`` from a request envelope.
    Raises :class:`ProtocolError` on any shape problem."""
    if doc.get("schema") != SERVICE_SCHEMA:
        raise ProtocolError(
            f"unsupported envelope schema {doc.get('schema')!r}; "
            f"this server speaks {SERVICE_SCHEMA}"
        )
    allowed = {"schema", "id", "op", "request"}
    unknown = set(doc) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown envelope key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    op = doc.get("op")
    if op not in ALL_OPS:
        raise ProtocolError(f"unknown op {op!r}; pick from {list(ALL_OPS)}")
    request = doc.get("request")
    if op in CONTROL_OPS:
        if request is not None:
            raise ProtocolError(f"op {op!r} takes no request document")
        return op, doc.get("id"), None
    if not isinstance(request, dict):
        raise ProtocolError(f"op {op!r} needs a request document")
    if "op" in request and request["op"] != op:
        raise ProtocolError(
            f"envelope op {op!r} does not match request op "
            f"{request['op']!r}"
        )
    return op, doc.get("id"), request


def result_response(
    request_id: Any,
    op: str,
    result: Dict[str, Any],
    cached: bool,
    elapsed_ms: float,
) -> Dict[str, Any]:
    return {
        "schema": SERVICE_SCHEMA,
        "id": request_id,
        "ok": True,
        "op": op,
        "result": result,
        "cached": cached,
        "elapsed_ms": elapsed_ms,
    }


def error_response(
    request_id: Any,
    op: Optional[str],
    error_type: str,
    message: str,
) -> Dict[str, Any]:
    return {
        "schema": SERVICE_SCHEMA,
        "id": request_id,
        "ok": False,
        "op": op,
        "error": {"type": error_type, "message": message},
    }


def ping_result() -> Dict[str, Any]:
    return {"pong": True,
            "schemas": {"service": SERVICE_SCHEMA, "api": API_SCHEMA}}
