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

An envelope ``id`` holding ``NaN``, ``±Infinity`` or a literal that
overflows a float (``1e400``) is a ``protocol`` error: the ``id`` is
echoed back, and those values are not JSON.  Inside the request document
such values reach the api's checks, which refuse them as
``bad-request`` naming the field.  :func:`encode` never writes them: a
message holding one raises ``ValueError`` before anything is sent.

The daemon answers analysis requests in pre-encoded form:
:func:`encode_json` is each result's canonical bytes, stored once, and
:func:`result_line` splices them into the response envelope byte for
byte as :func:`encode` of :func:`result_response` would write it.
:func:`spelling_digest` names a request line by its bytes as received,
leaving out the envelope ``id``.
"""

from __future__ import annotations

import hashlib
import json
from math import isfinite
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


def encode_json(value: Any) -> bytes:
    """``value`` as canonical JSON bytes: sorted keys, no spaces.  A
    ``NaN`` or ``±Infinity`` anywhere in ``value`` raises ``ValueError``
    (they are not JSON)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def encode(doc: Dict[str, Any]) -> bytes:
    """One protocol message as one JSON line (canonical key order, so
    logs and goldens are stable)."""
    return encode_json(doc) + b"\n"


def _finite(value: Any) -> bool:
    """No ``NaN``/``±Infinity`` anywhere in ``value``."""
    if type(value) is float:
        return isfinite(value)
    if type(value) is list:
        return all(map(_finite, value))
    if type(value) is dict:
        return all(map(_finite, value.values()))
    return True


def decode_line(line: bytes) -> Dict[str, Any]:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable message: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("message must be a JSON object")
    if "id" in doc and not _finite(doc["id"]):
        raise ProtocolError("message id holds NaN or Infinity, which is "
                            "not a JSON number")
    return doc


def spelling_digest(line: bytes, id_json: bytes) -> bytes:
    """The sha256 of a request line as received, without a leading
    ``{"id":<id_json>,``: every sorted-key client (``ServiceClient``
    included) writes the ``id`` first, so two requests that differ only
    in their ``id`` share a digest.  A line without that prefix is
    hashed whole.  Equal digests mean equal envelopes apart from the
    ``id``: a JSON value ends where its text ends, so the bytes after the
    prefix determine every other member.  A remainder starts (after any
    whitespace) with a key's ``"`` and a whole object with ``{``, so the
    two kinds never share bytes."""
    head = b'{"id":' + id_json + b","
    if line.startswith(head):
        return hashlib.sha256(memoryview(line)[len(head):]).digest()
    return hashlib.sha256(line).digest()


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


_OP_JSON = {op: encode_json(op) for op in ALL_OPS}
_SCHEMA_JSON = encode_json(SERVICE_SCHEMA)


def result_line(
    id_json: bytes,
    op: str,
    result_json: bytes,
    cached: bool,
    elapsed_ms: float,
) -> bytes:
    """``encode(result_response(id, op, result, cached, elapsed_ms))``
    from the encoded ``id`` and result (:func:`encode_json`): the same
    bytes, with no re-encoding of the result."""
    return b"".join((
        b'{"cached":', b"true" if cached else b"false",
        b',"elapsed_ms":', repr(elapsed_ms).encode("ascii"),
        b',"id":', id_json,
        b',"ok":true,"op":', _OP_JSON[op],
        b',"result":', result_json,
        b',"schema":', _SCHEMA_JSON, b"}\n",
    ))


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
