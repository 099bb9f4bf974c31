"""Blocking JSON-lines client for the analysis service.

The client the CLI, scripts and tests use.  One socket, one request on
the wire at a time (the server answers in order, so pipelining is
possible — this client just doesn't need it).  Typed replies carry the
``profibus-rt/api/v2`` result document verbatim, plus the transport
metadata (``cached``, ``elapsed_ms``) the server adds around it.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any, Dict, Optional

from . import protocol


class ServiceError(RuntimeError):
    """An error response from the server (or a dead connection)."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


@dataclass(frozen=True)
class ServiceReply:
    """One successful response off the wire."""

    op: str
    request_id: Any
    result: Dict[str, Any]
    cached: bool
    elapsed_ms: float


class ServiceClient:
    """``with ServiceClient(host, port) as c: c.analyse(doc)``."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # buffered reader so readline() is cheap; writes go via sendall
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    # -- plumbing --------------------------------------------------------
    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self,
        op: str,
        request: Optional[Dict[str, Any]] = None,
    ) -> ServiceReply:
        """Send one envelope, block for its response.  Error responses
        raise :class:`ServiceError`; transport loss raises it with type
        ``connection``."""
        self._next_id += 1
        request_id = self._next_id
        envelope = protocol.request_envelope(op, request, request_id)
        self._sock.sendall(protocol.encode(envelope))
        line = self._rfile.readline()
        if not line:
            raise ServiceError("connection", "server closed the connection")
        doc = protocol.decode_line(line)
        if doc.get("schema") != protocol.SERVICE_SCHEMA:
            raise ServiceError(
                "protocol", f"unexpected response schema {doc.get('schema')!r}"
            )
        if not doc.get("ok"):
            error = doc.get("error") or {}
            raise ServiceError(
                error.get("type", "unknown"),
                error.get("message", "unspecified server error"),
            )
        return ServiceReply(
            op=doc.get("op"),
            request_id=doc.get("id"),
            result=doc.get("result"),
            cached=bool(doc.get("cached")),
            elapsed_ms=float(doc.get("elapsed_ms", 0.0)),
        )

    # -- analysis operations ---------------------------------------------
    def analyse(self, request_doc: Dict[str, Any]) -> ServiceReply:
        return self.request("analyse", request_doc)

    def sweep(self, request_doc: Dict[str, Any]) -> ServiceReply:
        return self.request("sweep", request_doc)

    def admission(self, request_doc: Dict[str, Any]) -> ServiceReply:
        return self.request("admission", request_doc)

    def monitor(self, request_doc: Dict[str, Any]) -> ServiceReply:
        return self.request("monitor", request_doc)

    # -- control operations ----------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping").result

    def stats(self) -> Dict[str, Any]:
        return self.request("stats").result

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop (gracefully: in-flight work finishes)."""
        return self.request("shutdown").result
