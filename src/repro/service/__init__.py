"""Analysis-as-a-service: a resident multi-client daemon.

One analysis backend, N subscribed clients — the single-backend /
multi-client proxy shape.  The asyncio server (:mod:`.server`) accepts
newline-delimited JSON over TCP (:mod:`.protocol`, schema
``profibus-rt/service/v1``), tags every connection with a client id,
keeps per-client session statistics (:mod:`.sessions`), and serves
per-stream analysis verdicts, sweep rows and admission-control checks
through the one typed entrypoint in :mod:`repro.api` — fronted by a
shared value-keyed result cache, so identical and repeated requests
from any client hit instead of recompute.  :mod:`.client` is the
blocking client used by the CLI, scripts and tests.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceReply": "client",
    "SERVICE_SCHEMA": "protocol",
    "ProtocolError": "protocol",
    "AnalysisServer": "server",
    "SessionRegistry": "sessions",
    "SessionStats": "sessions",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
