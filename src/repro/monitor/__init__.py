"""`repro.monitor` — trace ingestion and online bound checking.

The paper's central claim is that the analytic response-time and
token-rotation bounds dominate whatever actually happens on the bus.
:mod:`repro.sim.validate` checks that claim against traffic our own
simulator produced; this package checks it against **recorded
reality**: timestamped frame logs, ingested in two formats

* the native :class:`repro.sim.trace.BusTrace` event stream exported
  as JSONL, and
* a simple external CSV/JSONL shape for foreign logs,

both schema-tagged ``profibus-rt/trace/v1``, and carried to the
``monitor`` op as a columnar ``profibus-rt/trace/v2`` document (the
row-wise v1 document is still read; :mod:`repro.monitor.trace_io`).  The :class:`TraceMonitor` engine
consumes events *incrementally* — file, pipe, or live ``stdin`` —
reconstructs per-stream observed response times, per-master
token-rotation statistics and pending-request ages, and checks them
against the analytic bounds from the same analysis layer
:mod:`repro.api` serves.  Snapshots come out as schema-versioned
:class:`MonitorReport` documents (``profibus-rt/monitor/v1``) whose
rows reuse the verdict vocabulary of :mod:`repro.sim.validate` —
``sound`` / ``unsound`` / ``incomplete`` / ``missing`` — plus
``degraded`` for verdicts built over untrustworthy evidence (a
truncated trace, cycle ends that cannot be paired with a release).

Front ends: ``repro-cli monitor`` (file and stdin-follow modes), the
``monitor`` op of :mod:`repro.api` and the resident service, and the
``trace-replay`` fuzz family which feeds recorded reality back into
the differential oracles.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "TraceMonitor": "engine",
    "monitor_events": "engine",
    "monitor_trace": "engine",
    "observed_worst_responses": "engine",
    "MonitorReport": "report",
    "master_verdict": "report",
    "validation_row_doc": "report",
    "IngestedTrace": "trace_io",
    "TraceFormatError": "trace_io",
    "event_from_doc": "trace_io",
    "event_to_doc": "trace_io",
    "read_trace": "trace_io",
    "trace_doc": "trace_io",
    "trace_from_doc": "trace_io",
    "write_trace_jsonl": "trace_io",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(globals(), _EXPORTS)
