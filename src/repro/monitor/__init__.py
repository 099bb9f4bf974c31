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

from .engine import (
    TraceMonitor,
    monitor_events,
    monitor_trace,
    observed_worst_responses,
)
from .report import MonitorReport, master_verdict, validation_row_doc
from .trace_io import (
    IngestedTrace,
    TraceFormatError,
    event_from_doc,
    event_to_doc,
    read_trace,
    trace_doc,
    trace_from_doc,
    write_trace_jsonl,
)

__all__ = [
    "IngestedTrace",
    "MonitorReport",
    "TraceFormatError",
    "TraceMonitor",
    "event_from_doc",
    "event_to_doc",
    "master_verdict",
    "monitor_events",
    "monitor_trace",
    "observed_worst_responses",
    "read_trace",
    "trace_doc",
    "trace_from_doc",
    "validation_row_doc",
    "write_trace_jsonl",
]
