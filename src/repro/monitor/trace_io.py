"""Trace ingestion and export: the ``profibus-rt/trace/v1`` formats.

One schema tag, three physical shapes, one in-memory form
(:class:`IngestedTrace`, a list of :class:`repro.sim.trace.BusEvent`
plus window metadata):

**Native JSONL** — what :func:`write_trace_jsonl` exports from a
:class:`~repro.sim.trace.BusTrace`: a header line carrying the schema
tag, the recording horizon and the dropped-event count, then one JSON
object per event::

    {"schema": "profibus-rt/trace/v1", "format": "native",
     "horizon": 200000, "dropped": 0}
    {"time": 0, "kind": "release", "master": "M1", "stream": "axis",
     "high_priority": true, "value": 0}
    ...

**External JSONL** — the same event objects without a header, for
foreign loggers that emit one frame per line.  ``time`` (int, bit
times), ``kind`` (the :data:`repro.sim.trace.EVENT_KINDS` vocabulary)
and ``master`` are required; ``stream`` / ``high_priority`` / ``value``
default.

**External CSV** — the same fields as columns, first row the header::

    time,kind,master,stream,high_priority,value
    0,release,M1,axis,1,0

Timestamps are **integers in bit times** — the exact-arithmetic
contract of the analysis layer extends to ingestion, so a foreign log
must be converted (not rounded here, silently) before checking.
Unknown kinds, unknown keys, and non-integer times are refused with
:class:`TraceFormatError` rather than guessed at.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, TextIO, Union

from ..schemas import TRACE_SCHEMA
from ..sim.trace import EVENT_KINDS, BusEvent, BusTrace

#: physical shapes a ``profibus-rt/trace/v1`` document can arrive in
FORMAT_NATIVE = "native"
FORMAT_JSONL = "external-jsonl"
FORMAT_CSV = "external-csv"
FORMATS = (FORMAT_NATIVE, FORMAT_JSONL, FORMAT_CSV)

#: the ``trace/v1`` event keys — also :class:`BusEvent`'s field order
_EVENT_KEYS = ("time", "kind", "master", "stream", "high_priority", "value")
_REQUIRED_KEYS = ("time", "kind", "master")
_EVENT_KEY_SET = frozenset(_EVENT_KEYS)
_KIND_SET = frozenset(EVENT_KINDS)
#: builds a :class:`BusEvent` from its six fields in order — cheaper than
#: calling the class, on the one allocation every ingested event costs
_new_event = BusEvent._make


class TraceFormatError(ValueError):
    """A trace document/file the ingester refuses to guess about."""


@dataclass
class IngestedTrace:
    """One ingested frame log, whichever shape it arrived in."""

    events: List[BusEvent] = field(default_factory=list)
    #: end of the observation window (bit times); ``None`` when the log
    #: does not say — consumers fall back to the last event time
    horizon: Optional[int] = None
    #: events the recorder dropped after its buffer filled — nonzero
    #: means every verdict over this trace must be ``degraded``
    dropped: int = 0
    source_format: str = FORMAT_NATIVE

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def to_doc(self) -> Dict[str, Any]:
        """The transportable ``profibus-rt/trace/v1`` document (what the
        ``monitor`` op of :mod:`repro.api` carries)."""
        return {
            "schema": TRACE_SCHEMA,
            "format": self.source_format,
            "horizon": self.horizon,
            "dropped": self.dropped,
            "events": _event_docs(self.events),
        }


# ------------------------------------------------------------- event docs

def _event_docs(events: Iterable[BusEvent]) -> List[Dict[str, Any]]:
    """The ``trace/v1`` objects of ``events``.  Unpacking each tuple in
    field order into a dict display is the cheapest way to build them
    (attribute reads and ``dict(zip(keys, event))`` both cost more)."""
    return [
        {"time": t, "kind": k, "master": m, "stream": s,
         "high_priority": h, "value": v}
        for t, k, m, s, h, v in events
    ]


def event_to_doc(event: BusEvent) -> Dict[str, Any]:
    return _event_docs((event,))[0]


def _int_field(doc: Dict[str, Any], key: str, where: str) -> int:
    value = doc.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TraceFormatError(
            f"{where}: {key!r} must be an integer (bit times), "
            f"got {value!r} — convert foreign timestamps before ingesting"
        )
    return value


def _plain_event(doc: Any) -> Optional[BusEvent]:
    """The event of a plain, complete, well-typed event object — a
    ``dict`` with exactly the six keys, int ``time``/``value``, a known
    ``kind``, a non-empty ``master``, a str ``stream`` and a bool
    ``high_priority`` (what every native export holds) — or ``None``
    for anything else, which :func:`_checked_event` then diagnoses
    (or accepts: defaulted keys, dict/int/str subclasses)."""
    if type(doc) is not dict or len(doc) != 6:
        return None
    try:  # six keys, all six found: exactly the event keys
        time = doc["time"]
        kind = doc["kind"]
        master = doc["master"]
        stream = doc["stream"]
        high = doc["high_priority"]
        value = doc["value"]
    except KeyError:
        return None
    if (type(time) is int and type(kind) is str and kind in _KIND_SET
            and type(master) is str and master and type(stream) is str
            and type(high) is bool and type(value) is int):
        return _new_event((time, kind, master, stream, high, value))
    return None


def _checked_event(doc: Any, where: str) -> BusEvent:
    """Field-by-field validation with the diagnostic of the first
    failing check (``where`` names the event in the message)."""
    if not isinstance(doc, dict):
        raise TraceFormatError(f"{where}: event must be a JSON object")
    unknown = set(doc) - _EVENT_KEY_SET
    if unknown:
        raise TraceFormatError(
            f"{where}: unknown event key(s) {sorted(unknown)}; "
            f"allowed: {list(_EVENT_KEYS)}"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise TraceFormatError(f"{where}: event missing key(s) {missing}")
    kind = doc["kind"]
    if kind not in EVENT_KINDS:
        raise TraceFormatError(
            f"{where}: unknown event kind {kind!r}; "
            f"vocabulary: {list(EVENT_KINDS)}"
        )
    master = doc["master"]
    if not isinstance(master, str) or not master:
        raise TraceFormatError(f"{where}: 'master' must be a non-empty string")
    stream = doc.get("stream", "")
    if not isinstance(stream, str):
        raise TraceFormatError(f"{where}: 'stream' must be a string")
    high = doc.get("high_priority", True)
    if not isinstance(high, bool):
        raise TraceFormatError(f"{where}: 'high_priority' must be a boolean")
    return BusEvent(
        time=_int_field(doc, "time", where),
        kind=kind,
        master=master,
        stream=stream,
        high_priority=high,
        value=_int_field(doc, "value", where),
    )


def event_from_doc(doc: Dict[str, Any], where: str = "trace event",
                   number: Optional[int] = None) -> BusEvent:
    """The :class:`BusEvent` of one event object.  ``where`` names the
    event in error messages; with ``number`` it is a prefix completed
    by that number (``"trace event #", 3`` → ``trace event #3``).  The
    text is only built for an event the fast path does not take, so a
    clean native trace formats none."""
    event = _plain_event(doc)
    if event is None:
        event = _checked_event(
            doc, where if number is None else f"{where}{number}")
    return event


# ----------------------------------------------------------- whole documents

def trace_doc(
    trace: BusTrace,
    horizon: Optional[int] = None,
) -> Dict[str, Any]:
    """The ``profibus-rt/trace/v1`` document for a recorded
    :class:`BusTrace` (what the ``monitor`` op transports)."""
    return IngestedTrace(
        events=list(trace.events),
        horizon=horizon,
        dropped=trace.dropped,
        source_format=FORMAT_NATIVE,
    ).to_doc()


def trace_from_doc(doc: Dict[str, Any]) -> IngestedTrace:
    """Parse a transportable trace document (the inverse of
    :meth:`IngestedTrace.to_doc`)."""
    if not isinstance(doc, dict):
        raise TraceFormatError("trace must be a JSON object")
    if doc.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(
            f"unsupported trace schema {doc.get('schema')!r}; "
            f"this build speaks {TRACE_SCHEMA}"
        )
    allowed = {"schema", "format", "horizon", "dropped", "events"}
    unknown = set(doc) - allowed
    if unknown:
        raise TraceFormatError(
            f"unknown trace key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    fmt = doc.get("format", FORMAT_NATIVE)
    if fmt not in FORMATS:
        raise TraceFormatError(
            f"unknown trace format {fmt!r}; pick from {list(FORMATS)}"
        )
    horizon = doc.get("horizon")
    if horizon is not None and (isinstance(horizon, bool)
                                or not isinstance(horizon, int)):
        raise TraceFormatError("trace 'horizon' must be an integer or null")
    dropped = doc.get("dropped", 0)
    if isinstance(dropped, bool) or not isinstance(dropped, int) or dropped < 0:
        raise TraceFormatError("trace 'dropped' must be a non-negative integer")
    events_doc = doc.get("events")
    if not isinstance(events_doc, list):
        raise TraceFormatError("trace 'events' must be a list")
    events = [
        event_from_doc(e, "trace event #", i)
        for i, e in enumerate(events_doc)
    ]
    return IngestedTrace(events=events, horizon=horizon, dropped=dropped,
                         source_format=fmt)


# ------------------------------------------------------------ native export

def write_trace_jsonl(
    trace: BusTrace,
    path: Union[str, Path, TextIO],
    horizon: Optional[int] = None,
) -> None:
    """Export a recorded :class:`BusTrace` as native JSONL: one header
    line (schema tag, horizon, dropped count), one line per event —
    deterministic key order, so two exports of the same run are
    byte-identical."""
    header = {
        "schema": TRACE_SCHEMA,
        "format": FORMAT_NATIVE,
        "horizon": horizon,
        "dropped": trace.dropped,
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines.extend(
        json.dumps(doc, sort_keys=True, separators=(",", ":"))
        for doc in _event_docs(trace.events)
    )
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)


# --------------------------------------------------------------- ingestion

def parse_header_line(line: str) -> Optional[Dict[str, Any]]:
    """The native header of a JSONL trace, or ``None`` when the line is
    an event (external logs have no header).  Raises on a header that
    names a schema this build does not speak."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"unparseable trace line: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError("trace line must be a JSON object")
    if "schema" not in doc:
        return None
    if doc["schema"] != TRACE_SCHEMA:
        raise TraceFormatError(
            f"unsupported trace schema {doc['schema']!r}; "
            f"this build speaks {TRACE_SCHEMA}"
        )
    horizon = doc.get("horizon")
    if horizon is not None and (isinstance(horizon, bool)
                                or not isinstance(horizon, int)):
        raise TraceFormatError("trace header 'horizon' must be int or null")
    dropped = doc.get("dropped", 0)
    if isinstance(dropped, bool) or not isinstance(dropped, int) or dropped < 0:
        raise TraceFormatError(
            "trace header 'dropped' must be a non-negative integer"
        )
    return {"horizon": horizon, "dropped": dropped,
            "format": doc.get("format", FORMAT_NATIVE)}


def parse_event_line(line: str, where: str = "trace line",
                     number: Optional[int] = None) -> BusEvent:
    """The event on one JSONL line (``where``/``number`` as in
    :func:`event_from_doc`)."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        if number is not None:
            where = f"{where}{number}"
        raise TraceFormatError(f"{where}: unparseable: {exc}") from exc
    return event_from_doc(doc, where, number)


def _read_jsonl(lines: Iterable[str]) -> IngestedTrace:
    trace = IngestedTrace(source_format=FORMAT_JSONL)
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        if i == 0:
            header = parse_header_line(line)
            if header is not None:
                trace.horizon = header["horizon"]
                trace.dropped = header["dropped"]
                trace.source_format = FORMAT_NATIVE
                continue
        trace.events.append(parse_event_line(line, "trace line ", i + 1))
    return trace


_CSV_BOOL = {"1": True, "0": False, "true": True, "false": False,
             "yes": True, "no": False}


def _read_csv(lines: Iterable[str]) -> IngestedTrace:
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        raise TraceFormatError("empty CSV trace")
    fields = [f.strip() for f in reader.fieldnames]
    unknown = set(fields) - _EVENT_KEY_SET
    if unknown:
        raise TraceFormatError(
            f"unknown CSV column(s) {sorted(unknown)}; "
            f"allowed: {list(_EVENT_KEYS)}"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in fields]
    if missing:
        raise TraceFormatError(f"CSV trace missing column(s) {missing}")
    trace = IngestedTrace(source_format=FORMAT_CSV)
    for row_no, row in enumerate(reader, start=2):
        doc: Dict[str, Any] = {}
        for key, value in row.items():
            if value is None:
                raise TraceFormatError(f"CSV row {row_no}: short row")
            key = key.strip()
            value = value.strip()
            if key in ("time", "value"):
                try:
                    doc[key] = int(value)
                except ValueError:
                    raise TraceFormatError(
                        f"CSV row {row_no}: {key!r} must be an integer "
                        f"(bit times), got {value!r}"
                    )
            elif key == "high_priority":
                try:
                    doc[key] = _CSV_BOOL[value.lower()]
                except KeyError:
                    raise TraceFormatError(
                        f"CSV row {row_no}: 'high_priority' must be one of "
                        f"{sorted(_CSV_BOOL)}, got {value!r}"
                    )
            else:
                doc[key] = value
        trace.events.append(event_from_doc(doc, "CSV row ", row_no))
    return trace


def _sniff_format(first_line: str) -> str:
    stripped = first_line.lstrip()
    if stripped.startswith("{"):
        return FORMAT_JSONL  # native vs external resolved by the header
    if "time" in stripped and "kind" in stripped and "," in stripped:
        return FORMAT_CSV
    raise TraceFormatError(
        "cannot auto-detect trace format: expected a JSON object line "
        "(JSONL) or a 'time,kind,master,...' CSV header"
    )


def read_trace(
    source: Union[str, Path, TextIO],
    fmt: str = "auto",
) -> IngestedTrace:
    """Ingest a trace file (or open text stream) in any of the
    ``profibus-rt/trace/v1`` shapes.  ``fmt`` is ``"auto"`` (sniff from
    the first line), ``"jsonl"`` (native or external JSONL), or
    ``"csv"``."""
    if fmt not in ("auto", "jsonl", "csv"):
        raise TraceFormatError(
            f"unknown ingest format {fmt!r}; pick from ['auto', 'jsonl', 'csv']"
        )
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise TraceFormatError("empty trace")
    if fmt == "auto":
        fmt = "csv" if _sniff_format(lines[0]) == FORMAT_CSV else "jsonl"
    if fmt == "csv":
        return _read_csv(lines)
    return _read_jsonl(lines)
