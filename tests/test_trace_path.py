"""The trace path end to end: simulate → export → ingest → check.

Four contracts are pinned here:

* the simulator's output is bit-for-bit what it was before the event
  loop, the bus events and the MAC state machine were made cheaper —
  sha256 digests of the canonical ``trace/v1`` document built from the
  recorded events and of every :class:`~repro.sim.token.TokenBusResult`
  statistic — and the ``trace/v2`` export of those events is pinned
  beside them; a run leaves no reference cycle behind;
* ingestion refuses every malformed event with exactly the same
  :class:`TraceFormatError` text on every path (v1 and v2 trace
  documents, native and external JSONL, CSV), naming the event or its
  line/row;
* the v1 and the v2 document of one run ingest to the same events and
  check to the same monitor report;
* the monitor refuses an event earlier than the one before it (the
  time-order contract), on the api, CLI-file and follow paths.
"""

import dataclasses
import gc
import hashlib
import io
import json
import weakref
from random import Random

import pytest

from repro import api
from repro.fuzz import generate_instance
from repro.gen.network_gen import network_with_ttr_headroom, random_network
from repro.monitor import (
    IngestedTrace,
    TraceFormatError,
    TraceMonitor,
    event_from_doc,
    event_to_doc,
    monitor_events,
    monitor_trace,
    read_trace,
    trace_doc,
    trace_from_doc,
)
from repro.profibus.serialization import network_to_dict
from repro.profibus.timing import longest_cycle
from repro.scenarios import factory_cell_network
from repro.schemas import TRACE_SCHEMA, TRACE_SCHEMA_V1
from repro.sim import (
    RELEASE,
    TOKEN_ARRIVAL,
    BusEvent,
    BusTrace,
    TokenBusConfig,
    simulate_token_bus,
)


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _v1_doc(recorder, horizon):
    """The ``trace/v1`` document of a recorded run: one event object per
    event (:func:`event_to_doc`), under the v2 export's header."""
    return {"schema": TRACE_SCHEMA_V1, "format": "native",
            "horizon": horizon, "dropped": recorder.dropped,
            "events": [event_to_doc(e) for e in recorder.events]}


def _v1_twin(doc):
    """The ``trace/v1`` document holding the rows of a ``trace/v2``
    document's columns, cell for cell (malformed cells included)."""
    columns = doc["columns"]
    twin = {k: v for k, v in doc.items() if k != "columns"}
    twin["schema"] = TRACE_SCHEMA_V1
    twin["events"] = [dict(zip(columns, row))
                      for row in zip(*columns.values())]
    return twin


def _v2_doc(events):
    """A ``trace/v2`` document whose columns hold ``events`` (event
    objects with all six keys, malformed cells included)."""
    return {"schema": TRACE_SCHEMA, "columns": {
        key: [e[key] for e in events] for key in BusEvent._fields}}


def _ring():
    """A shallow-load five-master ring shaped like the trace-check
    benchmark's (token passing dominates the event stream)."""
    net = random_network(n_masters=5, streams_per_master=2,
                         period_ms=(20.0, 160.0), d_over_t=(0.3, 1.0),
                         low_priority_streams=1, payload_range=(2, 16),
                         rng=Random("trace-pin:ring"))
    return network_with_ttr_headroom(net, headroom=2.0)


#: a factory-cell horizon that ends inside the message cycle starting
#: at t = 150087 (1059 bit times long)
_CUT_HORIZON = 150_616

#: trace bound of the pinned runs whose recorder fills up
_RECORDER_CAP = {"ring-truncated-ap-dm": 300}


def _pinned_run(case):
    cell = factory_cell_network()
    horizon = 200 * cell.phy.baud_rate // 1000
    if case.startswith("ring-"):
        net = _ring()
        config = {"policy": "ap-dm"}
        if case == "ring-errors-ap-edf":
            config = {"policy": "ap-edf", "error_rate": 0.25, "seed": 11}
        return net, 200 * net.phy.baud_rate // 1000, config
    if case == "cell-gap-lap-stock-fcfs":
        # gap polls beside one master whose low traffic never runs out
        first = cell.masters[0]
        return cell, horizon, {
            "policy": "stock-fcfs", "gap_update_factor": 3,
            "low_always_pending": {
                first.name: longest_cycle(first, cell.phy)},
        }
    if case == "cell-cold-ap-dm":
        return cell, horizon, {"policy": "ap-dm", "warm_start": False,
                               "stats_after": horizon // 4}
    if case == "cell-stack2-ap-edf":
        lap = {m.name: longest_cycle(m, cell.phy) for m in cell.masters}
        return cell, horizon, {"policy": "ap-edf", "stack_depth": 2,
                               "trace_responses": True,
                               "low_always_pending": lap}
    if case == "cell-cut-stock-fcfs":
        return cell, _CUT_HORIZON, {"policy": "stock-fcfs"}
    if case == "cell-stress-ap-edf":
        # background lows, gap polls, line errors, a steady-state filter
        # and per-response recording: every branch of the MAC loop
        lap = {m.name: longest_cycle(m, cell.phy) for m in cell.masters}
        return cell, horizon, {
            "policy": "ap-edf", "low_always_pending": lap,
            "gap_update_factor": 2, "error_rate": 0.3, "seed": 5,
            "stats_after": horizon // 10, "trace_responses": True,
        }
    return cell, horizon, {"policy": case[len("cell-"):]}


#: (trace events, sim events, sha256 of the trace/v1 document, sha256
#: of the TokenBusResult statistics) — recorded before the trace path
#: was optimised; any drift is a change of simulator behaviour
PINNED = {
    "cell-stock-fcfs": (
        3059, 3029,
        "25967ca4ddbf77c0d609ed0681d3468214f2201f427f7e35f80341dd40fdae16",
        "47df60291bc3e6a5826d26b0129e1e6e966a470868cc7ba4a5814a2e1a6c855b"),
    "cell-ap-dm": (
        3059, 3029,
        "82ebdca92a3864e83c31a8e92c02b1d13a9f75e8c78e84b0214312e5ceaf0254",
        "1b950d6636b7692f854c7a02592859ef1dbed1ef26040b51e678c3e18951c95a"),
    "cell-ap-edf": (
        3059, 3029,
        "82ebdca92a3864e83c31a8e92c02b1d13a9f75e8c78e84b0214312e5ceaf0254",
        "1b950d6636b7692f854c7a02592859ef1dbed1ef26040b51e678c3e18951c95a"),
    "ring-ap-dm": (
        804, 755,
        "b635ba2b4587f369c6f5f5a5fcc6ea642d3685d3f7a88b4229da44c4fc4aea4f",
        "3793b1267197225d792d592541dda452ee56821d35f6571ba03bb383d1aa9a2d"),
    "cell-stress-ap-edf": (
        878, 728,
        "0acb7c2c7cf50369396b162b4923b18bfcb05667deb09a456255a61ecb638258",
        "e0c432723a357a26e6cd3e58537e1ffc72af7e0ada10149c12cc4e81f0f86e29"),
}

#: The branches the runs above leave out: gap polls beside an
#: always-pending low master, line errors, a cold start with a
#: steady-state filter, a two-deep stack, a full recorder and a horizon
#: inside a message cycle.  Same tuple as :data:`PINNED`, recorded at
#: commit 18f4283, before idle token visits were fired outside the
#: calendar.
PINNED.update({
    "cell-gap-lap-stock-fcfs": (
        1008, 974,
        "94542ed5947b39213907696faf8b08b257eecca28175634a79473f140c369ba5",
        "0c5a1dff4dd3d31f857f12e94f2837270ac3bdf179ed4287980b24a37ccffb87"),
    "ring-errors-ap-edf": (
        934, 885,
        "b19888adb0c3529b99657105f7f7469102e72ec29e4c9d00c2e4ecd0dbf6d7a4",
        "d3efa7dfe557bcec737780b6e5fca9815097262b0b8d5d33d727b2ee4c5bc513"),
    "cell-cold-ap-dm": (
        3059, 3029,
        "e875a8f3b51618f07fe27d075c98782fdfdb8ed1fa467bfaa0a848010e05dc3e",
        "c9e821d432af4f7ebed4993e04a5f69b64eb8993f8eacd99f484f1f7bb9b5a04"),
    "cell-stack2-ap-edf": (
        907, 659,
        "af76daca1e7fa0f9c8723637e18574d95cc7f638beaaff2dd26e34323bf9a169",
        "3117014b4d5af595bb06a3e4d8e03ea5f5633d6a1f998f7e1cedfc16bbc6a8c0"),
    "ring-truncated-ap-dm": (
        300, 755,
        "6a61c033d9dd7c68c2aa2057ce7aa2eb7470b41b2ac8ef82ab4ca713023295ed",
        "3793b1267197225d792d592541dda452ee56821d35f6571ba03bb383d1aa9a2d"),
    "cell-cut-stock-fcfs": (
        1502, 1483,
        "809675d8386e26fbc73884e0cc455d6adba2d57e6b1e6275da3d8e6b571a091f",
        "5d472e8a05d2ee2091ce3086f039795d3167b6ce072c8909bdf3953b44545e65"),
})

#: sha256 of the trace/v2 document (``trace_doc``) of each pinned run
PINNED_V2 = {
    "cell-stock-fcfs":
        "121107f4a5dee6bf4d05f7e77a8592631508d6d95e873e74d521b87e43dea877",
    "cell-ap-dm":
        "57b00aa50cf3b5e43f1a93dc431c34f23e4ed67e5aa8c5b5f975f98c8d02e01b",
    "cell-ap-edf":
        "57b00aa50cf3b5e43f1a93dc431c34f23e4ed67e5aa8c5b5f975f98c8d02e01b",
    "ring-ap-dm":
        "54d1c797baa08566761fd0f9f1d9bedfb051c835446233fb91e6470aaab0a75e",
    "cell-stress-ap-edf":
        "05d9b5eb6a09d894aa6037b63cdb088dfc50cb7f80bd6058f37a11ca74be195d",
    "cell-gap-lap-stock-fcfs":
        "0e65143ffa1841ae5d30f6e4c4dfd4c8c4248a728a4f6d0b9f2a8ffa704abb77",
    "ring-errors-ap-edf":
        "a7103731c1501cee4b9cee1469fc38ed05435ecd228246ca891f152c31065eab",
    "cell-cold-ap-dm":
        "648ddb26afe16eab74f7f3c4c043124cc3ca5ea8cfe2a073a591c4bdb4a766dc",
    "cell-stack2-ap-edf":
        "d0d02e936aea205630c6dc46a925c69485d96481d80a75b90045ba607add2fd3",
    "ring-truncated-ap-dm":
        "d010505f7ba6203d719dd76ee7e9ab3ffce23c6570a3a6fed9be01a2c79ff9e7",
    "cell-cut-stock-fcfs":
        "ac21f9fb9a8107b637bf9154c00d8c96412f477930fbeaf70c77c9d3900d91ab",
}


def _pinned_trace(case):
    """``(network, horizon, recorder, result)`` of a pinned run."""
    net, horizon, config = _pinned_run(case)
    recorder = BusTrace(max_events=_RECORDER_CAP.get(case, 100_000))
    result = simulate_token_bus(
        net, horizon, config=TokenBusConfig(tracer=recorder, **config))
    return net, horizon, recorder, result


class TestSimulatorPinned:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_trace_and_statistics_unchanged(self, case):
        _, horizon, recorder, result = _pinned_trace(case)
        stats = {
            "horizon": result.horizon,
            "events": result.events,
            "streams": {k: dataclasses.asdict(v)
                        for k, v in result.streams.items()},
            "masters": {k: dataclasses.asdict(v)
                        for k, v in result.masters.items()},
        }
        assert (len(recorder.events), result.events,
                _sha(_v1_doc(recorder, horizon)),
                _sha(stats)) == PINNED[case]
        assert _sha(trace_doc(recorder, horizon=horizon)) == PINNED_V2[case]

    def test_stress_case_reaches_every_branch(self):
        net, horizon, config = _pinned_run("cell-stress-ap-edf")
        result = simulate_token_bus(net, horizon,
                                    config=TokenBusConfig(**config))
        for ms in result.masters.values():
            assert ms.gap_polls and ms.low_sent and ms.tth_overruns

    def test_branch_cases_reach_their_branch(self):
        def run(case):
            return _pinned_trace(case)[2:]

        _, result = run("cell-gap-lap-stock-fcfs")
        first = factory_cell_network().masters[0].name
        assert result.masters[first].gap_polls
        assert result.masters[first].low_sent > result.masters[first].gap_polls
        recorder, _ = run("ring-errors-ap-edf")
        lengths = {}
        for e in recorder.events:
            if e.kind == "cycle_start" and e.stream:
                lengths.setdefault(e.stream, set()).add(e.value)
        # some cycles cost the nominal attempt, others the worst case
        assert any(len(values) > 1 for values in lengths.values())
        _, result = run("cell-stack2-ap-edf")
        assert max(m.max_pending_high for m in result.masters.values()) > 2
        assert all(s.responses is not None for s in result.streams.values())
        recorder, _ = run("ring-truncated-ap-dm")
        assert len(recorder.events) == 300 and recorder.dropped
        recorder, result = run("cell-cut-stock-fcfs")
        last = recorder.events[-1]
        assert last.kind == "cycle_start"
        assert last.time < _CUT_HORIZON < last.time + last.value
        # the request on the wire counts as unfinished
        assert result.stream(last.master, last.stream).unfinished

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_run_leaves_no_reference_cycle(self, case):
        """The run's state (MAC closures, calendar, recorder) is freed
        by reference counting: with the collector off, the recorder dies
        as soon as the caller drops it and the result, and a collection
        afterwards finds nothing."""
        net, horizon, config = _pinned_run(case)
        gc.collect()
        gc.disable()
        try:
            recorder = BusTrace(max_events=_RECORDER_CAP.get(case, 100_000))
            result = simulate_token_bus(
                net, horizon,
                config=TokenBusConfig(tracer=recorder, **config))
            alive = weakref.ref(recorder)
            assert result.events and recorder.events
            del recorder, result
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBusEvent:
    def test_is_a_plain_tuple(self):
        event = BusEvent(5, RELEASE, "M1", "s0", False, 7)
        assert event == (5, RELEASE, "M1", "s0", False, 7)
        assert tuple(event) == (5, RELEASE, "M1", "s0", False, 7)
        assert not hasattr(event, "__dict__")

    def test_defaults_and_keywords(self):
        event = BusEvent(time=3, kind=TOKEN_ARRIVAL, master="M1")
        assert (event.stream, event.high_priority, event.value) == ("", True, 0)
        assert event == BusEvent(3, TOKEN_ARRIVAL, "M1", "", True, 0)

    def test_doc_keys_follow_field_order(self):
        event = BusEvent(5, RELEASE, "M1", "s0", False, 7)
        assert list(event_to_doc(event)) == list(BusEvent._fields)
        assert event_from_doc(event_to_doc(event)) == event


# -------------------------------------------------------- ingest parity

_GOOD = {"time": 0, "kind": "release", "master": "M1", "stream": "s0",
         "high_priority": True, "value": 0}
_CSV_HEADER = "time,kind,master,stream,high_priority,value"
_CSV_GOOD = "0,release,M1,s0,1,0"
_KEYS = "['time', 'kind', 'master', 'stream', 'high_priority', 'value']"
_KINDS = "['token_arrival', 'cycle_start', 'cycle_end', 'release']"
_FOREIGN = " — convert foreign timestamps before ingesting"

#: name → (malformed event object, error text after the location,
#: CSV (header, good row, bad row, full error text) or None where a CSV
#: cell cannot spell the defect)
MALFORMED = {
    "not-object": ([1, 2], "event must be a JSON object", None),
    "unknown-key": (
        dict(_GOOD, extra=1),
        f"unknown event key(s) ['extra']; allowed: {_KEYS}",
        (_CSV_HEADER + ",extra", _CSV_GOOD + ",1", _CSV_GOOD + ",1",
         f"unknown CSV column(s) ['extra']; allowed: {_KEYS}")),
    "missing-key": (
        {k: v for k, v in _GOOD.items() if k != "master"},
        "event missing key(s) ['master']",
        ("time,kind,stream,high_priority,value", "0,release,s0,1,0",
         "0,release,s0,1,0", "CSV trace missing column(s) ['master']")),
    "unknown-kind": (
        dict(_GOOD, kind="frame"),
        f"unknown event kind 'frame'; vocabulary: {_KINDS}",
        (_CSV_HEADER, _CSV_GOOD, "0,frame,M1,s0,1,0",
         f"CSV row 3: unknown event kind 'frame'; vocabulary: {_KINDS}")),
    "empty-master": (
        dict(_GOOD, master=""),
        "'master' must be a non-empty string",
        (_CSV_HEADER, _CSV_GOOD, "0,release,,s0,1,0",
         "CSV row 3: 'master' must be a non-empty string")),
    "non-str-master": (dict(_GOOD, master=7),
                       "'master' must be a non-empty string", None),
    "non-str-stream": (dict(_GOOD, stream=5), "'stream' must be a string",
                       None),
    "non-bool-high": (
        dict(_GOOD, high_priority=1),
        "'high_priority' must be a boolean",
        (_CSV_HEADER, _CSV_GOOD, "0,release,M1,s0,maybe,0",
         "CSV row 3: 'high_priority' must be one of "
         "['0', '1', 'false', 'no', 'true', 'yes'], got 'maybe'")),
    "bool-time": (
        dict(_GOOD, time=True),
        "'time' must be an integer (bit times), got True" + _FOREIGN,
        (_CSV_HEADER, _CSV_GOOD, "true,release,M1,s0,1,0",
         "CSV row 3: 'time' must be an integer (bit times), got 'true'")),
    "float-time": (
        dict(_GOOD, time=1.5),
        "'time' must be an integer (bit times), got 1.5" + _FOREIGN,
        (_CSV_HEADER, _CSV_GOOD, "1.5,release,M1,s0,1,0",
         "CSV row 3: 'time' must be an integer (bit times), got '1.5'")),
    "bool-value": (
        dict(_GOOD, value=False),
        "'value' must be an integer (bit times), got False" + _FOREIGN,
        (_CSV_HEADER, _CSV_GOOD, "0,release,M1,s0,1,false",
         "CSV row 3: 'value' must be an integer (bit times), got 'false'")),
    "float-value": (
        dict(_GOOD, value=2.5),
        "'value' must be an integer (bit times), got 2.5" + _FOREIGN,
        (_CSV_HEADER, _CSV_GOOD, "0,release,M1,s0,1,2.5",
         "CSV row 3: 'value' must be an integer (bit times), got '2.5'")),
}


def _error(fn) -> str:
    with pytest.raises(TraceFormatError) as exc_info:
        fn()
    return str(exc_info.value)


def _lines(*lines) -> io.StringIO:
    return io.StringIO("\n".join(lines) + "\n")


class TestIngestErrorParity:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_text_on_every_path(self, name):
        bad, text, csv_case = MALFORMED[name]
        header = json.dumps({"schema": TRACE_SCHEMA_V1, "format": "native",
                             "horizon": 10, "dropped": 0})
        good, wrong = json.dumps(_GOOD), json.dumps(bad)
        assert _error(lambda: trace_from_doc(
            {"schema": TRACE_SCHEMA_V1, "events": [_GOOD, bad]}
        )) == f"trace event #1: {text}"
        assert _error(lambda: read_trace(_lines(header, good, wrong))) \
            == f"trace line 3: {text}"
        assert _error(lambda: read_trace(_lines(good, wrong))) \
            == f"trace line 2: {text}"
        assert _error(lambda: event_from_doc(bad)) == f"trace event: {text}"
        if csv_case is not None:
            csv_header, csv_good, csv_bad, csv_text = csv_case
            assert _error(lambda: read_trace(
                _lines(csv_header, csv_good, csv_bad))) == csv_text

    def test_unparseable_line_names_its_number(self):
        message = _error(lambda: read_trace(_lines(json.dumps(_GOOD), "{x")))
        assert message.startswith("trace line 2: unparseable: ")

    def test_subclassed_dict_and_ints_ingest_like_plain(self):
        class Doc(dict):
            pass

        class Int(int):
            pass

        plain = event_from_doc(dict(_GOOD, time=40, value=9))
        variants = [
            Doc(_GOOD, time=40, value=9),
            dict(_GOOD, time=Int(40), value=Int(9)),
            {"time": 40, "kind": "release", "master": "M1", "value": 9,
             "stream": "s0", "high_priority": True},  # other key order
        ]
        for doc in variants:
            event = event_from_doc(doc)
            assert event == plain and type(event) is BusEvent
            ingested = trace_from_doc({"schema": TRACE_SCHEMA_V1,
                                       "events": [doc]})
            assert ingested.events == [plain]
            events = trace_from_doc(_v2_doc([doc, doc])).events
            assert events == [plain, plain]
            assert all(type(e) is BusEvent for e in events)

    def test_defaulted_keys_ingest(self):
        event = event_from_doc({"time": 1, "kind": "release", "master": "M"})
        assert event == BusEvent(1, RELEASE, "M", "", True, 0)


#: the malformed events a v2 cell can spell: all six keys, one bad value
#: (the others are column-shape faults in a v2 document)
CELL_CASES = sorted(name for name, (bad, _, _) in MALFORMED.items()
                    if isinstance(bad, dict) and bad.keys() == _GOOD.keys())

_COLUMNS = "['time', 'kind', 'master', 'stream', 'high_priority', 'value']"


def _good_columns():
    return _v2_doc([_GOOD])["columns"]


#: name → (columns object or a function of the good columns, message)
COLUMN_SHAPES = {
    "not-object": ([_GOOD], "trace 'columns' must be an object"),
    "missing-column": (
        lambda c: c.pop("value"),
        f"trace missing column(s) ['value']; required: {_COLUMNS}"),
    "extra-column": (
        lambda c: c.update(color=["red"]),
        f"unknown trace column(s) ['color']; required: {_COLUMNS}"),
    "non-list-column": (
        lambda c: c.update(stream="s0"),
        "trace column 'stream' must be a list"),
    "short-column": (
        lambda c: c["kind"].clear(),
        "trace columns must have one length, got time 1, kind 0, "
        "master 1, stream 1, high_priority 1, value 1"),
}


class TestColumnIngest:
    def test_cell_cases_cover_every_value_check(self):
        assert CELL_CASES == [
            "bool-time", "bool-value", "empty-master", "float-time",
            "float-value", "non-bool-high", "non-str-master",
            "non-str-stream", "unknown-kind"]

    @pytest.mark.parametrize("name", CELL_CASES)
    def test_malformed_cell_gives_the_v1_text(self, name):
        bad, text, _ = MALFORMED[name]
        doc = _v2_doc([_GOOD, _GOOD, bad, _GOOD])
        assert _error(lambda: trace_from_doc(doc)) \
            == _error(lambda: trace_from_doc(_v1_twin(doc))) \
            == f"trace event #2: {text}"

    def test_first_bad_row_wins_across_columns(self):
        doc = _v2_doc([_GOOD, dict(_GOOD, value=2.5),
                       dict(_GOOD, kind="frame")])
        assert _error(lambda: trace_from_doc(doc)) \
            == _error(lambda: trace_from_doc(_v1_twin(doc))) \
            == ("trace event #1: 'value' must be an integer (bit times), "
                "got 2.5" + _FOREIGN)

    @pytest.mark.parametrize("name", sorted(COLUMN_SHAPES))
    def test_column_shape_faults(self, name):
        fault, text = COLUMN_SHAPES[name]
        columns = _good_columns()
        if callable(fault):
            fault(columns)
        else:
            columns = fault
        assert _error(lambda: trace_from_doc(
            {"schema": TRACE_SCHEMA, "columns": columns})) == text

    def test_body_key_follows_the_schema(self):
        assert _error(lambda: trace_from_doc(
            {"schema": TRACE_SCHEMA, "events": [_GOOD]})) == (
            "unknown trace key(s) ['events']; allowed: "
            "['columns', 'dropped', 'format', 'horizon', 'schema']")
        assert _error(lambda: trace_from_doc(
            {"schema": TRACE_SCHEMA_V1, "columns": _good_columns()})) == (
            "unknown trace key(s) ['columns']; allowed: "
            "['dropped', 'events', 'format', 'horizon', 'schema']")
        assert _error(lambda: trace_from_doc({"schema": TRACE_SCHEMA})) \
            == "trace 'columns' must be an object"

    def test_empty_columns_ingest_to_no_events(self):
        doc = trace_doc(BusTrace())
        assert doc["columns"] == {key: [] for key in BusEvent._fields}
        assert trace_from_doc(doc).events == []

    def test_unhashable_schema_is_refused(self):
        assert _error(lambda: trace_from_doc({"schema": [TRACE_SCHEMA]})) \
            == (f"unsupported trace schema [{TRACE_SCHEMA!r}]; this build "
                f"reads {TRACE_SCHEMA} and {TRACE_SCHEMA_V1}")


# ------------------------------------------------------ v1/v2 equivalence

_MONITOR_POLICY = {"stock-fcfs": "fcfs", "ap-dm": "dm", "ap-edf": "edf"}


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _same_checks(net, v1, v2, policy, stats_after=0):
    """The two documents ingest to equal traces, key the same cache
    entry, and check to byte-identical monitor results."""
    v1, v2 = json.loads(json.dumps(v1)), json.loads(json.dumps(v2))
    assert trace_from_doc(v1) == trace_from_doc(v2)
    requests = [api.AnalysisRequest(
        op="monitor", network=network_to_dict(net), policy=policy,
        trace=doc, stats_after=stats_after) for doc in (v1, v2)]
    assert requests[0].cache_key("fp") == requests[1].cache_key("fp")
    one, two = map(api.execute, requests)
    assert _canonical(one) == _canonical(two)
    return one


def _cell_log():
    """The factory cell and the events of a 20 ms ``ap-dm`` run."""
    cell = factory_cell_network()
    recorder = BusTrace()
    simulate_token_bus(cell, 20 * cell.phy.baud_rate // 1000,
                       config=TokenBusConfig(policy="ap-dm", tracer=recorder))
    return cell, recorder.events


class TestV1V2Equivalence:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_runs(self, case):
        net, horizon, recorder, _ = _pinned_trace(case)
        config = _pinned_run(case)[2]
        v1, v2 = _v1_doc(recorder, horizon), trace_doc(recorder,
                                                       horizon=horizon)
        assert _v1_twin(v2) == v1
        assert trace_from_doc(v2).events == recorder.events
        result = _same_checks(net, v1, v2, _MONITOR_POLICY[config["policy"]],
                              config.get("stats_after", 0))
        assert result.payload["report"]["detail"]["events"] \
            == len(recorder.events)

    @pytest.mark.parametrize("index", range(3))
    def test_trace_replay_instances(self, index):
        net = generate_instance(7, "trace-replay", index)
        sim_policy = ("stock-fcfs", "ap-dm", "ap-edf")[index]
        policy = _MONITOR_POLICY[sim_policy]
        horizon = 300_000
        recorder = BusTrace(max_events=50_000)
        simulate_token_bus(net, horizon, config=TokenBusConfig(
            policy=sim_policy, tracer=recorder))
        assert recorder.events
        _same_checks(net, _v1_doc(recorder, horizon),
                     trace_doc(recorder, horizon=horizon), policy)

    def test_external_jsonl_log(self):
        cell, events = _cell_log()
        # a foreign logger leaves defaulted keys out
        objects = [{k: v for k, v in event_to_doc(e).items()
                    if (k, v) not in (("stream", ""), ("high_priority", True),
                                      ("value", 0))} for e in events]
        ingested = read_trace(_lines(*map(json.dumps, objects)))
        assert ingested.source_format == "external-jsonl"
        assert ingested.events == events
        v1 = {"schema": TRACE_SCHEMA_V1, "format": "external-jsonl",
              "events": objects}
        _same_checks(cell, v1, ingested.to_doc(), "dm")

    def test_external_csv_log(self):
        cell, events = _cell_log()
        rows = [",".join(str(int(v) if type(v) is bool else v) for v in e)
                for e in events]
        ingested = read_trace(_lines(_CSV_HEADER, *rows))
        assert ingested.source_format == "external-csv"
        assert ingested.events == events
        v1 = {"schema": TRACE_SCHEMA_V1, "format": "external-csv",
              "events": [event_to_doc(e) for e in events]}
        _same_checks(cell, v1, ingested.to_doc(), "dm")


# ----------------------------------------------------- monitor routes

#: the three ways into the monitor's reconstruction
ROUTES = ("feed", "feed_all", "columns")


def _fed(net, policy, ingested, route, stats_after=0):
    """A monitor that took ``ingested`` by ``route``, and the
    :class:`TraceFormatError` text it raised (``None`` if none)."""
    mon = TraceMonitor(net, policy, stats_after=stats_after,
                       source_format=ingested.source_format)
    mon.note_dropped(ingested.dropped)
    try:
        if route == "feed":
            for event in ingested.events:
                mon.feed(event)
        elif route == "feed_all":
            mon.feed_all(iter(ingested.events))  # any iterable of events
        else:
            columns = ingested.columns
            mon.feed_columns(columns["time"], columns["kind"],
                             columns["master"], columns["stream"])
    except TraceFormatError as exc:
        return mon, str(exc)
    return mon, None


def _route_outcomes(net, policy, ingested, stats_after=0):
    """Per route: the error text, ``events_seen`` and the canonical
    report over the trace's horizon."""
    outcomes = []
    for route in ROUTES:
        mon, error = _fed(net, policy, ingested, route, stats_after)
        outcomes.append((error, mon.events_seen, json.dumps(
            mon.report(horizon=ingested.horizon).to_dict(), sort_keys=True)))
    return outcomes


def _assert_routes_agree(net, policy, ingested, stats_after=0):
    outcomes = _route_outcomes(net, policy, ingested, stats_after)
    assert outcomes[0] == outcomes[1] == outcomes[2]
    error, seen, report = outcomes[0]
    assert error is None and seen == len(ingested.events)
    # the one-shot helpers take the columns route
    assert json.dumps(monitor_trace(net, ingested, policy,
                                    stats_after=stats_after).to_dict(),
                      sort_keys=True) == report
    assert json.dumps(monitor_events(
        net, ingested.events, policy, stats_after=stats_after,
        horizon=ingested.horizon, dropped=ingested.dropped,
        source_format=ingested.source_format).to_dict(),
        sort_keys=True) == report


def _swapped(ingested, at):
    """``ingested`` with events ``at`` and ``at + 1`` swapped (their
    times must differ, so the later one now comes first)."""
    events = list(ingested.events)
    assert events[at].time < events[at + 1].time
    events[at], events[at + 1] = events[at + 1], events[at]
    return IngestedTrace.from_events(events, horizon=ingested.horizon,
                                     dropped=ingested.dropped)


class TestMonitorRoutes:
    """Feeding events one at a time, through ``feed_all`` and as the
    ingested columns is one reconstruction: equal reports, equal
    refusals."""

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_runs(self, case):
        net, horizon, recorder, _ = _pinned_trace(case)
        config = _pinned_run(case)[2]
        ingested = trace_from_doc(json.loads(json.dumps(
            trace_doc(recorder, horizon=horizon))))
        _assert_routes_agree(net, _MONITOR_POLICY[config["policy"]],
                             ingested, config.get("stats_after", 0))

    @pytest.mark.parametrize("index", range(3))
    def test_trace_replay_instances(self, index):
        net = generate_instance(7, "trace-replay", index)
        sim_policy = ("stock-fcfs", "ap-dm", "ap-edf")[index]
        recorder = BusTrace(max_events=50_000)
        simulate_token_bus(net, 300_000, config=TokenBusConfig(
            policy=sim_policy, tracer=recorder))
        ingested = trace_from_doc(trace_doc(recorder, horizon=300_000))
        _assert_routes_agree(net, _MONITOR_POLICY[sim_policy], ingested)

    def test_external_logs(self):
        cell, events = _cell_log()
        jsonl = read_trace(_lines(*(json.dumps(event_to_doc(e))
                                    for e in events)))
        rows = [",".join(str(int(v) if type(v) is bool else v) for v in e)
                for e in events]
        csv_log = read_trace(_lines(_CSV_HEADER, *rows))
        assert (jsonl.source_format, csv_log.source_format) == (
            "external-jsonl", "external-csv")
        for ingested in (jsonl, csv_log):
            _assert_routes_agree(cell, "dm", ingested)

    @pytest.mark.parametrize("at", [0, 1, 517])
    def test_out_of_order_event_is_refused_alike(self, at):
        net, horizon, recorder, _ = _pinned_trace("ring-ap-dm")
        ingested = IngestedTrace.from_events(recorder.events,
                                             horizon=horizon)
        while ingested.events[at].time == ingested.events[at + 1].time:
            at += 1
        swapped = _swapped(ingested, at)
        later, earlier = swapped.events[at], swapped.events[at + 1]
        outcomes = _route_outcomes(net, "dm", swapped)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        error, seen, _ = outcomes[0]
        assert error == (
            f"trace event #{at + 1}: time {earlier.time} is earlier than "
            f"the previous event's time {later.time}; events must arrive "
            f"in time order")
        # the events before the refused one stay counted
        assert seen == at + 1

    def test_a_fresh_monitor_takes_an_empty_feed(self, single_master):
        for route in ROUTES:
            mon, error = _fed(single_master, "dm", IngestedTrace(), route)
            assert (error, mon.events_seen) == (None, 0)
            assert mon.report().detail["horizon"] == 0


class TestIngestedColumns:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_events_view_is_the_recorded_tuples(self, case):
        """A v2 document's ingested events are the :class:`BusEvent`
        tuples of its rows: the recorded events, whose v1 document is
        the pinned one."""
        _, horizon, recorder, _ = _pinned_trace(case)
        doc = json.loads(json.dumps(trace_doc(recorder, horizon=horizon)))
        ingested = trace_from_doc(doc)
        assert ingested.columns == doc["columns"]
        assert ingested.events == recorder.events
        assert all(type(e) is BusEvent for e in ingested.events)
        view = {"schema": TRACE_SCHEMA_V1, "format": "native",
                "horizon": horizon, "dropped": ingested.dropped,
                "events": [event_to_doc(e) for e in ingested.events]}
        assert _sha(view) == PINNED[case][2]

    def test_columns_are_the_trace_own(self):
        doc = IngestedTrace.from_events(_cell_log()[1]).to_doc()
        ingested = trace_from_doc(doc)
        assert ingested.columns == doc["columns"]
        assert all(ingested.columns[k] is not doc["columns"][k]
                   for k in BusEvent._fields)

    def test_to_doc_writes_the_columns_as_they_are(self):
        _, events = _cell_log()
        ingested = IngestedTrace.from_events(events, horizon=7)
        doc = ingested.to_doc()
        assert all(doc["columns"][k] is ingested.columns[k]
                   for k in BusEvent._fields)
        assert trace_from_doc(doc) == ingested


# --------------------------------------------------------- time order

def _reverse(doc):
    """Reverse the events of a v1 or v2 trace document in place."""
    lists = doc["columns"].values() if "columns" in doc else [doc["events"]]
    for rows in lists:
        rows.reverse()


def _reversed_cell_trace(schema=TRACE_SCHEMA_V1):
    """A factory-cell ``ap-dm`` trace document of ``schema``, events in
    reverse."""
    cell = factory_cell_network()
    horizon = 50 * cell.phy.baud_rate // 1000
    recorder = BusTrace()
    simulate_token_bus(cell, horizon,
                       config=TokenBusConfig(policy="ap-dm", tracer=recorder))
    doc = (_v1_doc(recorder, horizon) if schema == TRACE_SCHEMA_V1
           else trace_doc(recorder, horizon=horizon))
    _reverse(doc)
    events = recorder.events
    return cell, doc, events[-1].time, events[-2].time


class TestTimeOrder:
    def test_feed_refuses_an_earlier_event(self, single_master):
        mon = TraceMonitor(single_master, "dm")
        mon.feed(BusEvent(10, TOKEN_ARRIVAL, "M1"))
        mon.feed(BusEvent(10, TOKEN_ARRIVAL, "M1"))  # equal times are fine
        with pytest.raises(TraceFormatError) as exc_info:
            mon.feed(BusEvent(9, TOKEN_ARRIVAL, "M1"))
        assert str(exc_info.value) == (
            "trace event #2: time 9 is earlier than the previous event's "
            "time 10; events must arrive in time order")
        # the refused event left no trace in the reconstruction
        assert mon.events_seen == 2
        assert mon.report().masters["M1"]["token_visits"] == 2

    def test_api_refuses_a_reversed_trace(self):
        cell, doc, first, second = _reversed_cell_trace()
        assert first > second
        with pytest.raises(api.ApiError) as exc_info:
            api.monitor_check(cell, doc, policy="dm")
        assert str(exc_info.value) == (
            f"bad trace document: trace event #1: time {second} is earlier "
            f"than the previous event's time {first}; events must arrive "
            f"in time order")

    def test_api_refuses_a_reversed_trace_v2(self):
        cell, doc, first, second = _reversed_cell_trace(TRACE_SCHEMA)
        assert first > second
        with pytest.raises(api.ApiError) as exc_info:
            api.monitor_check(cell, doc, policy="dm")
        assert str(exc_info.value) == (
            f"bad trace document: trace event #1: time {second} is earlier "
            f"than the previous event's time {first}; events must arrive "
            f"in time order")

    def test_cli_file_mode_exits_cleanly(self, tmp_path):
        from repro.cli import main

        _, doc, first, second = _reversed_cell_trace()
        path = tmp_path / "reversed.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in doc["events"]))
        with pytest.raises(SystemExit) as exc_info:
            main(["monitor", "--scenario", "factory-cell", "--policy", "dm",
                  "--trace", str(path)])
        assert str(exc_info.value.code) == (
            f"monitor: bad trace document: trace event #1: time {second} "
            f"is earlier than the previous event's time {first}; events "
            f"must arrive in time order")

    def test_cli_follow_mode_exits_cleanly(self, monkeypatch, capsys):
        import sys as sys_mod

        from repro.cli import main

        _, doc, first, second = _reversed_cell_trace()
        monkeypatch.setattr(sys_mod, "stdin", io.StringIO(
            "".join(json.dumps(e) + "\n" for e in doc["events"])))
        with pytest.raises(SystemExit) as exc_info:
            main(["monitor", "--scenario", "factory-cell", "--policy", "dm",
                  "--follow"])
        assert str(exc_info.value.code) == (
            f"monitor: trace event #1: time {second} is earlier than the "
            f"previous event's time {first}; events must arrive in time "
            f"order")

    def test_in_order_trace_still_checks(self):
        cell, doc, _, _ = _reversed_cell_trace()
        doc["events"] = doc["events"][::-1]
        result = api.monitor_check(cell, doc, policy="dm")
        masters = result.payload["report"]["masters"]
        assert all(m["max_trr"] > 0 for m in masters.values())

    def test_in_order_trace_still_checks_v2(self):
        cell, doc, _, _ = _reversed_cell_trace(TRACE_SCHEMA)
        _reverse(doc)
        result = api.monitor_check(cell, doc, policy="dm")
        masters = result.payload["report"]["masters"]
        assert all(m["max_trr"] > 0 for m in masters.values())


def test_api_monitor_document_round_trip():
    cell = factory_cell_network()
    horizon = 20 * cell.phy.baud_rate // 1000
    recorder = BusTrace()
    simulate_token_bus(cell, horizon,
                       config=TokenBusConfig(policy="ap-edf", tracer=recorder))
    doc = json.loads(json.dumps(trace_doc(recorder, horizon=horizon)))
    assert trace_from_doc(doc).events == recorder.events
    request = api.AnalysisRequest(op="monitor", network=network_to_dict(cell),
                                  policy="edf", trace=doc)
    assert api.execute(request).payload["report"]["detail"]["events"] \
        == len(recorder.events)
