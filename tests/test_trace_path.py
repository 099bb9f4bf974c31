"""The trace path end to end: simulate → export → ingest → check.

Three contracts are pinned here:

* the simulator's output is bit-for-bit what it was before the event
  loop, the bus events and the MAC state machine were made cheaper —
  sha256 digests of the canonical ``trace/v1`` document and of every
  :class:`~repro.sim.token.TokenBusResult` statistic;
* ingestion refuses every malformed event with exactly the same
  :class:`TraceFormatError` text on every path (trace document, native
  and external JSONL, CSV), naming the event or its line/row;
* the monitor refuses an event earlier than the one before it (the
  time-order contract), on the api, CLI-file and follow paths.
"""

import dataclasses
import hashlib
import io
import json
from random import Random

import pytest

from repro import api
from repro.gen.network_gen import network_with_ttr_headroom, random_network
from repro.monitor import (
    TraceFormatError,
    TraceMonitor,
    event_from_doc,
    event_to_doc,
    read_trace,
    trace_doc,
    trace_from_doc,
)
from repro.profibus.serialization import network_to_dict
from repro.profibus.timing import longest_cycle
from repro.scenarios import factory_cell_network
from repro.schemas import TRACE_SCHEMA
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


def _ring():
    """A shallow-load five-master ring shaped like the trace-check
    benchmark's (token passing dominates the event stream)."""
    net = random_network(n_masters=5, streams_per_master=2,
                         period_ms=(20.0, 160.0), d_over_t=(0.3, 1.0),
                         low_priority_streams=1, payload_range=(2, 16),
                         rng=Random("trace-pin:ring"))
    return network_with_ttr_headroom(net, headroom=2.0)


def _pinned_run(case):
    cell = factory_cell_network()
    horizon = 200 * cell.phy.baud_rate // 1000
    if case == "ring-ap-dm":
        net = _ring()
        return net, 200 * net.phy.baud_rate // 1000, {"policy": "ap-dm"}
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


class TestSimulatorPinned:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_trace_and_statistics_unchanged(self, case):
        net, horizon, config = _pinned_run(case)
        recorder = BusTrace()
        result = simulate_token_bus(
            net, horizon, config=TokenBusConfig(tracer=recorder, **config))
        stats = {
            "horizon": result.horizon,
            "events": result.events,
            "streams": {k: dataclasses.asdict(v)
                        for k, v in result.streams.items()},
            "masters": {k: dataclasses.asdict(v)
                        for k, v in result.masters.items()},
        }
        assert (len(recorder.events), result.events,
                _sha(trace_doc(recorder, horizon=horizon)),
                _sha(stats)) == PINNED[case]

    def test_stress_case_reaches_every_branch(self):
        net, horizon, config = _pinned_run("cell-stress-ap-edf")
        result = simulate_token_bus(net, horizon,
                                    config=TokenBusConfig(**config))
        for ms in result.masters.values():
            assert ms.gap_polls and ms.low_sent and ms.tth_overruns


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
        header = json.dumps({"schema": TRACE_SCHEMA, "format": "native",
                             "horizon": 10, "dropped": 0})
        good, wrong = json.dumps(_GOOD), json.dumps(bad)
        assert _error(lambda: trace_from_doc(
            {"schema": TRACE_SCHEMA, "events": [_GOOD, bad]}
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
            ingested = trace_from_doc({"schema": TRACE_SCHEMA,
                                       "events": [doc]})
            assert ingested.events == [plain]

    def test_defaulted_keys_ingest(self):
        event = event_from_doc({"time": 1, "kind": "release", "master": "M"})
        assert event == BusEvent(1, RELEASE, "M", "", True, 0)


# --------------------------------------------------------- time order

def _reversed_cell_trace():
    """A factory-cell ``ap-dm`` trace document, events in reverse."""
    cell = factory_cell_network()
    horizon = 50 * cell.phy.baud_rate // 1000
    recorder = BusTrace()
    simulate_token_bus(cell, horizon,
                       config=TokenBusConfig(policy="ap-dm", tracer=recorder))
    doc = trace_doc(recorder, horizon=horizon)
    events = doc["events"]
    doc["events"] = events[::-1]
    return cell, doc, events[-1]["time"], events[-2]["time"]


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
