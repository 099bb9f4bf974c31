"""Tests for the trace monitoring mode (`repro.monitor`).

The load-bearing property is **parity**: over an untruncated native
trace of a run, the monitor's reconstruction must be bit-identical, row
for row, to the in-process :func:`validate_network` report of the same
run — same observed responses, same pending ages, same verdicts, same
TRR statistics.  Everything else (ingestion formats, degradation,
api/CLI transport) is checked around that core.
"""

import io
import json

import pytest

from repro import api
from repro.monitor import (
    IngestedTrace,
    MonitorReport,
    TraceFormatError,
    TraceMonitor,
    event_from_doc,
    event_to_doc,
    master_verdict,
    monitor_trace,
    observed_worst_responses,
    read_trace,
    trace_doc,
    trace_from_doc,
    validation_row_doc,
    write_trace_jsonl,
)
from repro.schemas import MONITOR_SCHEMA, TRACE_SCHEMA, TRACE_SCHEMA_V1
from repro.sim import (
    CYCLE_END,
    CYCLE_START,
    RELEASE,
    TOKEN_ARRIVAL,
    BusEvent,
    BusTrace,
    TokenBusConfig,
    validate_network,
)
from repro.sim.validate import _POLICY_TO_SIM

HORIZON = 100_000


def _traced_validate(net, policy, horizon=HORIZON, **cfg_kwargs):
    """Run the simulator with a tracer attached; return the offline
    validation report and the recorded trace."""
    tracer = BusTrace(max_events=1_000_000)
    cfg = TokenBusConfig(policy=_POLICY_TO_SIM[policy], tracer=tracer,
                         **cfg_kwargs)
    report = validate_network(net, policy, horizon, config=cfg)
    return report, tracer


def _row_docs(report):
    return {r.name: validation_row_doc(r) for r in report.rows}


# ---------------------------------------------------------------- parity

class TestMonitoringParity:
    @pytest.mark.parametrize("policy", ["fcfs", "dm", "edf"])
    def test_roundtrip_rows_bit_identical(self, factory_cell, policy):
        # sim -> export JSONL -> ingest -> monitor == offline validate
        ref, tracer = _traced_validate(factory_cell, policy)
        buf = io.StringIO()
        write_trace_jsonl(tracer, buf, horizon=HORIZON)
        buf.seek(0)
        ingested = read_trace(buf)
        assert ingested.source_format == "native"
        assert ingested.horizon == HORIZON and ingested.dropped == 0
        report = monitor_trace(factory_cell, ingested, policy)
        assert _row_docs(report) == _row_docs(ref)

    @pytest.mark.parametrize("policy", ["fcfs", "dm", "edf"])
    def test_single_master_parity(self, single_master, policy):
        ref, tracer = _traced_validate(single_master, policy)
        report = monitor_trace(
            single_master, trace_from_doc(trace_doc(tracer, horizon=HORIZON)),
            policy,
        )
        assert _row_docs(report) == _row_docs(ref)

    def test_illustration_parity(self, illustration):
        ref, tracer = _traced_validate(illustration, "dm")
        report = monitor_trace(
            illustration, trace_from_doc(trace_doc(tracer, horizon=HORIZON)),
            "dm",
        )
        assert _row_docs(report) == _row_docs(ref)

    def test_trr_statistics_match(self, factory_cell):
        ref, tracer = _traced_validate(factory_cell, "dm")
        report = monitor_trace(
            factory_cell, trace_from_doc(trace_doc(tracer, horizon=HORIZON)),
            "dm",
        )
        assert (report.detail["max_trr_observed"]
                == ref.detail["max_trr_observed"])
        assert (report.detail["tcycle_bound"]
                == ref.detail["tcycle_bound"])

    def test_pending_ages_match(self, factory_cell):
        # A short horizon leaves requests in flight/queued; their ages
        # must be reconstructed from unmatched releases exactly.
        ref, tracer = _traced_validate(factory_cell, "dm", horizon=9_000)
        report = monitor_trace(
            factory_cell, trace_from_doc(trace_doc(tracer, horizon=9_000)),
            "dm",
        )
        assert _row_docs(report) == _row_docs(ref)
        assert any(r.unfinished for r in report.rows)  # the case is exercised

    def test_stats_after_filter_matches(self, factory_cell):
        cutoff = 30_000
        ref, tracer = _traced_validate(factory_cell, "dm",
                                       stats_after=cutoff)
        report = monitor_trace(
            factory_cell, trace_from_doc(trace_doc(tracer, horizon=HORIZON)),
            "dm", stats_after=cutoff,
        )
        assert _row_docs(report) == _row_docs(ref)

    def test_incremental_feeding_equals_one_shot(self, factory_cell):
        _, tracer = _traced_validate(factory_cell, "dm")
        one_shot = monitor_trace(
            factory_cell, IngestedTrace.from_events(list(tracer.events),
                                                   horizon=HORIZON), "dm",
        )
        mon = TraceMonitor(factory_cell, "dm")
        for event in tracer.events[:100]:
            mon.feed(event)
        mon.report()  # snapshots must not disturb the reconstruction
        for event in tracer.events[100:]:
            mon.feed(event)
        assert (_row_docs(mon.report(horizon=HORIZON))
                == _row_docs(one_shot))


# ------------------------------------------------------------- ingestion

class TestTraceIngestion:
    def test_event_doc_roundtrip(self):
        e = BusEvent(time=42, kind=CYCLE_START, master="M1", stream="s",
                     high_priority=False, value=7)
        assert event_from_doc(event_to_doc(e)) == e

    def test_trace_doc_roundtrip(self, single_master):
        _, tracer = _traced_validate(single_master, "dm")
        doc = trace_doc(tracer, horizon=HORIZON)
        assert doc["schema"] == TRACE_SCHEMA
        ingested = trace_from_doc(json.loads(json.dumps(doc)))
        assert ingested.events == list(tracer.events)
        assert ingested.horizon == HORIZON
        assert ingested.to_doc() == doc

    def test_native_jsonl_export_deterministic(self, single_master):
        _, tracer = _traced_validate(single_master, "dm")
        a, b = io.StringIO(), io.StringIO()
        write_trace_jsonl(tracer, a, horizon=HORIZON)
        write_trace_jsonl(tracer, b, horizon=HORIZON)
        assert a.getvalue() == b.getvalue()
        header = json.loads(a.getvalue().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA_V1
        assert header["dropped"] == 0

    def test_external_jsonl_without_header(self):
        lines = "\n".join(
            json.dumps({"time": t, "kind": k, "master": "M1", "stream": "s"})
            for t, k in [(0, RELEASE), (5, CYCLE_START), (9, CYCLE_END)]
        )
        ingested = read_trace(io.StringIO(lines))
        assert ingested.source_format == "external-jsonl"
        assert ingested.horizon is None and ingested.dropped == 0
        assert [e.kind for e in ingested.events] == [
            RELEASE, CYCLE_START, CYCLE_END,
        ]

    def test_external_csv(self):
        csv_text = (
            "time,kind,master,stream,high_priority,value\n"
            "0,release,M1,s,1,0\n"
            "5,cycle_start,M1,s,true,4\n"
            "9,cycle_end,M1,s,TRUE,4\n"
        )
        ingested = read_trace(io.StringIO(csv_text))
        assert ingested.source_format == "external-csv"
        assert [e.time for e in ingested.events] == [0, 5, 9]
        assert all(e.high_priority for e in ingested.events)

    def test_csv_minimal_columns(self):
        ingested = read_trace(io.StringIO(
            "time,kind,master\n0,token_arrival,M1\n"
        ), fmt="csv")
        assert ingested.events == [
            BusEvent(time=0, kind=TOKEN_ARRIVAL, master="M1"),
        ]

    def test_csv_parity_with_native(self, single_master):
        ref, tracer = _traced_validate(single_master, "dm")
        out = io.StringIO()
        out.write("time,kind,master,stream,high_priority,value\n")
        for e in tracer.events:
            out.write(f"{e.time},{e.kind},{e.master},{e.stream},"
                      f"{int(e.high_priority)},{e.value}\n")
        out.seek(0)
        ingested = read_trace(out)
        report = monitor_trace(single_master, ingested, "dm",
                               horizon=HORIZON)
        assert _row_docs(report) == _row_docs(ref)

    def test_file_roundtrip(self, tmp_path, single_master):
        _, tracer = _traced_validate(single_master, "dm")
        path = tmp_path / "run.jsonl"
        write_trace_jsonl(tracer, path, horizon=HORIZON)
        ingested = read_trace(path)
        assert ingested.events == list(tracer.events)

    # -- refusals ---------------------------------------------------------
    def test_unknown_kind_refused(self):
        with pytest.raises(TraceFormatError, match="unknown event kind"):
            event_from_doc({"time": 0, "kind": "frame", "master": "M1"})

    def test_unknown_key_refused(self):
        with pytest.raises(TraceFormatError, match="unknown event key"):
            event_from_doc({"time": 0, "kind": RELEASE, "master": "M1",
                            "color": "red"})

    def test_float_time_refused(self):
        with pytest.raises(TraceFormatError, match="integer"):
            event_from_doc({"time": 1.5, "kind": RELEASE, "master": "M1"})

    def test_missing_master_refused(self):
        with pytest.raises(TraceFormatError, match="missing key"):
            event_from_doc({"time": 0, "kind": RELEASE})

    def test_wrong_schema_refused(self):
        with pytest.raises(TraceFormatError, match="unsupported trace schema"):
            trace_from_doc({"schema": "profibus-rt/trace/v0", "events": []})

    def test_unknown_csv_column_refused(self):
        with pytest.raises(TraceFormatError, match="unknown CSV column"):
            read_trace(io.StringIO("time,kind,master,color\n"), fmt="csv")

    def test_empty_trace_refused(self):
        with pytest.raises(TraceFormatError, match="empty trace"):
            read_trace(io.StringIO(""))

    def test_unsniffable_refused(self):
        with pytest.raises(TraceFormatError, match="auto-detect"):
            read_trace(io.StringIO("hello world\n"))


# ------------------------------------------------------------ degradation

class TestDegradedVerdicts:
    def test_truncated_trace_degrades_rows(self, factory_cell):
        tracer = BusTrace(max_events=300)  # force truncation
        cfg = TokenBusConfig(policy=_POLICY_TO_SIM["dm"], tracer=tracer)
        validate_network(factory_cell, "dm", HORIZON, config=cfg)
        assert tracer.truncated
        report = monitor_trace(
            factory_cell, trace_from_doc(trace_doc(tracer, horizon=HORIZON)),
            "dm",
        )
        assert report.detail["truncated"] is True
        assert report.detail["dropped"] == tracer.dropped
        assert report.degraded
        assert all(r.verdict in ("degraded", "unsound") for r in report.rows)
        assert not report.all_sound

    def test_unsound_dominates_degraded(self, single_master):
        # An observed violation inside the recorded window is conclusive
        # even when the trace was cut off afterwards.
        analysis_streams = {"M1/s0"}
        events = [
            BusEvent(time=0, kind=RELEASE, master="M1", stream="s0"),
            BusEvent(time=10 ** 9, kind=CYCLE_END, master="M1", stream="s0"),
        ]
        mon = TraceMonitor(single_master, "dm")
        assert analysis_streams <= set(
            r.name for r in mon.report().rows
        )
        mon.note_dropped(5)
        mon.feed_all(events)
        row = mon.report().row("M1/s0")
        assert row.degraded
        assert row.verdict == "unsound"

    def test_unmatched_cycle_end_degrades_that_stream_only(self, factory_cell):
        ref, tracer = _traced_validate(factory_cell, "dm")
        events = [BusEvent(time=0, kind=CYCLE_END, master="cell",
                           stream="axis-setpoint")] + list(tracer.events)
        report = monitor_trace(
            factory_cell,
            IngestedTrace.from_events(events, horizon=HORIZON), "dm",
        )
        assert report.detail["unmatched_cycle_ends"] == 1
        assert report.row("cell/axis-setpoint").degraded
        others = [r for r in report.rows if r.name != "cell/axis-setpoint"]
        assert all(not r.degraded for r in others)

    def test_unanalysed_streams_reported_not_checked(self, factory_cell):
        _, tracer = _traced_validate(factory_cell, "dm")
        report = monitor_trace(
            factory_cell, IngestedTrace.from_events(list(tracer.events),
                                                   horizon=HORIZON), "dm",
        )
        # the factory cell has a low-priority stream; its cycles appear
        # in the log but get no bound row
        unanalysed = report.detail["unanalysed_streams"]
        assert any("/" in k for k in unanalysed)
        names = {r.name for r in report.rows}
        assert not (set(unanalysed) & names)


# ---------------------------------------------------------- master checks

class TestMasterVerdicts:
    def test_sound_masters(self, factory_cell):
        _, tracer = _traced_validate(factory_cell, "dm")
        report = monitor_trace(
            factory_cell, IngestedTrace.from_events(list(tracer.events),
                                                   horizon=HORIZON), "dm",
        )
        assert set(report.masters) == {m.name for m in factory_cell.masters}
        for m in report.masters.values():
            assert m["verdict"] == "sound"
            assert m["max_trr"] <= m["trr_bound"]
        assert report.all_clear

    def test_first_visit_seeds_only(self, single_master):
        # One token arrival measures no rotation: incomplete, not sound.
        mon = TraceMonitor(single_master, "dm")
        mon.feed(BusEvent(time=0, kind=TOKEN_ARRIVAL, master="M1"))
        assert mon.report().masters["M1"]["verdict"] == "incomplete"
        assert mon.report().masters["M1"]["max_trr"] == 0

    def test_rotation_violation_is_unsound(self, single_master):
        mon = TraceMonitor(single_master, "dm")
        bound = mon.analysis.tcycle
        mon.feed(BusEvent(time=0, kind=TOKEN_ARRIVAL, master="M1"))
        mon.feed(BusEvent(time=bound + 1, kind=TOKEN_ARRIVAL, master="M1"))
        m = mon.report().masters["M1"]
        assert m["max_trr"] == bound + 1
        assert m["verdict"] == "unsound"

    def test_master_verdict_precedence(self):
        assert master_verdict(token_visits=5, max_trr=11, bound=10,
                              degraded=True) == "unsound"
        assert master_verdict(token_visits=5, max_trr=9, bound=10,
                              degraded=True) == "degraded"
        assert master_verdict(token_visits=1, max_trr=0, bound=10,
                              degraded=False) == "incomplete"
        assert master_verdict(token_visits=5, max_trr=9, bound=10,
                              degraded=False) == "sound"


# ------------------------------------------------------------ report form

class TestMonitorReport:
    def test_schema_tagged_roundtrip(self, single_master):
        _, tracer = _traced_validate(single_master, "dm")
        report = monitor_trace(
            single_master, IngestedTrace.from_events(list(tracer.events),
                                                    horizon=HORIZON), "dm",
        )
        doc = report.to_dict()
        assert doc["schema"] == MONITOR_SCHEMA
        again = MonitorReport.from_dict(json.loads(json.dumps(doc)))
        assert again.to_dict() == doc

    def test_wrong_schema_refused(self):
        with pytest.raises(ValueError, match="unsupported monitor schema"):
            MonitorReport.from_dict({"schema": "profibus-rt/monitor/v0",
                                     "rows": []})

    def test_observed_worst_responses(self):
        events = [
            BusEvent(time=0, kind=RELEASE, master="M1", stream="a"),
            BusEvent(time=3, kind=CYCLE_START, master="M1", stream="a"),
            BusEvent(time=7, kind=CYCLE_END, master="M1", stream="a"),
            BusEvent(time=10, kind=RELEASE, master="M1", stream="a"),
            BusEvent(time=30, kind=CYCLE_END, master="M1", stream="a"),
        ]
        assert observed_worst_responses(events) == {"M1/a": 20}


# -------------------------------------------------------------- transport

class TestMonitorApi:
    def _request_doc(self, net, tracer, policy="dm"):
        from repro.profibus.serialization import network_to_dict

        return api.AnalysisRequest(
            op="monitor", network=network_to_dict(net), policy=policy,
            trace=trace_doc(tracer, horizon=HORIZON),
        )

    def test_monitor_op_parity(self, factory_cell):
        ref, tracer = _traced_validate(factory_cell, "dm")
        result = api.monitor_check(factory_cell,
                                   trace_doc(tracer, horizon=HORIZON),
                                   policy="dm")
        assert result.op == "monitor"
        assert result.payload["report"]["rows"] == [
            validation_row_doc(r) for r in ref.rows
        ]
        assert result.schedulable == result.payload["all_clear"]

    def test_request_transport_roundtrip(self, single_master):
        _, tracer = _traced_validate(single_master, "dm")
        req = self._request_doc(single_master, tracer)
        again = api.AnalysisRequest.from_dict(
            json.loads(json.dumps(req.to_dict()))
        )
        assert again == req
        assert again.cache_key("fp") == req.cache_key("fp")

    def test_value_keyed_cache_hits(self, single_master):
        from repro.perf.cache import ResultCache

        _, tracer = _traced_validate(single_master, "dm")
        req = self._request_doc(single_master, tracer)
        cache = ResultCache()
        r1, h1 = api.execute_cached(req, cache=cache)
        r2, h2 = api.execute_cached(req, cache=cache)
        assert (h1, h2) == (False, True)
        assert r1 == r2

    def test_different_traces_do_not_collide(self, single_master):
        _, t1 = _traced_validate(single_master, "dm")
        _, t2 = _traced_validate(single_master, "dm", horizon=50_000)
        k1 = self._request_doc(single_master, t1).cache_key("fp")
        k2 = self._request_doc(single_master, t2).cache_key("fp")
        assert k1 != k2

    def test_monitor_needs_trace(self, single_master):
        from repro.profibus.serialization import network_to_dict

        with pytest.raises(api.ApiError, match="monitor needs trace"):
            api.AnalysisRequest(op="monitor",
                                network=network_to_dict(single_master))

    def test_bad_trace_is_api_error(self, single_master):
        from repro.profibus.serialization import network_to_dict

        req = api.AnalysisRequest(
            op="monitor", network=network_to_dict(single_master),
            trace={"schema": TRACE_SCHEMA_V1, "events": [{"time": 0}]},
        )
        with pytest.raises(api.ApiError, match="bad trace document"):
            api.execute(req)


class TestMonitorCli:
    def _export(self, tmp_path, scenario="single-master", policy="dm"):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        rc = main(["simulate", "--scenario", scenario, "--policy", policy,
                   "--horizon-ms", "100", "--export-trace", str(path)])
        assert rc == 0
        return path

    def test_monitor_file_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = self._export(tmp_path)
        rc = main(["monitor", "--scenario", "single-master", "--policy",
                   "dm", "--trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all clear: True" in out
        assert "M1/s0" in out

    def test_monitor_json_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = self._export(tmp_path)
        capsys.readouterr()  # drop the export command's output
        rc = main(["monitor", "--scenario", "single-master", "--policy",
                   "dm", "--trace", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["schema"] == MONITOR_SCHEMA

    def test_monitor_follow_mode(self, tmp_path, capsys, monkeypatch):
        import sys as sys_mod

        from repro.cli import main

        path = self._export(tmp_path)
        monkeypatch.setattr(sys_mod, "stdin",
                            io.StringIO(path.read_text()))
        rc = main(["monitor", "--scenario", "single-master", "--policy",
                   "dm", "--follow"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        final = json.loads(lines[-1])
        assert final["schema"] == MONITOR_SCHEMA
        assert all(r["verdict"] == "sound" for r in final["rows"])

    def test_monitor_bad_trace_clean_message(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"time": 0, "kind": "frame", "master": "M1"}\n')
        with pytest.raises(SystemExit, match="unknown event kind"):
            main(["monitor", "--scenario", "single-master", "--trace",
                  str(bad)])
