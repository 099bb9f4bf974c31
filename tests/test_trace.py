"""Tests for bus event tracing and the ASCII timeline."""

import pytest

from repro.sim import (
    CYCLE_END,
    CYCLE_START,
    RELEASE,
    TOKEN_ARRIVAL,
    BusEvent,
    BusTrace,
    TokenBusConfig,
    render_timeline,
    simulate_token_bus,
)


def _traced_run(net, horizon=200_000, policy="stock-fcfs"):
    trace = BusTrace()
    cfg = TokenBusConfig(policy=policy, tracer=trace)
    result = simulate_token_bus(net, horizon, config=cfg)
    return trace, result


class TestTraceRecording:
    def test_a_recorder_overriding_record_is_refused(self, single_master):
        """The simulator appends to ``events`` itself, so an override of
        ``record`` would be skipped without a word."""

        class Filtering(BusTrace):
            def record(self, event):
                if event.kind != TOKEN_ARRIVAL:
                    super().record(event)

        cfg = TokenBusConfig(policy="stock-fcfs", tracer=Filtering())
        with pytest.raises(TypeError, match="Filtering overrides "
                                            "BusTrace.record"):
            simulate_token_bus(single_master, 200_000, config=cfg)
        assert cfg.tracer.events == []

    def test_a_subclass_keeping_record_still_traces(self, single_master):
        class Tagged(BusTrace):
            label = "run-1"

        trace = Tagged()
        cfg = TokenBusConfig(policy="stock-fcfs", tracer=trace)
        result = simulate_token_bus(single_master, 200_000, config=cfg)
        assert len(trace.token_arrivals("M1")) == \
            result.masters["M1"].token_visits

    def test_records_token_arrivals(self, single_master):
        trace, result = _traced_run(single_master)
        arrivals = trace.token_arrivals("M1")
        assert len(arrivals) == result.masters["M1"].token_visits

    def test_trr_values_match_stats(self, single_master):
        trace, result = _traced_run(single_master)
        trrs = [e.value for e in trace.token_arrivals("M1")][1:]  # skip first
        assert max(trrs) == result.masters["M1"].max_trr

    def test_cycles_paired(self, single_master):
        trace, result = _traced_run(single_master)
        cycles = trace.cycles("M1")
        sent = result.masters["M1"].high_sent + result.masters["M1"].low_sent
        # completed cycles traced as start/end pairs (an in-flight cycle
        # at the horizon has no end event)
        assert sent <= len(cycles) + 1
        for start, end in cycles:
            assert end.time - start.time == start.value

    def test_stream_names_recorded(self, single_master):
        trace, _ = _traced_run(single_master)
        names = {e.stream for e in trace.of_kind(CYCLE_START)}
        assert "s0" in names

    def test_bounded_memory(self, single_master):
        trace = BusTrace(max_events=10)
        cfg = TokenBusConfig(tracer=trace)
        simulate_token_bus(single_master, 500_000, config=cfg)
        assert len(trace.events) == 10
        assert trace.dropped > 0

    def test_bus_utilisation_in_unit_interval(self, single_master):
        trace, _ = _traced_run(single_master)
        assert 0.0 <= trace.bus_utilisation() <= 1.0

    def test_events_time_ordered(self, factory_cell):
        trace, _ = _traced_run(factory_cell, horizon=300_000)
        times = [e.time for e in trace.events]
        assert times == sorted(times)

    def test_records_releases(self, single_master):
        trace, result = _traced_run(single_master)
        releases = trace.releases("M1")
        assert releases  # the stream released work inside the horizon
        total = sum(s.released for s in result.streams.values())
        assert len(releases) == total


class TestCyclePairing:
    """Regression suite for the per-master ``cycles()`` pairing (a single
    shared open slot used to mispair interleaved multi-master traces)."""

    @staticmethod
    def _interleaved_trace():
        # M1's cycle [0, 10] and M2's cycle [5, 15] overlap in time:
        # a PROFIBUS bus would never interleave transmissions, but a
        # merged foreign log (or per-segment clocks) can — and the old
        # single-slot pairing corrupted even well-formed queries over it.
        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=CYCLE_START, master="M1",
                              stream="a", value=10))
        trace.record(BusEvent(time=5, kind=CYCLE_START, master="M2",
                              stream="b", value=10))
        trace.record(BusEvent(time=10, kind=CYCLE_END, master="M1",
                              stream="a", value=10))
        trace.record(BusEvent(time=15, kind=CYCLE_END, master="M2",
                              stream="b", value=10))
        return trace

    def test_interleaved_two_master_pairing(self):
        # Pre-fix: M2's start overwrote M1's in the shared slot, M1's
        # end then paired with M2's start — one bogus (M2@5, end@10)
        # cycle and M2's real cycle lost.  Post-fix: two cycles, each
        # start/end on the same master, durations 10 each.
        cycles = self._interleaved_trace().cycles()
        assert len(cycles) == 2
        for start, end in cycles:
            assert start.master == end.master
            assert end.time - start.time == 10
        assert {s.master for s, _ in cycles} == {"M1", "M2"}

    def test_interleaved_filter_by_master(self):
        trace = self._interleaved_trace()
        for m in ("M1", "M2"):
            cycles = trace.cycles(m)
            assert len(cycles) == 1
            assert cycles[0][0].master == m

    def test_unfinished_cycle_does_not_steal_later_end(self):
        # A start with no end (cut off by the horizon/recorder) must
        # stay unpaired; the next cycle's end must pair with its own
        # start, not the stale one.
        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=CYCLE_START, master="M1",
                              stream="a", value=100))
        trace.record(BusEvent(time=200, kind=CYCLE_START, master="M1",
                              stream="a", value=10))
        trace.record(BusEvent(time=210, kind=CYCLE_END, master="M1",
                              stream="a", value=10))
        cycles = trace.cycles()
        assert len(cycles) == 1
        assert (cycles[0][0].time, cycles[0][1].time) == (200, 210)

    def test_simulated_multi_master_pairs_match_durations(self, factory_cell):
        trace, _ = _traced_run(factory_cell, horizon=200_000)
        cycles = trace.cycles()
        assert cycles
        for start, end in cycles:
            assert start.master == end.master
            assert end.time - start.time == start.value

    def test_bus_utilisation_inherits_fix(self, factory_cell):
        # Per-master pairing means utilisation sums every master's
        # cycles; the single-slot version lost/mispaired overlapping
        # ones and could only undercount on multi-master traces.
        trace, _ = _traced_run(factory_cell, horizon=200_000)
        per_master_busy = sum(
            end.time - start.time
            for m in {e.master for e in trace.events}
            for start, end in trace.cycles(m)
        )
        span = trace.events[-1].time - trace.events[0].time
        assert trace.bus_utilisation() == per_master_busy / span
        assert 0.0 < trace.bus_utilisation() <= 1.0


class TestTimeline:
    def test_render_contains_masters_and_tokens(self, factory_cell):
        trace, _ = _traced_run(factory_cell, horizon=100_000)
        art = render_timeline(trace, 0, 60_000, width=80)
        for m in factory_cell.masters:
            assert m.name in art
        assert "|" in art
        assert "#" in art  # high-priority cycles visible

    def test_empty_window(self, single_master):
        trace, _ = _traced_run(single_master, horizon=50_000)
        assert render_timeline(trace, 10**9, 10**9 + 5) == "(empty trace window)"

    def test_low_priority_marker(self):
        # build a trace manually with a low-priority cycle
        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=TOKEN_ARRIVAL, master="M1"))
        trace.record(BusEvent(time=10, kind=CYCLE_START, master="M1",
                              stream="bulk", high_priority=False, value=50))
        trace.record(BusEvent(time=60, kind=CYCLE_END, master="M1",
                              stream="bulk", high_priority=False, value=50))
        art = render_timeline(trace, 0, 100, width=50)
        assert "." in art

    def test_straddling_cycle_rendered(self):
        # Cycle [0, 100] vs window [50, 80]: the window filter used to
        # drop the CYCLE_START and lose the cycle entirely; now the
        # in-window part renders, clamped to the window edges.
        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=CYCLE_START, master="M1",
                              stream="a", value=100))
        trace.record(BusEvent(time=100, kind=CYCLE_END, master="M1",
                              stream="a", value=100))
        art = render_timeline(trace, 50, 80, width=30)
        assert art != "(empty trace window)"
        assert "#" in art
        assert "M1" in art

    def test_cycle_spanning_whole_window_rendered(self):
        # Both edges outside the window — no event passes the filter at
        # all, but the bus was busy the whole time.
        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=CYCLE_START, master="M1",
                              stream="a", high_priority=False, value=1000))
        trace.record(BusEvent(time=1000, kind=CYCLE_END, master="M1",
                              stream="a", high_priority=False, value=1000))
        art = render_timeline(trace, 400, 600, width=20)
        row = [l for l in art.splitlines() if l.startswith("M1")][0]
        assert set(row.split()[1]) == {"."}  # fully filled with low marks

    def test_straddle_clamp_stays_inside_window(self):
        # The straddling cycle must not paint columns before the window
        # start: column 0 belongs to t=start, and a cycle entering from
        # the left starts painting there, not at a negative column.
        trace = BusTrace()
        trace.record(BusEvent(time=0, kind=CYCLE_START, master="M1",
                              stream="a", value=60))
        trace.record(BusEvent(time=60, kind=CYCLE_END, master="M1",
                              stream="a", value=60))
        trace.record(BusEvent(time=90, kind=TOKEN_ARRIVAL, master="M1"))
        art = render_timeline(trace, 50, 100, width=10)
        row = [l for l in art.splitlines() if l.startswith("M1")][0]
        cells = row[len("M1 "):]
        assert cells[0] == "#"  # clamped to the window start
        assert "|" in cells

    def test_truncated_trace_annotated(self, single_master):
        trace = BusTrace(max_events=50)
        cfg = TokenBusConfig(tracer=trace)
        simulate_token_bus(single_master, 500_000, config=cfg)
        assert trace.truncated
        art = render_timeline(trace, 0, 50_000, width=60)
        assert f"trace truncated: {trace.dropped} events dropped" in art

    def test_untruncated_trace_not_annotated(self, single_master):
        trace, _ = _traced_run(single_master, horizon=50_000)
        art = render_timeline(trace, 0, 50_000, width=60)
        assert "truncated" not in art
