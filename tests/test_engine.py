"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import PRIO_MAC, PRIO_RELEASE, Simulator


class TestScheduling:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.post(5, lambda: fired.append("b"))
        sim.post(1, lambda: fired.append("a"))
        sim.post(9, lambda: fired.append("c"))
        sim.run_until(9)
        assert fired == ["a", "b", "c"]
        assert sim.now == 9

    def test_same_time_priority_order(self):
        sim = Simulator()
        fired = []
        sim.post(3, lambda: fired.append("mac"), priority=PRIO_MAC)
        sim.post(3, lambda: fired.append("release"), priority=PRIO_RELEASE)
        sim.run_until(3)
        assert fired == ["release", "mac"]

    def test_same_time_same_priority_fifo(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.post(1, lambda i=i: fired.append(i))
        sim.run_until(1)
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.post(5, lambda: None)
        sim.run_until(5)
        with pytest.raises(ValueError):
            sim.post(4, lambda: None)


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        for t in (1, 5, 10, 15):
            sim.post(t, lambda t=t: fired.append(t))
        sim.run_until(10)
        assert fired == [1, 5, 10]
        assert sim.now == 10

    def test_horizon_inclusive(self):
        sim = Simulator()
        fired = []
        sim.post(10, lambda: fired.append(1))
        sim.run_until(10)
        assert fired == [1]

    def test_event_chain(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            sim.post(sim.now + 2, tick)

        sim.post(0, tick)
        sim.run_until(10)
        assert count[0] == 6  # t = 0,2,4,6,8,10

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.post(sim.now, loop)  # zero-delay self-reschedule

        sim.post(0, loop)
        with pytest.raises(RuntimeError):
            sim.run_until(1, max_events=1000)

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.post(t, lambda: None)
        sim.run_until(4)
        assert sim.events_fired == 5


class TestAdvance:
    """``advance`` fires an event in the caller's loop only where posting
    it would have made it the next one popped."""

    def _chain(self, sim, fired, step=2):
        """A self-continuing chain: each link runs the next one inline
        when ``advance`` allows, else posts it."""
        def link():
            t = sim.now
            while True:
                fired.append(t)
                t += step
                if not sim.advance(t):
                    sim.post(t, link)
                    return
        return link

    def test_same_firings_as_the_calendar(self):
        def run(inline):
            sim, fired = Simulator(), []
            for t in (3, 7, 8, 20):
                sim.post(t, lambda t=t: fired.append(("release", t)),
                         priority=PRIO_RELEASE)
            if inline:
                sim.post(0, self._chain(sim, fired))
            else:
                def tick():
                    fired.append(sim.now)
                    sim.post(sim.now + 2, tick)
                sim.post(0, tick)
            sim.run_until(21)
            return fired, sim.events_fired, sim.now

        assert run(inline=True) == run(inline=False)

    def test_refuses_at_or_after_a_calendar_entry(self):
        sim = Simulator()
        answers = []

        def probe():
            answers.append((sim.advance(5), sim.advance(4), sim.now,
                            sim.events_fired))

        sim.post(0, probe)
        sim.post(5, lambda: None, priority=PRIO_RELEASE)
        sim.run_until(10)
        # 5 ties the release: post it, so the release fires first
        assert answers == [(False, True, 4, 2)]

    def test_refuses_past_the_horizon_and_outside_run_until(self):
        sim = Simulator()
        answers = []
        sim.post(0, lambda: answers.append((sim.advance(11),
                                            sim.advance(10))))
        sim.run_until(10)
        assert answers == [(False, True)]
        assert sim.advance(10) is False and sim.advance(12) is False

    def test_runaway_guard_counts_inline_events(self):
        sim = Simulator()
        sim.post(0, self._chain(sim, [], step=1))
        with pytest.raises(RuntimeError, match="exceeded 1000 events"):
            sim.run_until(10**9, max_events=1000)
        assert sim.events_fired == 1001
