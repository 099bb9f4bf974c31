"""A small discrete-event simulation kernel.

Deliberately minimal but real: a binary-heap calendar with stable
ordering and a bounded run loop.  The PROFIBUS token-bus simulator runs
on top of it (the uniprocessor harness in :mod:`repro.sim.uniproc` is
job-driven and keeps its own ready heap).  :meth:`Simulator.run_until`
is the hot loop of every traced run: it pops and fires in one pass over
the heap, with no method call per event.

Not every event passes through the calendar.  A callback that would
post the next event of its own chain may ask :meth:`Simulator.advance`
first: when that event would be the next to fire anyway, the clock
moves to it, it is counted like any fired event, and the caller runs it
in its own loop.  The token bus fires idle token visits this way.

Determinism contract: two events at the same timestamp fire in
``(time, priority, sequence)`` order, where ``sequence`` is the
scheduling order — so a simulation is a pure function of its inputs and
seed, which the test suite relies on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List

#: Default event priorities: releases are processed before MAC decisions
#: at the same instant, so "a request queued at the token-arrival
#: instant" is visible to the MAC — the convention the worst-case
#: analyses assume.
PRIO_RELEASE = 0
PRIO_MAC = 1
PRIO_STATS = 2

# Calendar entries are plain tuples ``(time, priority, seq, callback)``:
# the heap orders them by element-wise comparison, and the unique
# ``seq`` guarantees the comparison never reaches the callback.  This
# replaces an ``@dataclass(order=True)`` record whose generated
# ``__lt__`` built a key tuple per comparison — a measurable share of
# DES runtime on large calendars.
_TIME = 0


class Simulator:
    """Event calendar + clock."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self.now: Any = 0
        self._events_fired = 0
        # the running run_until's horizon and event budget (the value
        # of ``_events_fired`` at which its guard trips); a budget of 0
        # outside run_until makes advance() refuse
        self._horizon: Any = 0
        self._budget = 0

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def post(
        self,
        time: Any,
        callback: Callable[[], None],
        priority: int = PRIO_MAC,
    ) -> None:
        """Schedule ``callback`` at absolute ``time`` (≥ now)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time!r} < now={self.now!r}"
            )
        heapq.heappush(self._heap, (time, priority, next(self._seq), callback))

    def advance(self, time: Any) -> bool:
        """Fire an event at ``time`` in the caller's own loop rather than
        through the calendar, when that changes nothing: inside
        :meth:`run_until`, ``now ≤ time ≤ horizon``, the guard's budget
        is not spent, and every calendar entry is strictly later than
        ``time`` — so the entry :meth:`post` would make is the next one
        popped, whatever its priority.  Then the clock moves to
        ``time``, the event counts in :attr:`events_fired` and toward
        ``max_events``, and the caller runs it; on ``False`` the caller
        posts it as usual.  Skipping a post only renumbers the
        sequence, which orders nothing but same-time, same-priority
        entries."""
        heap = self._heap
        if (time > self._horizon or time < self.now
                or self._events_fired >= self._budget
                or (heap and heap[0][_TIME] <= time)):
            return False
        self.now = time
        self._events_fired += 1
        return True

    def run_until(self, horizon: Any, max_events: int = 50_000_000) -> None:
        """Run events with ``time <= horizon`` (inclusive).

        One loop over the heap: stop at the first entry past the
        horizon, fire the rest in order (no method call per event).
        ``max_events`` is a runaway guard: exceeding it raises rather
        than silently spinning (e.g. a zero-length cycle loop bug).
        Events a callback fires through :meth:`advance` count toward it.
        """
        heap = self._heap
        heappop = heapq.heappop
        budget = self._events_fired + max_events
        self._horizon = horizon
        self._budget = budget
        try:
            while heap:
                time, _, _, callback = heap[0]
                if time > horizon:
                    break
                heappop(heap)
                self.now = time
                self._events_fired += 1
                callback()
                if self._events_fired > budget:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events before "
                        f"t={horizon}"
                    )
        finally:
            self._budget = 0
        self.now = horizon
