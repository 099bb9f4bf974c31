"""A small discrete-event simulation kernel.

Deliberately minimal but real: a binary-heap calendar with stable
ordering, cancellation, and a bounded run loop.  The PROFIBUS token-bus
simulator runs on top of it (the uniprocessor harness in
:mod:`repro.sim.uniproc` is job-driven and keeps its own ready heap).
:meth:`Simulator.run_until` is the hot loop of every traced run: it
pops, skips cancelled entries and fires in one pass over the heap, with
no method call per event.

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
from typing import Any, Callable, List, Optional, Tuple

#: Default event priorities: releases are processed before MAC decisions
#: at the same instant, so "a request queued at the token-arrival
#: instant" is visible to the MAC — the convention the worst-case
#: analyses assume.
PRIO_RELEASE = 0
PRIO_MAC = 1
PRIO_STATS = 2

# Calendar entries are plain lists ``[time, priority, seq, callback,
# cancelled]``: the heap orders them by element-wise comparison, and the
# unique ``seq`` guarantees the comparison never reaches the callback.
# This replaces an ``@dataclass(order=True)`` record whose generated
# ``__lt__`` built a key tuple per comparison — a measurable share of
# DES runtime on large calendars.  The mutable tail carries the
# cancellation flag.
_TIME, _PRIORITY, _SEQ, _CALLBACK, _CANCELLED = range(5)


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[_CANCELLED] = True

    @property
    def cancelled(self) -> bool:
        return self._entry[_CANCELLED]

    @property
    def time(self):
        return self._entry[_TIME]


class Simulator:
    """Event calendar + clock."""

    def __init__(self) -> None:
        self._heap: List[list] = []
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

    def schedule(
        self,
        time: Any,
        callback: Callable[[], None],
        priority: int = PRIO_MAC,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute ``time`` (≥ now)."""
        return EventHandle(self.post(time, callback, priority))

    def post(
        self,
        time: Any,
        callback: Callable[[], None],
        priority: int = PRIO_MAC,
    ) -> list:
        """:meth:`schedule` without the handle, for an event that is never
        cancelled (the token-bus simulator posts every event it
        schedules).  Returns the raw calendar entry."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time!r} < now={self.now!r}"
            )
        entry = [time, priority, next(self._seq), callback, False]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_in(
        self, delay: Any, callback: Callable[[], None], priority: int = PRIO_MAC
    ) -> EventHandle:
        return self.schedule(self.now + delay, callback, priority)

    def peek_time(self) -> Optional[Any]:
        """Timestamp of the next live event, or None when empty."""
        heap = self._heap
        while heap and heap[0][_CANCELLED]:
            heapq.heappop(heap)
        return heap[0][_TIME] if heap else None

    def step(self) -> bool:
        """Fire the next event.  Returns False when the calendar is empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[_CANCELLED]:
                continue
            self.now = entry[_TIME]
            self._events_fired += 1
            entry[_CALLBACK]()
            return True
        return False

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

        One loop over the heap: skip cancelled entries, stop at the
        first live entry past the horizon, fire the rest in order (no
        :meth:`peek_time`/:meth:`step` call pair per event).
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
                time, _, _, callback, cancelled = heap[0]
                if cancelled:
                    heappop(heap)
                    continue
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

    def run_all(self, max_events: int = 50_000_000) -> None:
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
