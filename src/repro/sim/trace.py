"""Bus event tracing: what actually happened on the wire.

Attach a :class:`BusTrace` to a :class:`~repro.sim.token.TokenBusConfig`
and the simulator records every request release, token arrival, token
pass and message cycle.  Useful for debugging analyses, for the
examples, for the ASCII timeline renderer (:func:`render_timeline`)
which makes a token rotation visible at a glance::

    0        [M1 tok] (M1 high axis.....) [M2 tok] (M2 low bulk.......)

and — exported as JSONL through :mod:`repro.monitor.trace_io` — as the
native input of the trace monitoring mode (``repro-cli monitor``).

Events are plain tuples in time order: :class:`BusEvent` is a
:class:`typing.NamedTuple`, so it compares equal to the tuple of its
fields, unpacks in the ``trace/v1`` event key order, and costs one
tuple allocation per event — which matters on a path that records and
re-ingests every frame.  The trace is bounded (``max_events``) so a
runaway simulation cannot eat memory.  A full trace does not fail
silently: ``dropped`` counts the suffix that was cut off,
:attr:`BusTrace.truncated` flags it, the timeline annotates it, and
every monitoring/validation verdict built over a truncated trace is
*degraded* (see :mod:`repro.sim.validate`) instead of confidently
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

#: event kinds
TOKEN_ARRIVAL = "token_arrival"
CYCLE_START = "cycle_start"
CYCLE_END = "cycle_end"
RELEASE = "release"

#: the frozen event vocabulary of ``profibus-rt/trace/v1`` documents
EVENT_KINDS = (TOKEN_ARRIVAL, CYCLE_START, CYCLE_END, RELEASE)


class BusEvent(NamedTuple):
    """One observed bus event."""

    time: int
    kind: str  # TOKEN_ARRIVAL | CYCLE_START | CYCLE_END | RELEASE
    master: str
    #: stream name for message cycles and releases; "" for token events
    #: and synthetic background low-priority cycles.
    stream: str = ""
    high_priority: bool = True
    #: for TOKEN_ARRIVAL: the measured TRR; for CYCLE_*: the cycle length.
    value: int = 0


@dataclass
class BusTrace:
    """Recorder passed to the simulator via ``TokenBusConfig.tracer``.

    The simulator appends to :attr:`events` itself, with :meth:`record`'s
    bound check inlined (no call per event), so ``max_events`` and
    ``dropped`` mean the same on both paths."""

    max_events: int = 100_000
    events: List[BusEvent] = field(default_factory=list)
    dropped: int = 0

    def record(self, event: BusEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    @property
    def truncated(self) -> bool:
        """True when ``max_events`` was reached and a suffix of the run
        was dropped — every statistic below then covers only a window,
        and consumers must degrade their verdicts accordingly."""
        return self.dropped > 0

    # -- queries ----------------------------------------------------------
    def of_kind(self, kind: str) -> List[BusEvent]:
        return [e for e in self.events if e.kind == kind]

    def token_arrivals(self, master: Optional[str] = None) -> List[BusEvent]:
        return [
            e for e in self.of_kind(TOKEN_ARRIVAL)
            if master is None or e.master == master
        ]

    def releases(self, master: Optional[str] = None) -> List[BusEvent]:
        return [
            e for e in self.of_kind(RELEASE)
            if master is None or e.master == master
        ]

    def cycles(self, master: Optional[str] = None) -> List[Tuple[BusEvent, BusEvent]]:
        """Paired (start, end) message-cycle events, in time order.

        Pairing is **per master**: a ``CYCLE_END`` closes only the open
        ``CYCLE_START`` of the *same* master.  (A single shared open
        slot used to let master B's start overwrite master A's, and an
        end paired with whichever start happened to be open — mispairing
        interleaved multi-master traces and corrupting
        :meth:`bus_utilisation`.)  A start without an end — a cycle
        still on the wire when the horizon or the trace bound cut the
        recording — stays unpaired rather than stealing a later end.
        """
        out = []
        open_start: Dict[str, BusEvent] = {}
        for e in self.events:
            if master is not None and e.master != master:
                continue
            if e.kind == CYCLE_START:
                open_start[e.master] = e
            elif e.kind == CYCLE_END:
                start = open_start.pop(e.master, None)
                if start is not None:
                    out.append((start, e))
        return out

    def bus_utilisation(self) -> float:
        """Fraction of traced time spent inside message cycles.

        On a truncated trace (:attr:`truncated`) this covers only the
        recorded window — callers presenting it as a run statistic must
        surface the truncation (the CLI and the monitor both do).
        """
        if not self.events:
            return 0.0
        span = self.events[-1].time - self.events[0].time
        if span <= 0:
            return 0.0
        busy = sum(end.time - start.time for start, end in self.cycles())
        return busy / span


def render_timeline(
    trace: BusTrace,
    start: int = 0,
    end: Optional[int] = None,
    width: int = 100,
) -> str:
    """ASCII timeline of the trace window ``[start, end]``.

    One row per master; token arrivals are ``|``, high-priority cycles
    fill with ``#``, low-priority cycles with ``.``.  Cycles are paired
    over the *whole* trace and clamped to the window, so a cycle that
    straddles the window edge still renders its in-window part (the
    window filter used to drop the ``CYCLE_START``, losing the cycle
    entirely).  A truncated trace is annotated with its dropped count.
    """
    events = [e for e in trace.events if e.time >= start
              and (end is None or e.time <= end)]
    # pair on the full trace, then keep cycles overlapping the window —
    # including ones whose start (or start and end) fall outside it
    all_cycles = trace.cycles()
    if end is None:
        if events:
            end = events[-1].time
        elif all_cycles:
            end = max(e.time for _, e in all_cycles)
        else:
            return "(empty trace window)"
    window_cycles = [
        (s, e) for s, e in all_cycles if e.time >= start and s.time <= end
    ]
    if not events and not window_cycles:
        return "(empty trace window)"
    span = max(1, end - start)
    masters = sorted({e.master for e in events}
                     | {s.master for s, _ in window_cycles})
    rows = {m: [" "] * width for m in masters}

    def col(t: int) -> int:
        return min(width - 1, max(0, int((t - start) * width / span)))

    for ev in events:
        if ev.kind == TOKEN_ARRIVAL:
            rows[ev.master][col(ev.time)] = "|"
    for s, e in window_cycles:
        c0 = col(max(s.time, start))
        c1 = max(c0, col(min(e.time, end)))
        fill = "#" if s.high_priority else "."
        for i in range(c0, c1 + 1):
            if rows[s.master][i] == " ":
                rows[s.master][i] = fill
    label_w = max(len(m) for m in masters) + 1
    lines = [f"{'':<{label_w}}t={start} .. t={end}"]
    for m in masters:
        lines.append(f"{m:<{label_w}}" + "".join(rows[m]))
    lines.append(f"{'':<{label_w}}'|' token arrival, '#' high cycle, "
                 f"'.' low cycle")
    if trace.truncated:
        lines.append(f"{'':<{label_w}}(trace truncated: {trace.dropped} "
                     f"events dropped)")
    return "\n".join(lines)
