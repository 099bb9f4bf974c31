"""Online bound checking: replay a frame log against the analytic bounds.

:class:`TraceMonitor` is the incremental core.  It runs the eq. 11/16/17
response-time analysis **once** at construction, then consumes events
in order — the ``(time, kind, master, stream)`` columns of an ingested
trace in one loop (:meth:`TraceMonitor.feed_columns`), or
:class:`~repro.sim.trace.BusEvent` records from a file, a pipe, or a
live ``stdin`` follow, which go through that same loop — reconstructing
exactly the statistics :func:`repro.sim.validate.validate_network`
reads off the in-process simulator:

* per-stream worst observed response (``release`` → matching
  ``cycle_end``, FIFO within a stream — exact for FCFS, and for DM/EDF
  at stack depth 1, where same-stream requests are served in release
  order),
* per-stream pending ages (a release with no matching cycle end by the
  horizon has already waited ``horizon − release``),
* per-master observed token-rotation times (consecutive
  ``token_arrival`` deltas; the first visit is skipped, mirroring
  :class:`~repro.sim.token.MasterStats`) against the eq. 14 ``Tcycle``
  bound.

Given the *same* network, policy and an untruncated native trace, a
:meth:`TraceMonitor.report` snapshot is **bit-identical** per row to the
in-process :class:`~repro.sim.validate.ValidationReport` — the CI
monitor-smoke job asserts exactly that.  Evidence problems do not crash
the monitor, they *degrade* it: a truncated trace or a cycle end that
cannot be paired with a release turns would-be ``sound`` rows into
``degraded`` ones (observed violations stay ``unsound`` — conclusive no
matter what was dropped).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from ..profibus.network import Network
from ..profibus.ttr import analyse
from ..sim.token import stream_key
from ..sim.trace import CYCLE_END, CYCLE_START, RELEASE, TOKEN_ARRIVAL, BusEvent
from ..sim.validate import ValidationRow
from .report import MonitorReport, master_verdict
from .trace_io import IngestedTrace, TraceFormatError


class _ObservedStream:
    """Reconstructed statistics of one stream (mirrors the fields of
    :class:`repro.sim.token.StreamStats` the validation layer reads)."""

    __slots__ = ("released", "completed", "max_response", "sum_response",
                 "pending", "unmatched_ends")

    def __init__(self) -> None:
        self.released = 0
        self.completed = 0
        self.max_response = 0
        self.sum_response = 0
        #: release times awaiting their cycle end, oldest first
        self.pending: Deque[int] = deque()
        #: cycle ends with no release to pair with — foreign-log evidence
        #: damage; any such stream can only be ``degraded`` or ``unsound``
        self.unmatched_ends = 0


class _ObservedMaster:
    """Reconstructed token statistics of one master (mirrors
    :class:`repro.sim.token.MasterStats`: the first visit seeds the
    rotation timer and is excluded from max/sum)."""

    __slots__ = ("token_visits", "max_trr", "sum_trr", "last_arrival")

    def __init__(self) -> None:
        self.token_visits = 0
        self.max_trr = 0
        self.sum_trr = 0
        self.last_arrival: Optional[int] = None


class TraceMonitor:
    """Incremental trace-vs-bounds checker for one network/policy pair.

    Feed events with :meth:`feed` / :meth:`feed_all`; take a snapshot at
    any point with :meth:`report` (non-destructive — a follow mode can
    keep feeding after every snapshot).
    """

    def __init__(
        self,
        network: Network,
        policy: str,
        refined: bool = False,
        stats_after: int = 0,
        source_format: str = "native",
    ) -> None:
        self.network = network
        self.policy = policy
        self.refined = refined
        #: ignore responses of releases before this time (bit times) —
        #: the same steady-state filter as ``TokenBusConfig.stats_after``
        self.stats_after = stats_after
        self.source_format = source_format
        self.analysis = analyse(network, policy, refined=refined)
        # Materialise a row slot for every analysed (high-priority)
        # stream up front: a stream the log never mentions must still
        # get a row (released=0 → sound/degraded), exactly as the
        # simulator materialises StreamStats for never-sent streams.
        self._streams: Dict[str, _ObservedStream] = {
            stream_key(sr.master, sr.stream.name): _ObservedStream()
            for sr in self.analysis.per_stream
        }
        self._masters: Dict[str, _ObservedMaster] = {
            m.name: _ObservedMaster() for m in network.masters
        }
        #: streams seen in the log but absent from the analysis (low
        #: priority, or foreign names) — reported, never row-checked
        self._unanalysed: Dict[str, int] = {}
        self._events = 0
        self._dropped = 0
        self._last_time: Optional[int] = None

    # ------------------------------------------------------------- feeding

    def feed(self, event: BusEvent) -> None:
        """Ingest one event (see :meth:`feed_columns`)."""
        time, kind, master, stream, _high, _value = event
        self.feed_columns((time,), (kind,), (master,), (stream,))

    def feed_all(self, events: Iterable[BusEvent]) -> None:
        """Ingest a sequence of events (see :meth:`feed_columns`)."""
        columns = list(zip(*events))
        if columns:
            self.feed_columns(*columns[:4])

    def feed_columns(self, time: Sequence[int], kind: Sequence[str],
                     master: Sequence[str], stream: Sequence[str]) -> None:
        """Ingest events given as the ``time``, ``kind``, ``master`` and
        ``stream`` columns of a trace (the other two fields carry no
        statistic the monitor reads).  Events must arrive in time order
        (equal times are fine): the reconstruction pairs each cycle end
        with the releases before it, so an event earlier than the
        previous one raises :class:`TraceFormatError`; the events before
        it stay counted, it and the rest are not."""
        masters = self._masters
        streams = self._streams
        stats_after = self.stats_after
        seen = self._events
        last = self._last_time
        if last is None and time:
            last = time[0]
        try:
            for t, k, m, s in zip(time, kind, master, stream):
                if t < last:
                    raise TraceFormatError(
                        f"trace event #{seen}: time {t} is earlier "
                        f"than the previous event's time {last}; events "
                        f"must arrive in time order"
                    )
                seen += 1
                last = t
                if k == TOKEN_ARRIVAL:
                    om = masters.get(m)
                    if om is None:
                        om = masters[m] = _ObservedMaster()
                        self._tally(f"master:{m}")
                    om.token_visits += 1
                    previous = om.last_arrival
                    if previous is not None:
                        trr = t - previous
                        om.sum_trr += trr
                        if trr > om.max_trr:
                            om.max_trr = trr
                    om.last_arrival = t
                    continue
                if k == CYCLE_START or not s:
                    # cycle starts carry no statistics (the response is
                    # measured release → cycle END); stream-less ends
                    # are token/background cycles with nothing to pair
                    continue
                key = stream_key(m, s)
                obs = streams.get(key)
                if obs is None:
                    # low-priority or foreign stream: tallied so the
                    # report can say what the log contained, but no
                    # bound row exists
                    self._tally(key)
                elif k == RELEASE:
                    obs.pending.append(t)
                    if t >= stats_after:
                        obs.released += 1
                elif k == CYCLE_END:
                    if obs.pending:
                        release = obs.pending.popleft()
                        if release >= stats_after:
                            response = t - release
                            obs.completed += 1
                            obs.sum_response += response
                            if response > obs.max_response:
                                obs.max_response = response
                    else:
                        obs.unmatched_ends += 1
        finally:
            self._events = seen
            self._last_time = last

    def _tally(self, key: str) -> None:
        self._unanalysed[key] = self._unanalysed.get(key, 0) + 1

    def note_dropped(self, count: int) -> None:
        """Record that the log lost ``count`` events (a recorder that hit
        its buffer cap) — every subsequent snapshot is degraded."""
        self._dropped += count

    # ----------------------------------------------------------- snapshots

    @property
    def degraded(self) -> bool:
        """Evidence damage that taints every would-be-sound row."""
        return self._dropped > 0

    @property
    def events_seen(self) -> int:
        return self._events

    def report(self, horizon: Optional[int] = None) -> MonitorReport:
        """Snapshot the reconstruction as a ``profibus-rt/monitor/v1``
        report.  ``horizon`` is the end of the observation window;
        defaults to the last event time seen (pending ages are measured
        against it).  Non-destructive: keep feeding afterwards."""
        if horizon is None:
            horizon = self._last_time if self._last_time is not None else 0
        trace_degraded = self.degraded
        rows: List[ValidationRow] = []
        total_unmatched = 0
        for sr in self.analysis.per_stream:
            key = stream_key(sr.master, sr.stream.name)
            obs = self._streams[key]
            total_unmatched += obs.unmatched_ends
            unfinished = 0
            max_pending_age = 0
            for release in obs.pending:
                if release < self.stats_after:
                    continue
                unfinished += 1
                age = horizon - release
                if age > max_pending_age:
                    max_pending_age = age
            rows.append(ValidationRow(
                name=key,
                bound=sr.R,
                observed=obs.max_response,
                completed=obs.completed,
                released=obs.released,
                unfinished=unfinished,
                pending_age=max_pending_age,
                missing=False,
                degraded=trace_degraded or obs.unmatched_ends > 0,
            ))
        masters = {}
        max_trr_observed = 0
        for name in sorted(self._masters):
            om = self._masters[name]
            if om.max_trr > max_trr_observed:
                max_trr_observed = om.max_trr
            masters[name] = {
                "token_visits": om.token_visits,
                "max_trr": om.max_trr,
                "sum_trr": om.sum_trr,
                "trr_bound": self.analysis.tcycle,
                "tightness": (om.max_trr / self.analysis.tcycle
                              if self.analysis.tcycle else None),
                "verdict": master_verdict(
                    token_visits=om.token_visits,
                    max_trr=om.max_trr,
                    bound=self.analysis.tcycle,
                    degraded=trace_degraded,
                ),
            }
        return MonitorReport(
            rows=rows,
            masters=masters,
            detail={
                "policy": self.policy,
                "refined": self.refined,
                "ttr": self.analysis.ttr,
                "tcycle_bound": self.analysis.tcycle,
                "horizon": horizon,
                "max_trr_observed": max_trr_observed,
                "events": self._events,
                "dropped": self._dropped,
                "truncated": self._dropped > 0,
                "source_format": self.source_format,
                "stats_after": self.stats_after,
                "unanalysed_streams": dict(sorted(self._unanalysed.items())),
                "unmatched_cycle_ends": total_unmatched,
            },
        )


def monitor_events(
    network: Network,
    events: Iterable[BusEvent],
    policy: str,
    refined: bool = False,
    stats_after: int = 0,
    horizon: Optional[int] = None,
    dropped: int = 0,
    source_format: str = "native",
) -> MonitorReport:
    """One-shot convenience: feed a whole event sequence, return the
    final snapshot."""
    return monitor_trace(
        network,
        IngestedTrace.from_events(events, horizon=horizon, dropped=dropped,
                                  source_format=source_format),
        policy, refined=refined, stats_after=stats_after)


def monitor_trace(
    network: Network,
    trace: IngestedTrace,
    policy: str,
    refined: bool = False,
    stats_after: int = 0,
    horizon: Optional[int] = None,
) -> MonitorReport:
    """One-shot convenience over an :class:`IngestedTrace` (carries its
    own horizon/dropped metadata; an explicit ``horizon`` wins): its
    columns are fed as they are, with no event tuple built."""
    mon = TraceMonitor(network, policy, refined=refined,
                       stats_after=stats_after,
                       source_format=trace.source_format)
    if trace.dropped:
        mon.note_dropped(trace.dropped)
    columns = trace.columns
    mon.feed_columns(columns["time"], columns["kind"], columns["master"],
                     columns["stream"])
    return mon.report(horizon=horizon if horizon is not None
                      else trace.horizon)


def observed_worst_responses(events: Iterable[BusEvent]) -> Dict[str, int]:
    """Worst observed response per ``master/stream`` key, reconstructed
    from the raw event stream alone — no network, no analysis.  The
    ``trace-replay`` fuzz family uses this to reshape deadlines around
    what a recorded run actually did."""
    pending: Dict[str, Deque[int]] = {}
    worst: Dict[str, int] = {}
    for event in events:
        if not event.stream:
            continue
        key = stream_key(event.master, event.stream)
        if event.kind == RELEASE:
            pending.setdefault(key, deque()).append(event.time)
        elif event.kind == CYCLE_END:
            queue = pending.get(key)
            if queue:
                response = event.time - queue.popleft()
                if response > worst.get(key, 0):
                    worst[key] = response
    return worst
