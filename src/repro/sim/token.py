"""PROFIBUS timed-token MAC simulator.

Implements the §3.1 token-passing pseudocode **verbatim** per master:

* on token arrival, ``TTH ← TTR − TRR`` (count-down), ``TRR`` restarts;
* if any high-priority message is pending, execute exactly **one** high
  priority message cycle unconditionally (the late-token allowance);
* while ``TTH > 0`` (tested at the *start* of each cycle) execute further
  high-priority cycles — once started, a cycle always completes (TTH
  overrun);
* then, while ``TTH > 0`` and no high-priority message was left pending
  when entering the phase, execute low-priority cycles (faithful to the
  listing: the low-priority loop does not re-check the high queue);
* pass the token (SD4 frame + tid2).

Each master's high-priority traffic flows through one of:

* ``"stock-fcfs"`` — the standard unbounded FCFS outgoing queue;
* ``"ap-dm"`` / ``"ap-edf"`` — the §4 architecture: a priority-ordered
  application-process queue feeding a :class:`~repro.sim.queues.StackQueue`
  of configurable depth (1 in the paper); the MAC transmits only what is
  staged in the stack.

The simulator records per-stream response times (release → end of
message cycle), deadline misses, real token-rotation times and TTH
overruns, which is everything E1–E4 need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from ..profibus.cycle import attempt_time, token_pass_time
from ..profibus.gap import gap_cycle_bits
from ..profibus.network import Master, Network
from .engine import PRIO_MAC, PRIO_RELEASE, Simulator
from .queues import FCFSQueue, Request, StackQueue, make_queue
from .trace import (CYCLE_END, CYCLE_START, RELEASE, TOKEN_ARRIVAL, BusEvent,
                    BusTrace)
from .traffic import ReleasePattern, TrafficConfig, synchronous_offsets


def stream_key(master_name: str, stream_name: str) -> str:
    """The ``"master/stream"`` key indexing :attr:`TokenBusResult.streams`
    — one definition shared with the validation layer, so analysis rows
    and simulation statistics cannot drift apart by key construction
    (a row whose key is nevertheless absent gets the ``missing`` verdict
    in :mod:`repro.sim.validate`)."""
    return f"{master_name}/{stream_name}"


@dataclass
class StreamStats:
    """Observed behaviour of one stream."""

    master: str
    name: str
    rel_deadline: int
    completed: int = 0
    missed: int = 0
    max_response: int = 0
    sum_response: int = 0
    #: requests released inside the horizon (same ``stats_after`` filter
    #: as ``completed``) — ``released > completed`` means work was still
    #: outstanding when the run ended
    released: int = 0
    #: requests still queued or in flight when the horizon was reached
    unfinished: int = 0
    #: age (horizon − release) of the oldest such request; its eventual
    #: response can only be larger, so validation counts it against the
    #: analytic bound instead of ignoring it
    max_pending_age: int = 0
    #: responses, kept only when the run asks for full traces
    responses: Optional[List[int]] = None

    @property
    def mean_response(self) -> float:
        return self.sum_response / self.completed if self.completed else 0.0

    def percentile(self, p: float) -> int:
        """p-th percentile of the recorded responses (needs
        ``trace_responses=True``); nearest-rank definition."""
        if self.responses is None:
            raise ValueError(
                "per-response data not recorded; run with trace_responses=True"
            )
        if not self.responses:
            raise ValueError("no responses recorded")
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        ordered = sorted(self.responses)
        import math

        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def record(self, response: int) -> None:
        self.completed += 1
        self.sum_response += response
        if response > self.max_response:
            self.max_response = response
        if response > self.rel_deadline:
            self.missed += 1
        if self.responses is not None:
            self.responses.append(response)

    def note_pending(self, age: int) -> None:
        """One request still outstanding at the horizon, released
        ``age`` bit times before it."""
        self.unfinished += 1
        if age > self.max_pending_age:
            self.max_pending_age = age


@dataclass
class MasterStats:
    """Observed MAC behaviour of one master."""

    name: str
    token_visits: int = 0
    max_trr: int = 0
    sum_trr: int = 0
    tth_overruns: int = 0
    max_overrun: int = 0
    high_sent: int = 0
    low_sent: int = 0
    gap_polls: int = 0
    max_pending_high: int = 0

    @property
    def mean_trr(self) -> float:
        return self.sum_trr / self.token_visits if self.token_visits else 0.0


@dataclass
class TokenBusResult:
    """Everything a run produced."""

    horizon: int
    streams: Dict[str, StreamStats]
    masters: Dict[str, MasterStats]
    events: int

    def stream(self, master: str, name: str) -> StreamStats:
        return self.streams[stream_key(master, name)]

    @property
    def any_miss(self) -> bool:
        return any(s.missed for s in self.streams.values())

    @property
    def max_trr(self) -> int:
        return max((m.max_trr for m in self.masters.values()), default=0)


class _StreamRun:
    """What a run looks up about one stream, bound once at setup: its
    statistics, and the length of an error-free cycle (``None`` when
    the stream's length is given, so every cycle costs it)."""

    __slots__ = ("stats", "nominal_bits")

    def __init__(self, stats: StreamStats, nominal_bits: Optional[int]):
        self.stats = stats
        self.nominal_bits = nominal_bits


class _MasterState:
    """Run-time state of one master station."""

    def __init__(self, master: Master, policy: str, stack_depth: int,
                 low_always_pending: Optional[int], trace: bool):
        self.master = master
        self.policy = policy
        self.low_always_pending = low_always_pending
        if policy == "stock-fcfs":
            self.ap_queue = None
            self.stack = None
            self.high_queue = FCFSQueue()
        elif policy in ("ap-dm", "ap-edf"):
            self.ap_queue = make_queue("dm" if policy == "ap-dm" else "edf")
            self.stack = StackQueue(depth=stack_depth)
            self.high_queue = None
        else:
            raise ValueError(f"unknown master policy {policy!r}")
        #: the queue the MAC sends high-priority cycles from (the FCFS
        #: outgoing queue, or the AP architecture's stack);
        #: ``mac_high.pop()`` takes the next request
        self.mac_high = self.high_queue if self.stack is None else self.stack
        #: ``mac_high``'s list of requests: truthy while one is ready
        self.staged = self.mac_high.queued
        self.low_queue = FCFSQueue()
        self.name = master.name
        #: stream name → :class:`_StreamRun`, bound once at setup
        self.runs: Dict[str, _StreamRun] = {}
        #: request whose message cycle is on the wire right now — still
        #: pending if the horizon cuts the cycle short
        self.in_flight: Optional[Request] = None
        self.last_token_arrival = 0
        self.seen_token = False
        self.visits_since_gap = 0
        self.gap_poll_due = False
        self.stats = MasterStats(name=master.name)
        self.trace = trace

    # -- high-priority queue abstraction --------------------------------
    def enqueue_high(self, req: Request) -> None:
        if self.high_queue is not None:
            self.high_queue.push(req)
        else:
            self.ap_queue.push(req)
            self._refill_stack()
        pending = self.pending_high_count()
        if pending > self.stats.max_pending_high:
            self.stats.max_pending_high = pending

    def _refill_stack(self) -> None:
        while self.stack.free and self.ap_queue:
            self.stack.push(self.ap_queue.pop())

    def high_cycle_done(self) -> None:
        """Called when a high-priority cycle completes (stack refill)."""
        if self.stack is not None:
            self._refill_stack()

    def pending_high_count(self) -> int:
        if self.high_queue is not None:
            return len(self.high_queue)
        return len(self.stack) + len(self.ap_queue)

    # -- low-priority ------------------------------------------------------
    def pop_low(self) -> Optional[Request]:
        """A queued low request, or None for a synthetic background one."""
        if self.low_queue:
            return self.low_queue.pop()
        return None


@dataclass
class TokenBusConfig:
    """Simulation configuration.

    ``policies`` maps master name → ``"stock-fcfs" | "ap-dm" | "ap-edf"``
    (default ``default_policy`` for unlisted masters).
    ``low_always_pending`` maps master name → synthetic background
    low-priority cycle length (bit times) for masters that should always
    have low traffic ready — the overrun stressor of the paper's §3.3
    illustration.
    """

    policy: str = "stock-fcfs"
    policies: Dict[str, str] = field(default_factory=dict)
    stack_depth: int = 1
    low_always_pending: Dict[str, int] = field(default_factory=dict)
    trace_responses: bool = False
    #: Probability that a cycle suffers line errors and costs its full
    #: retry-inclusive worst case ``Ch``; otherwise it costs the nominal
    #: single-attempt time.  0 (default) = every cycle costs the
    #: worst-case ``Ch``, the deterministic setting the analyses assume.
    error_rate: float = 0.0
    #: Initialise each master's rotation timer as if a no-load rotation
    #: (one ring latency) just completed.  The paper's §3.1 pseudocode
    #: instead initialises ``TRR ← 0``, which grants the first token
    #: holder a full-TTR budget *unreduced by the ring latency* and lets
    #: the second rotation exceed the eq. (14) bound by up to the ring
    #: latency (a cold-start artefact; see DESIGN.md).  Real networks
    #: enter the ring through an initialisation phase the analysis does
    #: not model, so warm start is the faithful steady-state setting.
    warm_start: bool = True
    #: Optional :class:`repro.sim.trace.BusTrace` recording every token
    #: arrival and message cycle (see that module for the timeline view).
    #: The simulator appends to ``events`` itself: a subclass overriding
    #: ``record`` would be bypassed, so it is refused (``TypeError``).
    tracer: Optional[BusTrace] = None
    #: Gap update factor G: every G-th token visit a master issues one
    #: FDL-Request-Status poll (worst case: unanswered), scheduled out of
    #: remaining token-holding time like low-priority traffic.  ``None``
    #: disables ring maintenance (the paper's model).
    gap_update_factor: Optional[int] = None
    #: Ignore responses of requests released before this time (bit
    #: times) — excludes the start-up transient from steady-state
    #: measurements.  Token/TRR statistics are unaffected.
    stats_after: int = 0
    seed: int = 0


def simulate_token_bus(
    network: Network,
    horizon: int,
    traffic: Optional[TrafficConfig] = None,
    config: Optional[TokenBusConfig] = None,
    ttr: Optional[int] = None,
) -> TokenBusResult:
    """Run the token-bus simulation until ``horizon`` (bit times)."""
    config = config or TokenBusConfig()
    traffic = traffic or synchronous_offsets(network, seed=config.seed)
    if ttr is None:
        ttr = network.require_ttr()
    phy = network.phy
    sim = Simulator()
    rng = random.Random(config.seed)

    states: List[_MasterState] = []
    for m in network.masters:
        policy = config.policies.get(m.name, config.policy)
        st = _MasterState(
            m,
            policy,
            config.stack_depth,
            config.low_always_pending.get(m.name),
            config.trace_responses,
        )
        if config.warm_start:
            st.last_token_arrival = -network.ring_latency()
        states.append(st)
    by_name = {st.master.name: st for st in states}

    stream_stats: Dict[str, StreamStats] = {}
    seq_counter = [0]
    stats_after = config.stats_after
    # The recorder is appended to inline (BusTrace.record's bound check
    # without its call); an event is built from its six fields in order
    # by ``tuple.__new__``, the one allocation each traced event costs.
    tracer = config.tracer
    traced = tracer is not None
    if traced:
        if type(tracer).record is not BusTrace.record:
            raise TypeError(f"{type(tracer).__name__} overrides BusTrace."
                            "record, which the simulator bypasses")
        trace_events = tracer.events
        trace_append = trace_events.append
        trace_cap = tracer.max_events
    new_event = partial(tuple.__new__, BusEvent)

    def _stats_for(master: Master, stream) -> StreamStats:
        key = stream_key(master.name, stream.name)
        if key not in stream_stats:
            stream_stats[key] = StreamStats(
                master=master.name,
                name=stream.name,
                rel_deadline=stream.D,
                responses=[] if config.trace_responses else None,
            )
        return stream_stats[key]

    # --- releases: one pending event per stream --------------------------
    #: every stream's release handler; a handler posts itself for its
    #: stream's next release through this list, not through its own cell
    releases: List[Callable[[], None]] = []

    def _schedule_releases(master: Master, stream) -> None:
        """Bind the stream's run record and release handler once; the
        handler posts itself for the stream's next release."""
        it = traffic.pattern_for(master.name, stream.name).releases(horizon)
        state = by_name[master.name]
        stats = _stats_for(master, stream)  # materialised even if never sent
        nominal = (attempt_time(stream.spec, phy)
                   if config.error_rate and stream.C_bits is None else None)
        state.runs.setdefault(stream.name, _StreamRun(stats, nominal))
        name, master_name = stream.name, master.name
        D, high = stream.D, stream.high_priority
        cycle_bits = stream.cycle_bits(phy)
        queue = state.enqueue_high if high else state.low_queue.push
        handler = len(releases)

        def on_release() -> None:
            t = sim.now
            seq_counter[0] += 1
            req = Request(stream_name=name, master=master_name, release=t,
                          deadline=t + D, rel_deadline=D,
                          cycle_bits=cycle_bits, high_priority=high,
                          seq=seq_counter[0])
            if t >= stats_after:
                stats.released += 1
            if traced:
                if len(trace_events) < trace_cap:
                    trace_append(new_event((t, RELEASE, master_name, name,
                                            high, 0)))
                else:
                    tracer.dropped += 1
            queue(req)
            t = next(it, None)
            if t is not None:
                sim.post(t, releases[handler], priority=PRIO_RELEASE)

        releases.append(on_release)
        t = next(it, None)
        if t is not None:
            sim.post(t, on_release, priority=PRIO_RELEASE)

    for m in network.masters:
        for s in m.streams:
            _schedule_releases(m, s)

    token_pass = token_pass_time(phy)

    # --- the MAC state machine -----------------------------------------
    # One function per phase of a token visit, in §3.1 order:
    # on_token_arrival (TTH, the one unconditional high cycle) →
    # high_loop → after_high (gap poll) → low_loop → token pass.  A
    # message cycle ends by calling the phase it was sent from.
    error_rate = config.error_rate

    def cycle_length(req: Optional[Request], state: _MasterState) -> int:
        if req is None:
            # synthetic background low-priority cycle
            return state.low_always_pending
        if error_rate and rng.random() >= error_rate:
            # error-free cycle: nominal single attempt, if derivable
            nominal = state.runs[req.stream_name].nominal_bits
            if nominal is not None:
                return nominal
        return req.cycle_bits

    gap_factor = config.gap_update_factor

    def on_token_arrival(idx: int) -> None:
        """The token reaches master ``idx``.  An idle visit (nothing
        staged, and the token late or nothing else ready) passes the
        token straight on; when the successor's arrival is the next
        event (:meth:`Simulator.advance`), this loop runs that visit
        too, instead of posting it."""
        while True:
            state = states[idx]
            now = sim.now
            trr = now - state.last_token_arrival
            state.last_token_arrival = now
            st = state.stats
            st.token_visits += 1
            if state.seen_token:
                st.sum_trr += trr
                if trr > st.max_trr:
                    st.max_trr = trr
            state.seen_token = True
            if gap_factor:
                state.visits_since_gap += 1
                if state.visits_since_gap >= gap_factor:
                    state.gap_poll_due = True
            if traced:
                if len(trace_events) < trace_cap:
                    trace_append(new_event((now, TOKEN_ARRIVAL, state.name,
                                            "", True, trr)))
                else:
                    tracer.dropped += 1
            tth_expire = now + ttr - trr  # may be in the past (late token)
            # one high-priority cycle even on a late token
            if state.staged:
                transmit(idx, tth_expire, state.mac_high.pop(), high_loop)
                return
            # with none staged the high loop has nothing to send either
            if now < tth_expire and (state.gap_poll_due
                                     or state.low_queue.queued
                                     or state.low_always_pending is not None):
                after_high(idx, tth_expire)
                return
            now += token_pass
            idx = successor[idx]
            if not sim.advance(now):
                sim.post(now, arrive[idx], priority=PRIO_MAC)
                return

    def high_loop(idx: int, tth_expire: int) -> None:
        state = states[idx]
        if sim.now < tth_expire and state.staged:
            transmit(idx, tth_expire, state.mac_high.pop(), high_loop)
        else:
            after_high(idx, tth_expire)

    def after_high(idx: int, tth_expire: int) -> None:
        """The gap poll, if one is due and the token still holds time;
        else straight on to the low-priority loop."""
        state = states[idx]
        now = sim.now
        if state.gap_poll_due and now < tth_expire:
            state.gap_poll_due = False
            state.visits_since_gap = 0
            state.stats.gap_polls += 1
            done = now + gap_cycle_bits(phy)
            note_overrun(state, now, done, tth_expire)
            sim.post(done, partial(low_loop, idx, tth_expire),
                     priority=PRIO_MAC)
        else:
            low_loop(idx, tth_expire)

    def low_loop(idx: int, tth_expire: int) -> None:
        state = states[idx]
        now = sim.now
        # queued lows, or a synthetic background one always ready
        if now < tth_expire and (state.low_queue.queued
                                 or state.low_always_pending is not None):
            transmit(idx, tth_expire, state.pop_low(), low_loop)
        else:
            sim.post(now + token_pass, arrive[successor[idx]],
                     priority=PRIO_MAC)

    #: ``successor[i]`` is the master the token goes to from master
    #: ``i``; ``arrive[i]`` delivers the token to master ``i``
    successor = [(i + 1) % len(states) for i in range(len(states))]
    arrive = [partial(on_token_arrival, i) for i in range(len(states))]

    def note_overrun(state: _MasterState, start: int, done: int,
                     tth_expire: int) -> None:
        if done > tth_expire > start:
            state.stats.tth_overruns += 1
            over = done - tth_expire
            if over > state.stats.max_overrun:
                state.stats.max_overrun = over

    def transmit(idx: int, tth_expire: int, req: Optional[Request],
                 then: Callable[[int, int], None]) -> None:
        """One message cycle from ``sim.now``; on completion the master
        carries on with ``then`` (the loop the cycle was sent from)."""
        state = states[idx]
        start = sim.now
        state.in_flight = req
        dur = cycle_length(req, state)
        done = start + dur
        note_overrun(state, start, done, tth_expire)
        stream = req.stream_name if req else ""
        high = req.high_priority if req else False
        if traced:
            if len(trace_events) < trace_cap:
                trace_append(new_event((start, CYCLE_START, state.name,
                                        stream, high, dur)))
            else:
                tracer.dropped += 1

        def on_complete():
            state.in_flight = None
            now = sim.now
            if traced:
                if len(trace_events) < trace_cap:
                    trace_append(new_event((now, CYCLE_END, state.name,
                                            stream, high, dur)))
                else:
                    tracer.dropped += 1
            if req is not None:
                if req.release >= stats_after:
                    state.runs[stream].stats.record(now - req.release)
                if high:
                    state.stats.high_sent += 1
                    state.high_cycle_done()
                else:
                    state.stats.low_sent += 1
            else:
                state.stats.low_sent += 1
            then(idx, tth_expire)

        sim.post(done, on_complete, priority=PRIO_MAC)

    # token starts at master 0 at t=0
    sim.post(0, partial(on_token_arrival, 0), priority=PRIO_MAC)
    sim.run_until(horizon)

    # Account for work the horizon cut off: requests still queued (or on
    # the wire) never produced a response, but a validation layer that
    # ignored them would vacuously "pass" a network whose messages never
    # complete.  Record them with their age so bounds can be checked
    # against the response they are already guaranteed to exceed.
    def note_pending(req: Optional[Request]) -> None:
        if req is None or req.release < stats_after:
            return
        by_name[req.master].runs[req.stream_name].stats.note_pending(
            horizon - req.release
        )

    for state in states:
        note_pending(state.in_flight)
        for queue in (state.high_queue, state.ap_queue, state.stack,
                      state.low_queue):
            if queue is not None:
                for req in queue.items():
                    note_pending(req)

    result = TokenBusResult(
        horizon=horizon,
        streams=stream_stats,
        masters={st.master.name: st.stats for st in states},
        events=sim.events_fired,
    )
    # The MAC closures reach each other, the calendar (and through it
    # every pending callback) and the caller's recorder through this
    # frame's cells.  Unbinding the names that close those cycles lets
    # reference counting free the run's state as soon as the caller
    # drops the result and the recorder, with no cyclic collection.
    sim = releases = arrive = high_loop = low_loop = None
    return result
