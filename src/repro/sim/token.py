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
from typing import Dict, List, Optional

from ..profibus.cycle import token_pass_time
from ..profibus.network import Master, Network
from .engine import PRIO_MAC, PRIO_RELEASE, Simulator
from .queues import FCFSQueue, Request, StackQueue, make_queue
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
        self.low_queue = FCFSQueue()
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

    def has_high(self) -> bool:
        if self.high_queue is not None:
            return bool(self.high_queue)
        return bool(self.stack)

    def pop_high(self) -> Request:
        if self.high_queue is not None:
            return self.high_queue.pop()
        return self.stack.pop()

    def high_cycle_done(self) -> None:
        """Called when a high-priority cycle completes (stack refill)."""
        if self.stack is not None:
            self._refill_stack()

    def pending_high_count(self) -> int:
        if self.high_queue is not None:
            return len(self.high_queue)
        return len(self.stack) + len(self.ap_queue)

    # -- low-priority ------------------------------------------------------
    def has_low(self) -> bool:
        return bool(self.low_queue) or self.low_always_pending is not None

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
    tracer: Optional[object] = None
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

    # --- schedule all releases lazily (one pending event per stream) ----
    def _schedule_releases(master: Master, stream) -> None:
        pattern = traffic.pattern_for(master.name, stream.name)
        it = pattern.releases(horizon)
        state = by_name[master.name]
        _stats_for(master, stream)  # materialise stats even if never sent
        cycle_bits = stream.cycle_bits(phy)

        def fire_next():
            try:
                t = next(it)
            except StopIteration:
                return
            def on_release(t=t):
                seq_counter[0] += 1
                req = Request(
                    stream_name=stream.name,
                    master=master.name,
                    release=t,
                    deadline=t + stream.D,
                    rel_deadline=stream.D,
                    cycle_bits=cycle_bits,
                    high_priority=stream.high_priority,
                    seq=seq_counter[0],
                )
                if t >= config.stats_after:
                    _stats_for(master, stream).released += 1
                if config.tracer is not None:
                    from .trace import RELEASE, BusEvent

                    config.tracer.record(BusEvent(
                        time=t, kind=RELEASE, master=master.name,
                        stream=stream.name,
                        high_priority=stream.high_priority,
                    ))
                if stream.high_priority:
                    state.enqueue_high(req)
                else:
                    state.low_queue.push(req)
                fire_next()
            sim.schedule(t, on_release, priority=PRIO_RELEASE)

        fire_next()

    for m in network.masters:
        for s in m.streams:
            _schedule_releases(m, s)

    token_pass = token_pass_time(phy)

    # --- the MAC state machine -----------------------------------------
    def cycle_length(req: Optional[Request], state: _MasterState) -> int:
        if req is None:
            # synthetic background low-priority cycle
            return state.low_always_pending
        if config.error_rate and rng.random() >= config.error_rate:
            # error-free cycle: nominal single attempt, if derivable
            stream = state.master.stream(req.stream_name)
            if stream.C_bits is None:
                from ..profibus.cycle import attempt_time

                return attempt_time(stream.spec, phy)
        return req.cycle_bits

    def on_token_arrival(idx: int) -> None:
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
        if config.gap_update_factor:
            state.visits_since_gap += 1
            if state.visits_since_gap >= config.gap_update_factor:
                state.gap_poll_due = True
        if config.tracer is not None:
            from .trace import TOKEN_ARRIVAL, BusEvent

            config.tracer.record(BusEvent(
                time=now, kind=TOKEN_ARRIVAL, master=state.master.name,
                value=trr,
            ))
        tth = ttr - trr
        tth_expire = now + tth  # may be in the past (late token)
        serve(idx, tth_expire, phase="first_high")

    def serve(idx: int, tth_expire: int, phase: str) -> None:
        """One scheduling decision at sim.now; transmits or passes token."""
        state = states[idx]
        now = sim.now
        if phase == "first_high":
            if state.has_high():
                transmit(idx, tth_expire, state.pop_high(), "high_loop")
                return
            phase = "high_loop"
        if phase == "high_loop":
            if now < tth_expire and state.has_high():
                transmit(idx, tth_expire, state.pop_high(), "high_loop")
                return
            phase = "gap"
        if phase == "gap":
            if state.gap_poll_due and now < tth_expire:
                state.gap_poll_due = False
                state.visits_since_gap = 0
                state.stats.gap_polls += 1
                from ..profibus.gap import gap_cycle_bits

                dur = gap_cycle_bits(phy)
                done = now + dur
                if done > tth_expire > now:
                    state.stats.tth_overruns += 1
                    over = done - tth_expire
                    if over > state.stats.max_overrun:
                        state.stats.max_overrun = over
                sim.schedule(done, lambda: serve(idx, tth_expire, "low_loop"),
                             priority=PRIO_MAC)
                return
            phase = "low_loop"
        if phase == "low_loop":
            if now < tth_expire and state.has_low():
                req = state.pop_low()
                transmit(idx, tth_expire, req, "low_loop")
                return
        # pass the token
        nxt = (idx + 1) % len(states)
        sim.schedule(now + token_pass, lambda: on_token_arrival(nxt),
                     priority=PRIO_MAC)

    def transmit(idx: int, tth_expire: int, req: Optional[Request],
                 next_phase: str) -> None:
        state = states[idx]
        start = sim.now
        state.in_flight = req
        dur = cycle_length(req, state)
        done = start + dur
        if done > tth_expire > start:
            state.stats.tth_overruns += 1
            over = done - tth_expire
            if over > state.stats.max_overrun:
                state.stats.max_overrun = over
        if config.tracer is not None:
            from .trace import CYCLE_START, BusEvent

            config.tracer.record(BusEvent(
                time=start, kind=CYCLE_START, master=state.master.name,
                stream=req.stream_name if req else "",
                high_priority=req.high_priority if req else False,
                value=dur,
            ))

        def on_complete():
            state.in_flight = None
            if config.tracer is not None:
                from .trace import CYCLE_END, BusEvent

                config.tracer.record(BusEvent(
                    time=sim.now, kind=CYCLE_END, master=state.master.name,
                    stream=req.stream_name if req else "",
                    high_priority=req.high_priority if req else False,
                    value=dur,
                ))
            if req is not None:
                master = state.master
                stream = master.stream(req.stream_name)
                if req.release >= config.stats_after:
                    _stats_for(master, stream).record(sim.now - req.release)
                if req.high_priority:
                    state.stats.high_sent += 1
                    state.high_cycle_done()
                else:
                    state.stats.low_sent += 1
            else:
                state.stats.low_sent += 1
            serve(idx, tth_expire, next_phase)

        sim.schedule(done, on_complete, priority=PRIO_MAC)

    # token starts at master 0 at t=0
    sim.schedule(0, lambda: on_token_arrival(0), priority=PRIO_MAC)
    sim.run_until(horizon)

    # Account for work the horizon cut off: requests still queued (or on
    # the wire) never produced a response, but a validation layer that
    # ignored them would vacuously "pass" a network whose messages never
    # complete.  Record them with their age so bounds can be checked
    # against the response they are already guaranteed to exceed.
    def note_pending(req: Optional[Request]) -> None:
        if req is None or req.release < config.stats_after:
            return
        master = by_name[req.master].master
        _stats_for(master, master.stream(req.stream_name)).note_pending(
            horizon - req.release
        )

    for state in states:
        note_pending(state.in_flight)
        for queue in (state.high_queue, state.ap_queue, state.stack,
                      state.low_queue):
            if queue is not None:
                for req in queue.items():
                    note_pending(req)

    return TokenBusResult(
        horizon=horizon,
        streams=stream_stats,
        masters={st.master.name: st.stats for st in states},
        events=sim.events_fired,
    )
