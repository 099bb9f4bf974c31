"""Analysis-vs-simulation validation helpers (experiment E4/E6 plumbing).

Each helper runs the relevant simulator, collects the worst observed
response per stream/task, pairs it with the analytic bound, and returns
:class:`ValidationReport` rows.  The invariant under test is always

    observed ≤ bound        (soundness of the analysis)

and the reports also carry the tightness ratio ``observed / bound`` so
benches can show how conservative each bound is.

Releases that never complete inside the horizon are **not** ignored: a
request still pending at the horizon has already waited ``horizon −
release`` and its eventual response can only be larger, so that age is
checked against the bound too, and a stream none of whose releases
completed gets a distinct ``incomplete`` verdict instead of a vacuous
pass (see :class:`ValidationRow.verdict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.task import TaskSet
from ..profibus.network import Network
from ..profibus.ttr import analyse
from .token import TokenBusConfig, TokenBusResult, simulate_token_bus, stream_key
from .traffic import TrafficConfig, synchronous_offsets


#: Row verdicts: ``VERDICT_SOUND`` — every observation respects the
#: bound; ``VERDICT_UNSOUND`` — a response (completed, or the age of a
#: request still pending at the horizon) exceeded the bound;
#: ``VERDICT_INCOMPLETE`` — releases happened but none completed, so
#: there is no observation to check (the old code counted this as a
#: vacuous pass); ``VERDICT_MISSING`` — the analysis stream has no
#: simulation statistics at all (a key mismatch between the two layers),
#: so the row is evidence of a broken harness, not of a sound bound (the
#: old code gave such rows ``released=0`` and a vacuous ``sound``);
#: ``VERDICT_DEGRADED`` — the observations themselves are untrustworthy
#: (a truncated trace, releases that cannot be paired), so a row that
#: would otherwise read ``sound``/``incomplete`` must not claim positive
#: evidence.  An observed bound *violation* stays ``unsound`` even on
#: degraded data — a response that exceeded the bound inside the
#: recorded window is conclusive no matter what was dropped after it.
VERDICT_SOUND = "sound"
VERDICT_UNSOUND = "unsound"
VERDICT_INCOMPLETE = "incomplete"
VERDICT_MISSING = "missing"
VERDICT_DEGRADED = "degraded"


@dataclass(frozen=True)
class ValidationRow:
    """One stream/task: analytic bound vs worst observed response."""

    name: str
    bound: Optional[int]
    observed: int
    completed: int
    #: releases inside the horizon (completed or not)
    released: int = 0
    #: releases still unfinished when the horizon was reached
    unfinished: int = 0
    #: age (horizon − release) of the oldest unfinished release
    pending_age: int = 0
    #: the simulator produced no statistics for this stream at all —
    #: see :data:`VERDICT_MISSING`
    missing: bool = False
    #: the observations behind this row are incomplete evidence (e.g.
    #: reconstructed from a truncated trace) — see
    #: :data:`VERDICT_DEGRADED`
    degraded: bool = False

    @property
    def effective_observed(self) -> int:
        """Worst response the run is evidence for: the largest completed
        response, or the age of the oldest request still pending at the
        horizon — its eventual response can only be larger, so a
        non-completing message counts *against* the bound rather than
        being ignored."""
        return max(self.observed, self.pending_age)

    @property
    def verdict(self) -> str:
        if self.missing:
            return VERDICT_MISSING
        if self.bound is not None and self.effective_observed > self.bound:
            return VERDICT_UNSOUND  # conclusive even on degraded data
        if self.degraded:
            return VERDICT_DEGRADED
        if self.bound is None:
            return VERDICT_SOUND  # no bound claimed, nothing to contradict
        if self.released and not self.completed:
            return VERDICT_INCOMPLETE
        return VERDICT_SOUND

    @property
    def sound(self) -> bool:
        """True when the run positively supports the bound.  A stream
        whose releases never completed inside the horizon is *not*
        vacuously sound — see :attr:`verdict`."""
        return self.verdict == VERDICT_SOUND

    @property
    def tightness(self) -> Optional[float]:
        if self.bound is None or self.bound == 0 or self.completed == 0:
            return None
        return self.observed / self.bound


@dataclass(frozen=True)
class ValidationReport:
    rows: List[ValidationRow]
    detail: Dict[str, object]

    @property
    def all_sound(self) -> bool:
        return all(r.sound for r in self.rows)

    @property
    def unsound_rows(self) -> List[ValidationRow]:
        return [r for r in self.rows if r.verdict == VERDICT_UNSOUND]

    @property
    def incomplete_rows(self) -> List[ValidationRow]:
        return [r for r in self.rows if r.verdict == VERDICT_INCOMPLETE]

    @property
    def missing_rows(self) -> List[ValidationRow]:
        return [r for r in self.rows if r.verdict == VERDICT_MISSING]

    @property
    def degraded_rows(self) -> List[ValidationRow]:
        return [r for r in self.rows if r.verdict == VERDICT_DEGRADED]

    @property
    def worst_tightness(self) -> Optional[float]:
        vals = [r.tightness for r in self.rows if r.tightness is not None]
        return max(vals) if vals else None

    def row(self, name: str) -> ValidationRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


_POLICY_TO_SIM = {"fcfs": "stock-fcfs", "dm": "ap-dm", "edf": "ap-edf"}


def validate_network(
    network: Network,
    policy: str,
    horizon: int,
    traffic: Optional[TrafficConfig] = None,
    config: Optional[TokenBusConfig] = None,
    refined: bool = False,
) -> ValidationReport:
    """Analytic bounds (eqs. 11/16/17) vs token-bus simulation."""
    analysis = analyse(network, policy, refined=refined)
    if config is None:
        config = TokenBusConfig(policy=_POLICY_TO_SIM[policy])
    if traffic is None:
        traffic = synchronous_offsets(network)
    result = simulate_token_bus(network, horizon, traffic, config)
    rows = []
    for sr in analysis.per_stream:
        key = stream_key(sr.master, sr.stream.name)
        stats = result.streams.get(key)
        rows.append(
            ValidationRow(
                name=key,
                bound=sr.R,
                observed=stats.max_response if stats else 0,
                completed=stats.completed if stats else 0,
                released=stats.released if stats else 0,
                unfinished=stats.unfinished if stats else 0,
                pending_age=stats.max_pending_age if stats else 0,
                missing=stats is None,
            )
        )
    return ValidationReport(
        rows=rows,
        detail={
            "policy": policy,
            "horizon": horizon,
            "tcycle_bound": analysis.tcycle,
            "max_trr_observed": result.max_trr,
            "events": result.events,
        },
    )


def validate_uniproc(
    taskset: TaskSet,
    bounds: Dict[str, Optional[int]],
    horizon: int,
    policy: str = "fp",
    preemptive: bool = True,
    release_jitter_once: bool = False,
) -> ValidationReport:
    """Analytic per-task bounds vs the uniprocessor simulator."""
    from .uniproc import simulate_uniproc

    stats = simulate_uniproc(
        taskset,
        horizon,
        policy=policy,
        preemptive=preemptive,
        release_jitter_once=release_jitter_once,
    )
    rows = []
    for task in taskset:
        rows.append(
            ValidationRow(
                name=task.name,
                bound=bounds.get(task.name),
                observed=stats.max_response.get(task.name, 0),
                completed=stats.completed.get(task.name, 0),
                released=stats.released.get(task.name, 0),
                unfinished=stats.unfinished.get(task.name, 0),
                pending_age=stats.max_pending_age.get(task.name, 0),
            )
        )
    return ValidationReport(
        rows=rows,
        detail={"policy": policy, "preemptive": preemptive, "horizon": horizon},
    )
