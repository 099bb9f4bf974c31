"""Single-processor scheduler simulator (validation harness for §2).

Simulates a task set under the four dispatching regimes the paper
surveys — {fixed-priority, EDF} × {preemptive, non-preemptive} — and
records per-task response times (measured from the *notional* arrival,
so jittered runs compare directly against bounds that include ``+J``).  Used by the test suite and bench E6 to
check that no observed response time ever exceeds the corresponding
analytic bound, and that the bounds are *tight* for the synchronous
(fixed-priority) critical instant.

The simulator is job-driven over integer time: jobs are released by
per-task calendars (offset + k·T, optional one-shot adversarial jitter),
the dispatcher picks among ready jobs, and execution proceeds to the
next decision point (job completion, or next release for preemptive
modes).  Deterministic by construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.task import Task, TaskSet


@dataclass
class UniprocStats:
    """Observed response times per task."""

    max_response: Dict[str, int] = field(default_factory=dict)
    completed: Dict[str, int] = field(default_factory=dict)
    missed: Dict[str, int] = field(default_factory=dict)
    #: jobs released inside the horizon, completed or not
    released: Dict[str, int] = field(default_factory=dict)
    #: jobs still unfinished when the run ended
    unfinished: Dict[str, int] = field(default_factory=dict)
    #: age (horizon − notional arrival) of the oldest unfinished job
    max_pending_age: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str, response, deadline) -> None:
        self.completed[name] = self.completed.get(name, 0) + 1
        if response > self.max_response.get(name, 0):
            self.max_response[name] = response
        if response > deadline:
            self.missed[name] = self.missed.get(name, 0) + 1

    def note_pending(self, name: str, age) -> None:
        self.unfinished[name] = self.unfinished.get(name, 0) + 1
        if age > self.max_pending_age.get(name, 0):
            self.max_pending_age[name] = age

    @property
    def any_miss(self) -> bool:
        return any(self.missed.values())


@dataclass(order=True)
class _Job:
    sort_key: tuple
    release: int = field(compare=False)
    notional: int = field(compare=False)  # arrival before jitter
    abs_deadline: int = field(compare=False)
    remaining: int = field(compare=False)
    task_idx: int = field(compare=False)
    seq: int = field(compare=False)


def _policy_key(policy: str, taskset: TaskSet, task_idx: int,
                release: int, abs_deadline: int, seq: int) -> tuple:
    if policy == "fp":
        prio = taskset[task_idx].priority
        if prio is None:
            raise ValueError("fp policy requires assigned priorities")
        return (prio, release, seq)
    if policy == "edf":
        return (abs_deadline, release, seq)
    raise ValueError(f"unknown policy {policy!r}")


def simulate_uniproc(
    taskset: TaskSet,
    horizon: int,
    policy: str = "fp",
    preemptive: bool = True,
    offsets: Optional[Sequence[int]] = None,
    release_jitter_once: bool = False,
) -> UniprocStats:
    """Simulate until ``horizon`` and return observed statistics.

    ``offsets[i]`` is task i's first release (default 0 = synchronous).
    ``release_jitter_once=True`` delays the *first* release of each task
    by its full jitter ``J`` and releases subsequent instances at their
    notional arrivals — the adversarial jitter pattern that maximises
    back-to-back interference.
    """
    n = taskset.n
    offsets = list(offsets) if offsets is not None else [0] * n
    if len(offsets) != n:
        raise ValueError("offsets length mismatch")

    # release calendar: (time, task_idx, notional_arrival, k)
    releases: List[Tuple[int, int, int]] = []
    for i, task in enumerate(taskset):
        k = 0
        while True:
            notional = offsets[i] + k * task.T
            if notional > horizon:
                break
            t = notional
            if release_jitter_once and task.J:
                t = notional + (task.J if k == 0 else 0)
            releases.append((t, i, notional))
            k += 1
    releases.sort()

    stats = UniprocStats()
    for rt, idx, _notional in releases:
        if rt <= horizon:
            name = taskset[idx].name
            stats.released[name] = stats.released.get(name, 0) + 1
    ready: List[_Job] = []
    seq = 0
    rel_pos = 0
    t = 0

    def pull_releases(until: int, inclusive: bool = True) -> None:
        nonlocal rel_pos, seq
        while rel_pos < len(releases):
            rt, idx, notional = releases[rel_pos]
            if rt < until or (inclusive and rt == until):
                task = taskset[idx]
                seq += 1
                job = _Job(
                    sort_key=_policy_key(
                        policy, taskset, idx, rt, notional + task.D, seq
                    ),
                    release=rt,
                    notional=notional,
                    abs_deadline=notional + task.D,
                    remaining=task.C,
                    task_idx=idx,
                    seq=seq,
                )
                heapq.heappush(ready, job)
                rel_pos += 1
            else:
                break

    while t <= horizon:
        pull_releases(t)
        if not ready:
            if rel_pos >= len(releases):
                break
            t = releases[rel_pos][0]
            continue
        job = heapq.heappop(ready)
        if preemptive:
            # run until completion or the next release, whichever first
            completion = t + job.remaining
            next_rel = releases[rel_pos][0] if rel_pos < len(releases) else None
            if next_rel is not None and next_rel < completion:
                job.remaining = completion - next_rel
                t = next_rel
                heapq.heappush(ready, job)
                continue
            t = completion
            task = taskset[job.task_idx]
            stats.record(task.name, t - job.notional, task.D)
        else:
            # non-preemptive: runs to completion once dispatched
            t = t + job.remaining
            task = taskset[job.task_idx]
            stats.record(task.name, t - job.notional, task.D)

    # Jobs the horizon cut off — still in the ready queue or never
    # dispatched — produced no response; record them so the validation
    # layer can count them against the bounds instead of ignoring them.
    for job in ready:
        stats.note_pending(taskset[job.task_idx].name, horizon - job.notional)
    for rt, idx, notional in releases[rel_pos:]:
        if rt <= horizon:
            stats.note_pending(taskset[idx].name, horizon - notional)
    return stats
